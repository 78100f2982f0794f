package dft

// AddTrain adds the transform of a weighted excitation train into dst: for
// every bin n it adds Σₑ wₑ·stepₑⁿ over the events evs (positions into
// steps) with weights ws, the denominator of Eq. 7.6 before the link
// derivative scales it. Each event's phasor is built by repeated
// multiplication from wₑ, and every bin receives the events' terms in the
// order of evs, so the sums are bit-identical to a pass that adds one event
// per sweep over the bins.
//
// On amd64 hosts with AVX2 the events are swept eight at a time in assembly
// (train_amd64.s), which issues the same IEEE operations in the same order;
// the Go sweep runs the remaining fewer than eight events, and all of them
// everywhere else.
func AddTrain(dst []complex128, evs []int32, ws []float64, steps []complex128) {
	// The assembly sweep reads ws and steps without bounds checks, so a
	// short ws or an event outside steps panics here, as in the Go sweep.
	if len(ws) < len(evs) {
		panic("dft: AddTrain has fewer weights than events")
	}
	n := 0
	if useAVX2 {
		n = len(evs) &^ 7
		for _, e := range evs[:n] {
			_ = steps[e]
		}
		addTrainAVX2(dst, evs[:n], ws[:n], steps)
	}
	addTrainGo(dst, evs[n:], ws[n:], steps)
}

// addTrainGo is the portable sweep. Four events share a sweep only so their
// independent multiply chains overlap in the pipeline; each bin still adds
// them in event order.
func addTrainGo(dst []complex128, evs []int32, ws []float64, steps []complex128) {
	q := 0
	for ; q+4 <= len(evs); q += 4 {
		w0, s0 := complex(ws[q], 0), steps[evs[q]]
		w1, s1 := complex(ws[q+1], 0), steps[evs[q+1]]
		w2, s2 := complex(ws[q+2], 0), steps[evs[q+2]]
		w3, s3 := complex(ws[q+3], 0), steps[evs[q+3]]
		for n := range dst {
			d := dst[n]
			d += w0
			w0 *= s0
			d += w1
			w1 *= s1
			d += w2
			w2 *= s2
			d += w3
			w3 *= s3
			dst[n] = d
		}
	}
	for ; q < len(evs); q++ {
		w, s := complex(ws[q], 0), steps[evs[q]]
		for n := range dst {
			dst[n] += w
			w *= s
		}
	}
}
