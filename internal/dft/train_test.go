package dft

import (
	"encoding/binary"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// runTrain returns dst after AddTrain, with the vector sweep selected or not.
func runTrain(vec bool, dst []complex128, evs []int32, ws []float64, steps []complex128) []complex128 {
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	useAVX2 = vec
	out := append([]complex128(nil), dst...)
	AddTrain(out, evs, ws, steps)
	return out
}

// oneBySweep is the pass AddTrain must equal: one event per sweep over the bins.
func oneBySweep(dst []complex128, evs []int32, ws []float64, steps []complex128) []complex128 {
	out := append([]complex128(nil), dst...)
	for q := range evs {
		addTrainGo(out, evs[q:q+1], ws[q:q+1], steps)
	}
	return out
}

// sameBits reports the first bin whose parts differ in their bits; NaNs
// match any NaN, since the two sweeps may carry different payloads.
func sameBits(got, want []complex128) (int, bool) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	for n := range want {
		if !same(real(got[n]), real(want[n])) || !same(imag(got[n]), imag(want[n])) {
			return n, false
		}
	}
	return 0, true
}

// TestAddTrainVectorMatchesGo compares, bit for bit, the vector sweep with
// the Go sweep, and both with one event per sweep, over trains of every
// length up to 40 and around the sweep widths, on zeroed and on random dst.
// The weights include signed zeros, subnormals, ±1e300 and negatives; the
// steps include exact ±1 and ±i, whose products carry signed zeros.
func TestAddTrainVectorMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Log("the vector sweep did not run: this host has no AVX2")
	}
	r := rand.New(rand.NewSource(5))
	steps := []complex128{1, -1, 1i, -1i}
	for len(steps) < 300 {
		pos := r.Float64() * 256 * 8
		steps = append(steps, cmplx.Rect(1, -2*math.Pi*pos/256))
	}
	special := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1.5e-310, 1e300, -1e300, -0.75, -3e-5}
	lengths := []int{63, 64, 65, 701}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	vectorRuns := 0
	for _, bins := range []int{256, 0, 1, 7} {
		for _, n := range lengths {
			evs := make([]int32, n)
			ws := make([]float64, n)
			for q := range evs {
				evs[q] = int32(r.Intn(len(steps)))
				if r.Intn(3) == 0 {
					ws[q] = special[r.Intn(len(special))]
				} else {
					ws[q] = math.Abs(r.NormFloat64())
				}
			}
			for _, random := range []bool{false, true} {
				dst := make([]complex128, bins)
				if random {
					for k := range dst {
						dst[k] = complex(r.NormFloat64()*1e3, r.NormFloat64())
					}
				}
				want := oneBySweep(dst, evs, ws, steps)
				if bin, ok := sameBits(runTrain(false, dst, evs, ws, steps), want); !ok {
					t.Fatalf("go sweep, %d events, %d bins, random dst %v: bin %d differs from one event per sweep", n, bins, random, bin)
				}
				if !useAVX2 {
					continue
				}
				if n >= 8 && bins > 0 {
					vectorRuns++
				}
				if bin, ok := sameBits(runTrain(true, dst, evs, ws, steps), want); !ok {
					t.Fatalf("vector sweep, %d events, %d bins, random dst %v: bin %d differs from one event per sweep", n, bins, random, bin)
				}
			}
		}
	}
	t.Logf("%d vector sweeps compared", vectorRuns)
}

// TestAddTrainChecksBounds: the assembly sweep reads ws and steps without
// bounds checks, so AddTrain must panic on a short ws or an event outside
// steps before it runs, as the Go sweep does.
func TestAddTrainChecksBounds(t *testing.T) {
	steps := make([]complex128, 8)
	evs := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	for _, vec := range []bool{false, useAVX2} {
		for name, c := range map[string]struct {
			evs []int32
			ws  []float64
		}{
			"short ws":      {evs, make([]float64, 7, 8)},
			"event outside": {append(evs[:7:7], 8), make([]float64, 8)},
			"negative":      {append(evs[:7:7], -1), make([]float64, 8)},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("vector %v, %s: no panic", vec, name)
					}
				}()
				runTrain(vec, make([]complex128, 4), c.evs, c.ws, steps)
			}()
		}
	}
}

// fuzzWord reads the k-th little-endian 64-bit word of b, cycling through
// b so that any length of input yields as many words as asked.
func fuzzWord(b []byte, k int) uint64 {
	var w [8]byte
	for i := range w {
		if len(b) > 0 {
			w[i] = b[(8*k+i)%len(b)]
		}
	}
	return binary.LittleEndian.Uint64(w[:])
}

// FuzzAddTrain fuzzes the weights as raw float64 bits (NaN, ±Inf,
// subnormals), the step angles and the train and bin counts, and compares
// the vector sweep with the Go sweep bit for bit.
func FuzzAddTrain(f *testing.F) {
	f.Add(uint16(13), uint16(256), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}, []byte{1, 2, 3, 4, 5})
	f.Add(uint16(64), uint16(256), []byte{1, 0, 0, 0, 0, 0, 0, 0x80}, []byte{0, 0, 0, 0x40})
	f.Add(uint16(700), uint16(31), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 9, 9, 9}, []byte{0xff})
	f.Fuzz(func(t *testing.T, events, bins uint16, weights, angles []byte) {
		if !useAVX2 {
			t.Skip("the vector sweep cannot run: this host has no AVX2")
		}
		n, nb := int(events%1024), int(bins%320)
		evs := make([]int32, n)
		ws := make([]float64, n)
		steps := make([]complex128, n)
		for q := range evs {
			evs[q] = int32(n - 1 - q)
			ws[q] = math.Float64frombits(fuzzWord(weights, q))
			theta := float64(int16(fuzzWord(angles, q))) * math.Pi / 1024
			steps[q] = cmplx.Rect(1, theta)
		}
		dst := make([]complex128, nb)
		got, want := runTrain(true, dst, evs, ws, steps), runTrain(false, dst, evs, ws, steps)
		if bin, ok := sameBits(got, want); !ok {
			t.Fatalf("%d events, %d bins: bin %d is %v, the Go sweep's %v", n, nb, bin, got[bin], want[bin])
		}
	})
}

// BenchmarkAddTrain times one 136-event train over 256 bins per operation,
// on each sweep, and reports the cost per event-bin.
func BenchmarkAddTrain(b *testing.B) {
	const events, bins = 136, 256
	r := rand.New(rand.NewSource(1))
	evs := make([]int32, events)
	ws := make([]float64, events)
	steps := make([]complex128, events)
	for q := range evs {
		evs[q] = int32(q)
		ws[q] = r.Float64()
		steps[q] = cmplx.Rect(1, -2*math.Pi*r.Float64())
	}
	dst := make([]complex128, bins)
	for _, vec := range []bool{true, false} {
		name := "go"
		if vec {
			name = "vector"
		}
		b.Run(name, func(b *testing.B) {
			if vec && !useAVX2 {
				b.Skip("this host has no AVX2")
			}
			detected := useAVX2
			defer func() { useAVX2 = detected }()
			useAVX2 = vec
			for i := 0; i < b.N; i++ {
				AddTrain(dst, evs, ws, steps)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(events*bins), "ns/event-bin")
		})
	}
}
