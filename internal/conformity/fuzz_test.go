package conformity

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzConformitySeries drives arbitrary byte streams — decoded as (Δt, x, y)
// sample triples plus a query schedule — through the column builder's
// series prefix structures and holds them to their contracts:
//   - push never panics, whatever the polarities (NaN/Inf on either side
//     are sanitized to a voided (0,0) sample; timestamps are kept).
//   - corrAt stays in [-1, 1] and is never NaN.
//   - countAt is monotone in t and respects the Nextafter tie bound.
//   - decaySumAt (the recursion cursor) matches the naive rescan, stays
//     finite, has sum ≥ 0 and dBeta ≤ 0.
//
// Negative or NaN Δt would make the stream non-chronological, which push's
// contract excludes — the fuzzer clamps those to 0 (a duplicate timestamp,
// the hardest legal case for the tie rule).
func FuzzConformitySeries(f *testing.F) {
	mk := func(vals ...float64) []byte {
		out := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return out
	}
	// Clean two samples.
	f.Add(0.7, mk(1, 0.5, 0.6, 2, -0.4, -0.3))
	// NaN/Inf polarities, both sides.
	f.Add(1.0, mk(1, math.NaN(), 0.5, 0.5, math.Inf(1), math.Inf(-1), 0, 0.3, math.NaN()))
	// Duplicate timestamps (Δt = 0 runs).
	f.Add(2.0, mk(1, 0.1, 0.2, 0, 0.3, 0.4, 0, -0.5, 0.6))
	// Huge decay rate, subnormal gaps.
	f.Add(19.9, mk(1e-308, 1, 1, 1e-308, -1, 1))
	f.Add(0.01, []byte(nil))

	f.Fuzz(func(t *testing.T, beta float64, data []byte) {
		if math.IsNaN(beta) || beta <= 0 || beta > 64 {
			beta = 1 // decay rates live in the M-step's [0.01, 20] box
		}
		if len(data) > 8*3*512 {
			data = data[:8*3*512]
		}
		var samples []sample
		tm := 0.0
		for len(data) >= 24 {
			dt := math.Float64frombits(binary.LittleEndian.Uint64(data[0:]))
			x := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(data[16:]))
			data = data[24:]
			if math.IsNaN(dt) || dt < 0 {
				dt = 0
			} else if dt > 1e9 {
				dt = 1e9
			}
			tm += dt
			samples = append(samples, sample{tm, x, y})
		}
		s := seriesOf(samples...)

		prev := -1
		cur := s.cursor(beta)
		q := -1.0
		for step := 0; step <= s.len()+3; step++ {
			// Sweep through every sample time plus off-sample points.
			if step < s.len() {
				q = s.times[step]
			} else {
				q += 0.75
			}
			k := s.countAt(q)
			if k < prev || k > s.len() {
				t.Fatalf("countAt(%g) = %d not monotone (prev %d, len %d)", q, k, prev, s.len())
			}
			prev = k
			if below := s.countAt(math.Nextafter(q, math.Inf(-1))); below > k {
				t.Fatalf("countAt tie bound violated at %g: below=%d > at=%d", q, below, k)
			}
			c := s.corrAt(q)
			if math.IsNaN(c) || c < -1-1e-12 || c > 1+1e-12 {
				t.Fatalf("corrAt(%g) = %g outside [-1, 1]", q, c)
			}
			sum, dB := s.decaySumAt(q, beta)
			if math.IsNaN(sum) || math.IsInf(sum, 0) || sum < 0 || math.IsNaN(dB) || dB > 0 {
				t.Fatalf("decaySumAt(%g, %g) = (%g, %g) out of contract", q, beta, sum, dB)
			}
			wantS, wantD := naiveDecaySum(s, q, beta)
			tol := 1e-9 * (1 + math.Abs(wantD))
			if math.Abs(sum-wantS) > tol || math.Abs(dB-wantD) > tol {
				t.Fatalf("recursion diverged from naive at t=%g β=%g: (%g, %g) vs (%g, %g)",
					q, beta, sum, dB, wantS, wantD)
			}
			cs, cd := cur.At(q)
			if math.Float64bits(cs) != math.Float64bits(sum) || math.Float64bits(cd) != math.Float64bits(dB) {
				t.Fatalf("cursor diverged from one-shot at t=%g", q)
			}
		}
	})
}
