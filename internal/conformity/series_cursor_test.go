package conformity

import (
	"math"
	"testing"
	"testing/quick"

	"chassis/internal/rng"
)

// naiveDecaySum is the pre-recursion reference: rescan every sample with
// time ≤ t. Kept in the tests as the oracle the O(k + q) recursion cursor is
// pinned against.
func naiveDecaySum(s series, t, beta float64) (sum, dBeta float64) {
	k := s.countAt(t)
	for idx := 0; idx < k; idx++ {
		dt := t - s.times[idx]
		e := math.Exp(-beta * dt)
		sum += e
		dBeta -= dt * e
	}
	return sum, dBeta
}

// TestDecaySumMatchesNaiveScan pins the recursion accumulator against the
// naive rescan at 1e-12 across random β/t sweeps, including queries exactly
// on sample times (the tie rule), between samples, and before the first.
func TestDecaySumMatchesNaiveScan(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		var samples []sample
		tm := 0.0
		n := r.Intn(80) + 1
		for i := 0; i < n; i++ {
			if i == 0 || !r.Bernoulli(0.15) {
				tm += r.Exp(2) // otherwise a duplicate timestamp
			}
			samples = append(samples, sample{tm, r.Uniform(-1, 1), r.Uniform(-1, 1)})
		}
		s := seriesOf(samples...)
		for trial := 0; trial < 8; trial++ {
			beta := r.Uniform(0.01, 20)
			q := r.Uniform(-1, tm+3)
			if r.Bernoulli(0.3) {
				q = s.times[r.Intn(s.len())] // query exactly on a sample
			}
			sum, dB := s.decaySumAt(q, beta)
			wantS, wantD := naiveDecaySum(s, q, beta)
			// Relative-ish tolerance: dBeta magnitudes reach ~n·max(dt).
			tol := 1e-12 * (1 + math.Abs(wantD))
			if math.Abs(sum-wantS) > tol || math.Abs(dB-wantD) > tol {
				t.Logf("seed %d: decaySumAt(%g, β=%g) = (%g, %g), naive (%g, %g)",
					seed, q, beta, sum, dB, wantS, wantD)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestDecayCursorMatchesOneShot: a monotone sweep through one cursor must
// give bit-identical results to independent decaySumAt calls — the property
// that lets the M-step objective swap per-query evaluation for cursors
// without changing any fitted float.
func TestDecayCursorMatchesOneShot(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		var samples []sample
		tm := 0.0
		for i, n := 0, r.Intn(60)+1; i < n; i++ {
			tm += r.Exp(1)
			samples = append(samples, sample{tm, r.Uniform(-1, 1), r.Uniform(-1, 1)})
		}
		s := seriesOf(samples...)
		beta := r.Uniform(0.01, 20)
		cur := s.cursor(beta)
		q := -0.5
		for trial := 0; trial < 40; trial++ {
			q += r.Exp(4) // nondecreasing query times
			gotS, gotD := cur.At(q)
			wantS, wantD := s.decaySumAt(q, beta)
			if math.Float64bits(gotS) != math.Float64bits(wantS) ||
				math.Float64bits(gotD) != math.Float64bits(wantD) {
				t.Logf("seed %d: cursor at %g = (%g, %g), one-shot (%g, %g)",
					seed, q, gotS, gotD, wantS, wantD)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestDecaySumFiniteUnderGarbage: non-finite polarities never reach the
// decay sum (only timestamps matter), and the result stays finite for any
// finite query.
func TestDecaySumCursorFiniteUnderGarbage(t *testing.T) {
	s := seriesOf(
		sample{1, math.NaN(), 0.5},
		sample{1, math.Inf(1), math.Inf(-1)},
		sample{2, 0.3, math.NaN()},
	)
	for _, beta := range []float64{0.01, 1, 20} {
		cur := s.cursor(beta)
		for _, q := range []float64{0, 1, 1.5, 2, 100} {
			sum, dB := cur.At(q)
			if math.IsNaN(sum) || math.IsInf(sum, 0) || math.IsNaN(dB) || math.IsInf(dB, 0) {
				t.Fatalf("non-finite decay sum (%g, %g) at t=%g β=%g", sum, dB, q, beta)
			}
		}
	}
}

// TestCountAtTieHandling is the property test for countAt's Nextafter upper
// bound: with runs of EQUAL timestamps, a query exactly at the tied time
// must count the whole run, a query one ulp below none of it, and one ulp
// above exactly the same (no sample lives strictly between t and
// Nextafter(t)). The decay cursor must consume ties under the same rule.
func TestCountAtTieHandling(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		var samples []sample
		tm := 0.0
		type run struct {
			t float64
			n int
		}
		var runs []run
		for i, k := 0, r.Intn(8)+1; i < k; i++ {
			tm += r.Exp(1)
			n := r.Intn(4) + 1
			for j := 0; j < n; j++ {
				samples = append(samples, sample{tm, r.Uniform(-1, 1), r.Uniform(-1, 1)})
			}
			runs = append(runs, run{t: tm, n: n})
		}
		s := seriesOf(samples...)
		total := 0
		for _, ru := range runs {
			below := s.countAt(math.Nextafter(ru.t, math.Inf(-1)))
			if below != total {
				return false
			}
			total += ru.n
			at := s.countAt(ru.t)
			above := s.countAt(math.Nextafter(ru.t, math.Inf(1)))
			if at != total || above != total {
				return false
			}
			// The cursor's tie rule must agree: at the tied time the decayed
			// sum includes the whole run (each tied sample at weight e⁰ = 1).
			beta := r.Uniform(0.01, 5)
			sum, _ := s.decaySumAt(ru.t, beta)
			wantS, _ := naiveDecaySum(s, ru.t, beta)
			if math.Abs(sum-wantS) > 1e-12*(1+wantS) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPairMatchesGrad: the pair handle's β-free factors, combined with one
// decay cursor over a monotone query sweep, are bit-identical to
// InformationalGrad, and its Normative to Computer.Normative.
func TestPairMatchesGrad(t *testing.T) {
	seq, f := fixture(t)
	c, err := New(seq, f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, beta := range []float64{0.01, 0.5, 3, 20} {
		for i := 0; i < seq.M; i++ {
			for j := 0; j < seq.M; j++ {
				p := c.Pair(i, j)
				cur := p.Decay(beta)
				for q := 0.0; q <= seq.Horizon; q += 0.25 {
					inv, psi := p.Factors(q)
					gotA, gotD := cur.Informational(q, inv, psi)
					wantA, wantD := c.InformationalGrad(i, j, q, beta)
					if math.Float64bits(gotA) != math.Float64bits(wantA) ||
						math.Float64bits(gotD) != math.Float64bits(wantD) {
						t.Fatalf("pair(%d,%d) at %g, β=%g: (%g, %g), want (%g, %g)",
							i, j, q, beta, gotA, gotD, wantA, wantD)
					}
					if got, want := p.Normative(q), c.Normative(i, j, q); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("pair(%d,%d).Normative(%g) = %g, want %g", i, j, q, got, want)
					}
				}
			}
		}
	}
}
