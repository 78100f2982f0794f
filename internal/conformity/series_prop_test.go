package conformity

import (
	"math"
	"testing"

	"chassis/internal/rng"
)

// checkStance asserts the invariant every stance query must satisfy: the
// result is a real number in [-1, 1]. NaN here would silently zero out (or
// poison, depending on the link) the excitation of every event the pair
// touches, so the suite treats it as a hard failure, not a numeric quirk.
func checkStance(t *testing.T, got float64, ctx string) {
	t.Helper()
	if math.IsNaN(got) {
		t.Fatalf("%s: stance is NaN", ctx)
	}
	if got < -1 || got > 1 {
		t.Fatalf("%s: stance %v outside [-1, 1]", ctx, got)
	}
}

// TestCorrAtConstantPolarity covers the zero-variance edge cases: a pair
// that always posts the same polarity has an undefined Pearson correlation,
// and the series must fall back to sign-agreement instead of 0/0.
func TestCorrAtConstantPolarity(t *testing.T) {
	cases := []struct {
		name string
		x, y float64
		want float64
	}{
		{"always agree positive", 1, 1, 1},
		{"always agree negative", -1, -1, 1},
		{"always disagree", 1, -1, -1},
		{"silent pair", 0, 0, 0},
		{"one side silent", 1, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var samples []sample
			for k := 0; k < 8; k++ {
				samples = append(samples, sample{float64(k), c.x, c.y})
			}
			got := seriesOf(samples...).corrAt(100)
			checkStance(t, got, c.name)
			if got != c.want {
				t.Errorf("corrAt = %v, want sign-agreement %v", got, c.want)
			}
		})
	}
}

// TestCorrAtSinglePair: one sample is below the two-sample minimum for
// Pearson; the stance must still be defined (the sample's own agreement).
func TestCorrAtSinglePair(t *testing.T) {
	s := seriesOf(sample{1.0, 0.8, -0.6})
	got := s.corrAt(2.0)
	checkStance(t, got, "single pair")
	if got != -1 {
		t.Errorf("single disagreeing pair: corrAt = %v, want -1", got)
	}
	if before := s.corrAt(0.5); before != 0 {
		t.Errorf("query before first sample: corrAt = %v, want 0", before)
	}
}

// TestCorrAtNaNInput is the propagation contract: a NaN (or Inf) polarity
// entering the series must never surface as NaN from a stance query. A
// series fed only garbage reads as 0 — no measurable stance.
func TestCorrAtNaNInput(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		s := seriesOf(sample{1.0, v, 1}, sample{2.0, 1, v}, sample{3.0, v, v})
		if got := s.corrAt(10); got != 0 {
			t.Errorf("garbage-only series: corrAt = %v, want 0", got)
		}
	}
	// Garbage mixed into a healthy series must neither NaN the result nor
	// erase the finite samples around it.
	s := seriesOf(
		sample{1.0, 0.9, 0.8},
		sample{2.0, math.NaN(), 0.5},
		sample{3.0, -0.7, -0.6},
		sample{4.0, 0.4, math.Inf(1)},
		sample{5.0, 0.6, 0.7},
	)
	got := s.corrAt(10)
	checkStance(t, got, "mixed series")
	if got <= 0 {
		t.Errorf("three agreeing finite samples should dominate: corrAt = %v", got)
	}
}

// TestCorrAtPropertyRandom fuzzes the full surface with a seeded stream:
// arbitrary polarities (including injected NaN/Inf), arbitrary prefix
// cut-offs — the stance must always be a real number in [-1, 1], and
// prefix queries must be consistent with countAt.
func TestCorrAtPropertyRandom(t *testing.T) {
	r := rng.New(20260805)
	for trial := 0; trial < 200; trial++ {
		var samples []sample
		n := 1 + int(r.Float64()*30)
		tm := 0.0
		for k := 0; k < n; k++ {
			tm += r.Float64()
			x := 2*r.Float64() - 1
			y := 2*r.Float64() - 1
			switch {
			case r.Bernoulli(0.1):
				x = math.NaN()
			case r.Bernoulli(0.1):
				y = math.Inf(1)
			case r.Bernoulli(0.2):
				// Constant stretch: zero-variance windows mid-stream.
				x, y = 1, 1
			}
			samples = append(samples, sample{tm, x, y})
		}
		s := seriesOf(samples...)
		for q := 0; q < 8; q++ {
			at := r.Float64() * (tm + 1)
			checkStance(t, s.corrAt(at), "random series")
		}
		checkStance(t, s.corrAt(math.Inf(1)), "full-series query")
		if k := s.countAt(math.Inf(1)); k != s.len() {
			t.Fatalf("countAt(inf) = %d, want %d", k, s.len())
		}
	}
}

// TestDecaySumFiniteUnderGarbage: the influence-degree numerator shares the
// series and must stay finite too once samples are sanitized.
func TestDecaySumFiniteUnderGarbage(t *testing.T) {
	s := seriesOf(sample{1.0, math.NaN(), math.Inf(-1)}, sample{2.0, 1, 1})
	sum, dBeta := s.decaySumAt(3.0, 0.5)
	if math.IsNaN(sum) || math.IsNaN(dBeta) {
		t.Fatalf("decaySumAt poisoned: sum=%v dBeta=%v", sum, dBeta)
	}
	if sum <= 0 {
		t.Errorf("decay sum over two samples should be positive, got %v", sum)
	}
}
