package conformity

import (
	"math"
	"testing"
	"testing/quick"

	"chassis/internal/rng"
	"chassis/internal/stats"
)

// sample is one (time, x, y) series sample.
type sample struct{ t, x, y float64 }

// seriesOf builds one pair's series through the production column builder,
// pushing the samples in order.
func seriesOf(samples ...sample) series {
	store := newSeriesStore([]int32{int32(len(samples))})
	w := store.writer(0)
	for _, s := range samples {
		w.push(s.t, s.x, s.y)
	}
	return store.at(0)
}

func TestSeriesCountAt(t *testing.T) {
	s := seriesOf(sample{1, 0.5, 0.5}, sample{2, 0.5, 0.5}, sample{4, 0.5, 0.5})
	cases := []struct {
		t    float64
		want int
	}{{0.5, 0}, {1, 1}, {1.5, 1}, {2, 2}, {3.9, 2}, {4, 3}, {100, 3}}
	for _, c := range cases {
		if got := s.countAt(c.t); got != c.want {
			t.Errorf("countAt(%g) = %d, want %d", c.t, got, c.want)
		}
	}
	if s.len() != 3 {
		t.Errorf("len = %d", s.len())
	}
}

func TestSeriesCorrAtBlending(t *testing.T) {
	if seriesOf().corrAt(10) != 0 {
		t.Error("empty series must give 0")
	}
	s := seriesOf(sample{1, 0.5, 0.7}, sample{2, -0.4, -0.6})
	// One aligned sample: pure sign agreement = 1.
	approx(t, s.corrAt(1), 1, 1e-12, "single aligned sample")
	// An opposed sample next: Pearson is defined for k=2 (both sides
	// vary); with two points r = ±1, here x: .5,-.4 y: .7,-.6 → r=1, and
	// both samples agree in sign; blend (2·1+3·1)/5.
	approx(t, s.corrAt(2), (2*1.0+3*1.0)/5, 1e-12, "two aligned samples blend")
	// Zero product contributes 0 agreement.
	approx(t, seriesOf(sample{1, 0, 0.5}).corrAt(1), 0, 1e-12, "zero polarity gives zero agreement")
}

func TestSeriesCorrMatchesStatsPearsonAsymptotically(t *testing.T) {
	// With many samples the blend converges to Pearson.
	r := rng.New(3)
	var samples []sample
	var xs, ys []float64
	for i := 0; i < 400; i++ {
		x := r.Uniform(-1, 1)
		y := 0.7*x + 0.3*r.Uniform(-1, 1)
		samples = append(samples, sample{float64(i), x, y})
		xs = append(xs, x)
		ys = append(ys, y)
	}
	pcc, _ := stats.Pearson(xs, ys)
	got := seriesOf(samples...).corrAt(1e9)
	if math.Abs(got-pcc) > 0.02 {
		t.Errorf("blended corr %g should approach Pearson %g", got, pcc)
	}
}

func TestSeriesDecaySum(t *testing.T) {
	s := seriesOf(sample{1, 1, 1}, sample{3, 1, 1})
	beta := 0.5
	sum, dBeta := s.decaySumAt(4, beta)
	want := math.Exp(-beta*3) + math.Exp(-beta*1)
	approx(t, sum, want, 1e-12, "decay sum")
	wantD := -(3*math.Exp(-beta*3) + 1*math.Exp(-beta*1))
	approx(t, dBeta, wantD, 1e-12, "decay sum derivative")
	// Before any samples: zero.
	sum, dBeta = s.decaySumAt(0.5, beta)
	if sum != 0 || dBeta != 0 {
		t.Error("decay sum before samples must be 0")
	}
}

// Property: corrAt is always in [-1, 1] and countAt is monotone in t.
func TestSeriesProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		var samples []sample
		tm := 0.0
		n := r.Intn(50)
		for i := 0; i < n; i++ {
			tm += r.Exp(1)
			samples = append(samples, sample{tm, r.Uniform(-1, 1), r.Uniform(-1, 1)})
		}
		s := seriesOf(samples...)
		prev := -1
		for q := 0.0; q < tm+2; q += 0.37 {
			c := s.corrAt(q)
			if c < -1-1e-12 || c > 1+1e-12 || math.IsNaN(c) {
				return false
			}
			k := s.countAt(q)
			if k < prev {
				return false
			}
			prev = k
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
