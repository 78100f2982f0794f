package conformity

import (
	"testing"

	"chassis/internal/branching"
	"chassis/internal/cascade"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

// benchCorpus streams one SF-density corpus sized like the
// fit-chassis-sharded benchmark's (the paper-scale generator rebased to 600
// users over a 1,500-unit horizon, about 3,600 events). Its forest is shaped
// like a fitted model's MAP readout rather than the generator's own, much
// sparser trees: each event attaches to one of the 16 events before it with
// probability 0.96, giving about 150 trees of tens to hundreds of events.
func benchCorpus(b *testing.B) (*timeline.Sequence, *branching.Forest) {
	b.Helper()
	cfg := cascade.PaperScale(100)
	cfg.M = 600
	cfg.Horizon = 1500
	cfg.MaxEvents = 1 << 30
	seq := &timeline.Sequence{M: cfg.M, Horizon: cfg.Horizon}
	if _, err := cascade.GenerateStream(cfg, 8192, func(batch []timeline.Activity) error {
		seq.Activities = append(seq.Activities, batch...)
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	r := rng.New(100)
	parents := make([]int32, seq.Len())
	for k := range parents {
		parents[k] = -1
		if k > 0 && r.Bernoulli(0.96) {
			parents[k] = int32(k - 1 - r.Intn(min(k, 16)))
		}
	}
	f, err := branching.FromParents32(parents)
	if err != nil {
		b.Fatal(err)
	}
	return seq, f
}

var (
	benchComputer *Computer
	benchAlpha    float64
)

// BenchmarkConformityBuild times one full build — what every conformity
// refresh of a fit, LoadModel and a held-out rebind pay. Run with -benchmem.
func BenchmarkConformityBuild(b *testing.B) {
	seq, f := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		c, err := New(seq, f, Options{})
		if err != nil {
			b.Fatal(err)
		}
		benchComputer = c
	}
}

// BenchmarkConformityQuery times the point queries the serving path issues
// per predicted event, Informational plus Normative, alternating a pair with
// samples and one without, each at an event time.
func BenchmarkConformityQuery(b *testing.B) {
	seq, f := benchCorpus(b)
	c, err := New(seq, f, Options{})
	if err != nil {
		b.Fatal(err)
	}
	active := c.ActivePairs()
	isActive := make(map[PairKey]bool, len(active))
	for _, p := range active {
		isActive[p] = true
	}
	type query struct {
		i, j int
		t    float64
	}
	r := rng.New(7)
	var qs []query
	for len(qs) < 4096 {
		tm := seq.Activities[r.Intn(seq.Len())].Time
		hit := active[r.Intn(len(active))]
		qs = append(qs, query{hit.Receiver, hit.Source, tm})
		for {
			miss := PairKey{Receiver: r.Intn(seq.M), Source: r.Intn(seq.M)}
			if !isActive[miss] {
				qs = append(qs, query{miss.Receiver, miss.Source, tm})
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sum := 0.0
	for n := 0; n < b.N; n++ {
		q := qs[n%len(qs)]
		sum += c.Informational(q.i, q.j, q.t, 0.5) + c.Normative(q.i, q.j, q.t)
	}
	benchAlpha = sum
}
