package core

import (
	"fmt"
	"testing"

	"chassis/internal/cascade"
	"chassis/internal/conformity"
	"chassis/internal/timeline"
)

// benchFixture builds a fitted model plus a stripped work sequence large
// enough to span many E-step chunks (Horizon 6000 yields a few thousand
// events, i.e. 4+ production-width shards).
func benchFixture(b *testing.B) (*Model, *timeline.Sequence, *conformity.Computer) {
	b.Helper()
	d, err := cascade.Generate(cascade.Config{
		Name: "bench", M: 24, Horizon: 6000, Seed: 7,
		Graph: cascade.BarabasiAlbert, GraphDegree: 2, Reciprocity: 0.5,
		Topics: 2, BaseRateLo: 0.01, BaseRateHi: 0.03,
		KernelRate: 0.8, TargetBranching: 0.55,
		ConformityWeight: 0.7, PolarityNoise: 0.15, LikeFraction: 0.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := quickCfg(VariantL)
	cfg.EMIters = 2
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		b.Fatal(err)
	}
	work := d.Seq.StripParents()
	conf, err := conformity.New(work, m.Forest, m.cfg.Conformity)
	if err != nil {
		b.Fatal(err)
	}
	return m, work, conf
}

// BenchmarkEStepWorkers times the sharded E-step in isolation (MAP mode,
// so no RNG variance between iterations) at increasing worker counts. On a
// multi-core box throughput should scale until the chunk count or memory
// bandwidth saturates; on any box the outputs are bit-identical — the
// determinism suite, not this benchmark, enforces that.
func BenchmarkEStepWorkers(b *testing.B) {
	m, work, conf := benchFixture(b)
	b.Logf("events: %d", work.Len())
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m.SetWorkers(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.eStepMode(nil, newSeqSource(work), conf, true, nil, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBootstrapWorkers times the other sharded sampler: the
// initialization forest draw.
func BenchmarkBootstrapWorkers(b *testing.B) {
	m, work, _ := benchFixture(b)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			m.SetWorkers(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.bootstrapForest(nil, newSeqSource(work)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
