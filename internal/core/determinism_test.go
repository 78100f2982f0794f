package core

import (
	"runtime"
	"testing"

	"chassis/internal/timeline"
)

// fitSummary is the full set of fitted quantities the determinism suite
// compares bit-for-bit: parameters, the inferred branching structure, and
// the reported likelihood history.
type fitSummary struct {
	mu      []float64
	beta    [][]float64
	gammaI  [][]float64
	gammaN  [][]float64
	alpha   [][]float64
	parents []timeline.ActivityID
	history []float64
}

// forceSmallChunks shrinks the E-step shard width for the duration of a
// test. The small fixtures (~230 events) fit inside one production-sized
// chunk, which would leave the multi-chunk path — per-chunk RNG streams,
// window re-seeks, seam handling — untested; at width 48 they span five.
func forceSmallChunks(t *testing.T, size int) {
	t.Helper()
	old := estepChunkSize
	estepChunkSize = size
	t.Cleanup(func() { estepChunkSize = old })
}

func summarize(m *Model) fitSummary {
	mir := mirrorOf(m)
	return fitSummary{
		mu: m.Mu, beta: mir.beta, gammaI: mir.gammaI, gammaN: mir.gammaN,
		alpha: mir.alpha, parents: m.Forest.Parents(), history: m.History,
	}
}

func matEqual(t *testing.T, name string, a, b [][]float64) {
	t.Helper()
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Errorf("%s[%d][%d] differs: %v vs %v", name, i, j, a[i][j], b[i][j])
				return
			}
		}
	}
}

func assertSummariesIdentical(t *testing.T, want, got fitSummary) {
	t.Helper()
	for i := range want.mu {
		if want.mu[i] != got.mu[i] {
			t.Errorf("Mu[%d] differs: %v vs %v", i, want.mu[i], got.mu[i])
			break
		}
	}
	matEqual(t, "Beta", want.beta, got.beta)
	matEqual(t, "GammaI", want.gammaI, got.gammaI)
	matEqual(t, "GammaN", want.gammaN, got.gammaN)
	matEqual(t, "Alpha", want.alpha, got.alpha)
	if len(want.parents) != len(got.parents) {
		t.Fatalf("forest sizes differ: %d vs %d", len(want.parents), len(got.parents))
	}
	for k := range want.parents {
		if want.parents[k] != got.parents[k] {
			t.Errorf("parent[%d] differs: %d vs %d", k, want.parents[k], got.parents[k])
			break
		}
	}
	if len(want.history) != len(got.history) {
		t.Fatalf("history lengths differ: %d vs %d", len(want.history), len(got.history))
	}
	for i := range want.history {
		if want.history[i] != got.history[i] {
			t.Errorf("history[%d] differs: %v vs %v", i, want.history[i], got.history[i])
			break
		}
	}
}

// TestFitDeterminismAcrossWorkers is the contract the parallel refactor
// must honor: the same seeded fit — sampled E-steps, warm start, tracked
// likelihoods and all — produces bit-identical parameters and parent
// forests at every worker count. Chunk boundaries and per-chunk RNG
// streams depend only on the data, so Workers=8 on a one-core box and
// Workers=1 on a sixty-four-core box agree exactly.
func TestFitDeterminismAcrossWorkers(t *testing.T) {
	cases := []struct {
		name    string
		variant Variant
		emIters int
	}{
		{"CHASSIS-L", VariantL, 3},
		{"L-HP", VariantLHP, 3},
		{"CHASSIS-E", VariantE, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			forceSmallChunks(t, 48)
			d := smallDataset(t, 77)
			fitAt := func(workers int) fitSummary {
				cfg := quickCfg(c.variant)
				cfg.EMIters = c.emIters
				cfg.TrackHistory = true
				cfg.Workers = workers
				m, err := Fit(d.Seq, cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				return summarize(m)
			}
			want := fitAt(1)
			for _, workers := range []int{2, 8} {
				got := fitAt(workers)
				assertSummariesIdentical(t, want, got)
			}
		})
	}
}

// TestFitDeterminismAcrossGOMAXPROCS pins the other half of the guarantee:
// the default Workers=0 resolves to GOMAXPROCS, and the result must not
// depend on what GOMAXPROCS happens to be.
func TestFitDeterminismAcrossGOMAXPROCS(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 78)
	fit := func() fitSummary {
		cfg := quickCfg(VariantL)
		cfg.EMIters = 3
		cfg.TrackHistory = true
		m, err := Fit(d.Seq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return summarize(m)
	}
	want := fit()
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	got := fit()
	runtime.GOMAXPROCS(old)
	got2 := fit()
	assertSummariesIdentical(t, want, got)
	assertSummariesIdentical(t, want, got2)
}

// TestEStepDeterminismAcrossWorkers isolates the sharded E-step itself:
// sampled (non-MAP) assignments against a previous forest — the path that
// consumes the most randomness — must be identical at any worker count.
func TestEStepDeterminismAcrossWorkers(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 79)
	cfg := quickCfg(VariantL)
	cfg.EMIters = 2
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	work := d.Seq.StripParents()
	run := func(workers int) []timeline.ActivityID {
		m.cfg.Workers = workers
		m.estepCalls = 1000 // pin the E-step RNG label across runs
		f, err := m.eStepMode(nil, newSeqSource(work), m.Conf, false, m.Forest, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		m.estepCalls = 1000
		f2, err := m.eStepMode(nil, newSeqSource(work), m.Conf, false, m.Forest, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Same call, same stream: the E-step itself must be reproducible.
		pa, pb := f.Parents(), f2.Parents()
		for k := range pa {
			if pa[k] != pb[k] {
				t.Fatalf("workers=%d: E-step not reproducible at event %d", workers, k)
			}
		}
		return pa
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for k := range want {
			if want[k] != got[k] {
				t.Fatalf("workers=%d: parent[%d] = %d, want %d", workers, k, got[k], want[k])
			}
		}
	}
}

// TestInferForestDeterminismAfterSetWorkers checks the public retuning
// path: changing parallelism on a fitted model must not change inference.
func TestInferForestDeterminismAfterSetWorkers(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 80)
	cfg := quickCfg(VariantL)
	cfg.EMIters = 2
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2 := smallDataset(t, 81)
	base := m.estepCalls
	m.SetWorkers(1)
	f1, err := m.InferForest(d2.Seq)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWorkers(8)
	m.estepCalls = base // realign the E-step streams with the first call
	f8, err := m.InferForest(d2.Seq)
	if err != nil {
		t.Fatal(err)
	}
	p1, p8 := f1.Parents(), f8.Parents()
	for k := range p1 {
		if p1[k] != p8[k] {
			t.Fatalf("parent[%d] differs after SetWorkers: %d vs %d", k, p1[k], p8[k])
		}
	}
}
