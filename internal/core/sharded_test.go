package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"chassis/internal/checkpoint"
	"chassis/internal/colstore"
	"chassis/internal/faultinject"
	"chassis/internal/guard"
	"chassis/internal/kernel"
	"chassis/internal/obs"
	"chassis/internal/timeline"
)

// writeCorpusFile converts a sequence to a colstore file in uneven append
// batches (so multi-batch writer paths run) and returns the path.
func writeCorpusFile(t *testing.T, seq *timeline.Sequence, batch int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.colstore")
	w, err := colstore.Create(path, colstore.Meta{Name: "unit", M: seq.M, Horizon: seq.Horizon})
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(seq.Activities); lo += batch {
		hi := min(lo+batch, len(seq.Activities))
		if err := w.Append(seq.Activities[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func openCorpus(t *testing.T, path string) *colstore.Reader {
	t.Helper()
	rd, err := colstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rd.Close() })
	return rd
}

// shardableCfg is the supported-subset config the identity tests fit with.
func shardableCfg() Config {
	cfg := quickCfg(VariantLHP)
	cfg.FixedKernel = true
	return cfg
}

// TestShardedFitMatchesInMemory is the tentpole acceptance contract: the
// out-of-core colstore fit produces a fingerprint-equal model (parameters
// and forest bit-identical) to the in-memory fit of the same corpus, at
// every worker count × shard size combination — shards of one scheduling
// chunk, uneven multi-chunk shards, and one shard holding everything.
func TestShardedFitMatchesInMemory(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 41)
	cfg := shardableCfg()

	ref, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()

	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 57))
	n := rd.NumEvents()
	if n != d.Seq.Len() {
		t.Fatalf("corpus holds %d events, sequence %d", n, d.Seq.Len())
	}
	for _, workers := range []int{1, 2, 8} {
		for _, shard := range []int{1, 130, n} {
			c := cfg
			c.Workers = workers
			c.ShardEvents = shard
			m, err := FitSharded(context.Background(), rd, c)
			if err != nil {
				t.Fatalf("workers=%d shard=%d: %v", workers, shard, err)
			}
			if got := m.Fingerprint(); got != want {
				t.Errorf("workers=%d shard=%d: fingerprint %s, in-memory %s", workers, shard, got, want)
			}
			for i := range ref.Mu {
				if m.Mu[i] != ref.Mu[i] {
					t.Fatalf("workers=%d shard=%d: Mu[%d] = %v, want %v", workers, shard, i, m.Mu[i], ref.Mu[i])
				}
			}
			gotP, wantP := m.Forest.Parents(), ref.Forest.Parents()
			for k := range wantP {
				if gotP[k] != wantP[k] {
					t.Fatalf("workers=%d shard=%d: parent[%d] = %d, want %d", workers, shard, k, gotP[k], wantP[k])
				}
			}
		}
	}
}

// TestShardedFitExpKernel covers the parametric-exponential-kernel flavor of
// the identity contract (the config the serve layer's fast paths want).
func TestShardedFitExpKernel(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 43)
	cfg := quickCfg(VariantLHP)
	cfg.ExpKernel = true

	ref, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 200))
	c := cfg
	c.ShardEvents = 100
	c.Workers = 2
	m, err := FitSharded(context.Background(), rd, c)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Fingerprint(), ref.Fingerprint(); got != want {
		t.Errorf("exp-kernel sharded fingerprint %s, in-memory %s", got, want)
	}
}

// TestShardedRejectsUnsupported pins the gate: every feature that still
// needs the in-memory sequence fails fast with *ShardedUnsupportedError
// carrying a feature message specific enough to act on. Every variant and
// kernel passes the gate; the identity suites
// (TestShardedNonparametricMatchesInMemory,
// TestShardedNonlinearMatchesInMemory) cover them.
func TestShardedRejectsUnsupported(t *testing.T) {
	d := smallDataset(t, 44)
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 500))
	cases := []struct {
		name string
		mut  func(*Config)
		want string // substring of the typed error's Feature
	}{
		{"observed-trees", func(c *Config) { c.UseObservedTrees = true }, "UseObservedTrees"},
		{"track-history", func(c *Config) { c.TrackHistory = true }, "TrackHistory"},
		{"guard", func(c *Config) { c.Guard = guard.Policy{Enabled: true} }, "numerical guard"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardableCfg()
			tc.mut(&cfg)
			_, err := FitSharded(context.Background(), rd, cfg)
			var ue *ShardedUnsupportedError
			if !errors.As(err, &ue) {
				t.Fatalf("got %v, want *ShardedUnsupportedError", err)
			}
			if !strings.Contains(ue.Feature, tc.want) {
				t.Fatalf("feature %q does not mention %q", ue.Feature, tc.want)
			}
		})
	}
	if _, err := FitSharded(context.Background(), nil, shardableCfg()); err == nil {
		t.Error("nil reader must fail")
	}
}

// TestShardedNonparametricMatchesInMemory extends the identity contract to
// nonparametric kernel updates, whose spectral pass reads the event
// columns: L-HP and the linear conformity variants fitted by FitSharded
// match Fit's fingerprint, and every re-estimated kernel bit for bit, at
// every worker count × shard size.
func TestShardedNonparametricMatchesInMemory(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 52)
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 57))
	n := rd.NumEvents()
	for _, v := range []Variant{VariantLHP, VariantL, VariantLI, VariantLN} {
		t.Run(v.Name(), func(t *testing.T) {
			cfg := quickCfg(v)
			ref, err := Fit(d.Seq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if estimatedKernels(ref) == 0 {
				t.Fatal("the in-memory fit re-estimated no kernel")
			}
			for _, workers := range []int{1, 2, 8} {
				for _, shard := range []int{1, 130, n} {
					c := cfg
					c.Workers = workers
					c.ShardEvents = shard
					m, err := FitSharded(context.Background(), rd, c)
					if err != nil {
						t.Fatalf("workers=%d shard=%d: %v", workers, shard, err)
					}
					if got, want := m.Fingerprint(), ref.Fingerprint(); got != want {
						t.Errorf("workers=%d shard=%d: fingerprint %s, in-memory %s", workers, shard, got, want)
					}
					if err := kernelBitsDiff(m.Kernels, ref.Kernels); err != nil {
						t.Errorf("workers=%d shard=%d: %v", workers, shard, err)
					}
				}
			}
		})
	}
}

// estimatedKernels counts m's kernels on the kernel pass's 256-bin grid:
// the ones the nonparametric estimate re-estimated.
func estimatedKernels(m *Model) int {
	n := 0
	for _, k := range m.Kernels {
		if dk, ok := k.(*kernel.Discrete); ok && dk.Step == m.Horizon/256 {
			n++
		}
	}
	return n
}

// TestShardedNonlinearMatchesInMemory extends the identity contract to the
// nonlinear links, whose M-step adds Euler-grid windows from each
// dimension's source events: E-HP and CHASSIS-E/EI/EN, with nonparametric
// and exponential kernels, fitted by FitSharded match Fit's fingerprint, and
// every kernel bit for bit, at every worker count × shard size.
func TestShardedNonlinearMatchesInMemory(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 53)
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 57))
	n := rd.NumEvents()
	for _, v := range []Variant{VariantEHP, VariantE, VariantEI, VariantEN} {
		for _, expKernel := range []bool{false, true} {
			name := v.Name() + "/nonparametric"
			if expKernel {
				name = v.Name() + "/exp-kernel"
			}
			t.Run(name, func(t *testing.T) {
				cfg := quickCfg(v)
				cfg.ExpKernel = expKernel
				ref, err := Fit(d.Seq, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !expKernel && estimatedKernels(ref) == 0 {
					t.Fatal("the in-memory fit re-estimated no kernel")
				}
				for _, workers := range []int{1, 2, 8} {
					for _, shard := range []int{1, 130, n} {
						c := cfg
						c.Workers = workers
						c.ShardEvents = shard
						m, err := FitSharded(context.Background(), rd, c)
						if err != nil {
							t.Fatalf("workers=%d shard=%d: %v", workers, shard, err)
						}
						if got, want := m.Fingerprint(), ref.Fingerprint(); got != want {
							t.Errorf("workers=%d shard=%d: fingerprint %s, in-memory %s", workers, shard, got, want)
						}
						if err := kernelBitsDiff(m.Kernels, ref.Kernels); err != nil {
							t.Errorf("workers=%d shard=%d: %v", workers, shard, err)
						}
					}
				}
			})
		}
	}
}

// TestShardedConformityFitMatchesInMemory extends the identity contract to
// the lifted conformity-aware subset: the streamed per-iteration conformity
// rebuild (colstore scan → accumulator → column-built computer) plus the
// sharded L-HP warm-start pilot must reproduce the in-memory CHASSIS-L fit
// bit for bit at every worker count × shard size.
func TestShardedConformityFitMatchesInMemory(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 48)
	cfg := quickCfg(VariantL)
	cfg.FixedKernel = true

	ref, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Fingerprint()

	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 57))
	n := rd.NumEvents()
	for _, workers := range []int{1, 2, 8} {
		for _, shard := range []int{1, 130, n} {
			c := cfg
			c.Workers = workers
			c.ShardEvents = shard
			m, err := FitSharded(context.Background(), rd, c)
			if err != nil {
				t.Fatalf("workers=%d shard=%d: %v", workers, shard, err)
			}
			if got := m.Fingerprint(); got != want {
				t.Errorf("workers=%d shard=%d: fingerprint %s, in-memory %s", workers, shard, got, want)
			}
			if m.Conf == nil {
				t.Fatalf("workers=%d shard=%d: sharded conformity fit carries no final conformity state", workers, shard)
			}
		}
	}
}

// TestShardedConformityFlavors covers the remaining lifted combinations with
// one fingerprint identity check each: the single-channel linear variants
// (informational-only, normative-only) and the parametric-exponential-kernel
// flavor of CHASSIS-L.
func TestShardedConformityFlavors(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 49)
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 200))
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"informational-only", func(c *Config) { c.Variant = VariantLI }},
		{"normative-only", func(c *Config) { c.Variant = VariantLN }},
		{"exp-kernel", func(c *Config) { c.FixedKernel = false; c.ExpKernel = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(VariantL)
			cfg.FixedKernel = true
			tc.mut(&cfg)
			ref, err := Fit(d.Seq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			c := cfg
			c.Workers = 2
			c.ShardEvents = 100
			m, err := FitSharded(context.Background(), rd, c)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := m.Fingerprint(), ref.Fingerprint(); got != want {
				t.Errorf("sharded fingerprint %s, in-memory %s", got, want)
			}
		})
	}
}

// TestShardedCrashResume kills a checkpointing sharded fit mid-run and
// resumes it — under a different worker count AND shard size — expecting the
// final model to be fingerprint-equal to an uninterrupted run.
func TestShardedCrashResume(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 45)
	cfg := shardableCfg()
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 300))

	base, err := FitSharded(context.Background(), rd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Fingerprint()

	dir := t.TempDir()
	cc := cfg
	cc.CheckpointDir = dir
	cc.CheckpointEvery = 1
	cc.Workers = 2
	cc.ShardEvents = 100
	faultinject.CrashAfterIter = func(iter int) bool { return iter == 2 }
	_, err = FitSharded(context.Background(), rd, cc)
	faultinject.Reset()
	if !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("crash-at-2 sharded fit: got %v, want ErrInjectedCrash", err)
	}

	cc.Resume = true
	cc.Workers = 1
	cc.ShardEvents = 1
	m, err := FitSharded(context.Background(), rd, cc)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Fingerprint(); got != want {
		t.Errorf("resumed sharded fingerprint %s, uninterrupted %s", got, want)
	}
}

// TestShardedConformityCrashResume is the crash-resume contract for the
// conformity-aware variants, linear and nonlinear link: the resumed fit
// rebuilds its conformity snapshot from the checkpointed forest before
// continuing, so the final model matches an uninterrupted run even across a
// worker-count and shard-size change.
func TestShardedConformityCrashResume(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 51)
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 300))
	for _, v := range []Variant{VariantL, VariantE} {
		t.Run(v.Name(), func(t *testing.T) {
			cfg := quickCfg(v)
			cfg.FixedKernel = true

			base, err := FitSharded(context.Background(), rd, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := base.Fingerprint()

			dir := t.TempDir()
			cc := cfg
			cc.CheckpointDir = dir
			cc.CheckpointEvery = 1
			cc.Workers = 2
			cc.ShardEvents = 100
			faultinject.CrashAfterIter = func(iter int) bool { return iter == 2 }
			_, err = FitSharded(context.Background(), rd, cc)
			faultinject.Reset()
			if !errors.Is(err, faultinject.ErrInjectedCrash) {
				t.Fatalf("crash-at-2 conformity sharded fit: got %v, want ErrInjectedCrash", err)
			}

			cc.Resume = true
			cc.Workers = 1
			cc.ShardEvents = 1
			m, err := FitSharded(context.Background(), rd, cc)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Fingerprint(); got != want {
				t.Errorf("resumed conformity sharded fingerprint %s, uninterrupted %s", got, want)
			}
		})
	}
}

// TestShardedRejectsForeignCheckpoint: a checkpoint written by the in-memory
// driver (sequence-hash data fingerprint) must not be resumable by the
// sharded driver (colstore footer fingerprint) — the hashes cover different
// byte representations, so cross-resuming would skip the data guard.
func TestShardedRejectsForeignCheckpoint(t *testing.T) {
	d := smallDataset(t, 46)
	dir := t.TempDir()
	cfg := shardableCfg()
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 1
	if _, err := Fit(d.Seq, cfg); err != nil {
		t.Fatal(err)
	}
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 500))
	cfg.Resume = true
	_, err := FitSharded(context.Background(), rd, cfg)
	var mm *checkpoint.MismatchError
	if !errors.As(err, &mm) || mm.Field != "data" {
		t.Fatalf("got %v, want data MismatchError", err)
	}
}

// TestShardedModelGuardsSequenceMethods: the sharded model carries no
// training sequence; methods that re-read it must error (or, for
// EstimatedInfluence on a conformity model, return nil), not panic.
func TestShardedModelGuardsSequenceMethods(t *testing.T) {
	d := smallDataset(t, 47)
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 500))
	m, err := FitSharded(context.Background(), rd, shardableCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TrainLogLikelihood(); err == nil {
		t.Error("TrainLogLikelihood on a sharded model must error")
	}
	if _, err := m.HeldOutLogLikelihood(d.Seq); err == nil {
		t.Error("HeldOutLogLikelihood on a sharded model must error")
	}

	confCfg := quickCfg(VariantL)
	confCfg.FixedKernel = true
	cm, err := FitSharded(context.Background(), rd, confCfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cm.EstimatedInfluence(); got != nil {
		t.Errorf("EstimatedInfluence on a sharded CHASSIS-L model = %d rows, want nil", len(got))
	}
}

// TestShardedCancellationFlushesCheckpoint is the SIGTERM path of the
// out-of-core driver: cooperative cancellation after iteration 2 returns a
// *CanceledError and flushes that iteration even though the stride would
// not have written it, and a resume under a different worker count and
// shard size completes fingerprint-equal to an uninterrupted run.
func TestShardedCancellationFlushesCheckpoint(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	cfg := quickCfg(VariantL)
	cfg.FixedKernel = true
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 300))

	base, err := FitSharded(context.Background(), rd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := base.Fingerprint()

	dir := t.TempDir()
	cc := cfg
	cc.CheckpointDir = dir
	cc.CheckpointEvery = 100 // stride never fires: only the flush-on-exit can write
	cc.Workers = 2
	cc.ShardEvents = 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obsv := &cancelAfterIter{at: 2, cancel: cancel}
	_, err = FitSharded(ctx, rd, cc, WithObserver(obsv))
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled sharded fit: got %v, want *CanceledError", err)
	}

	env, err := checkpoint.Load(CheckpointPath(dir), "chassis-em")
	if err != nil {
		t.Fatalf("cancellation did not flush a checkpoint: %v", err)
	}
	if env.Iteration != 2 {
		t.Fatalf("flushed checkpoint holds iteration %d, want 2", env.Iteration)
	}

	cc.Resume = true
	cc.Workers = 1
	cc.ShardEvents = 1
	m, err := FitSharded(context.Background(), rd, cc)
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	if got := m.Fingerprint(); got != want {
		t.Errorf("resumed sharded fingerprint %s, uninterrupted %s", got, want)
	}
}

// TestShardedObserverMetricsParity fits CHASSIS-L through both entry
// points with an observer and a metrics registry attached. The callback
// streams must agree field for field except wall-clock times and the
// fields only training-LL evaluation fills (FitSharded never evaluates it),
// and the M-step, E-step and conformity-build timers must count the same
// number of passes.
func TestShardedObserverMetricsParity(t *testing.T) {
	forceSmallChunks(t, 48)
	forceRefreshEvery(t, 2)
	d := smallDataset(t, 52)
	cfg := quickCfg(VariantL)
	cfg.FixedKernel = true
	cfg.EMIters = 5

	memObs, memReg := &obs.CollectObserver{}, obs.NewMetrics()
	ref, err := FitContext(context.Background(), d.Seq, cfg, WithObserver(memObs), WithMetrics(memReg))
	if err != nil {
		t.Fatal(err)
	}
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 200))
	shObs, shReg := &obs.CollectObserver{}, obs.NewMetrics()
	c := cfg
	c.ShardEvents = 100
	m, err := FitSharded(context.Background(), rd, c, WithObserver(shObs), WithMetrics(shReg))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Fingerprint(), ref.Fingerprint(); got != want {
		t.Fatalf("sharded fingerprint %s, in-memory %s", got, want)
	}

	if !reflect.DeepEqual(shObs.Starts, memObs.Starts) {
		t.Errorf("OnIterStart: sharded %v, in-memory %v", shObs.Starts, memObs.Starts)
	}
	if len(memObs.EForms) == 0 {
		t.Fatal("the fixture ran no observed E-step")
	}
	untimeE := func(in []obs.EStepStats) []obs.EStepStats {
		out := append([]obs.EStepStats(nil), in...)
		for i := range out {
			out[i].Seconds = 0
		}
		return out
	}
	if got, want := untimeE(shObs.EForms), untimeE(memObs.EForms); !reflect.DeepEqual(got, want) {
		t.Errorf("OnEStep: sharded %+v, in-memory %+v", got, want)
	}
	untimeM := func(in []obs.MStepStats) []obs.MStepStats {
		out := append([]obs.MStepStats(nil), in...)
		for i := range out {
			out[i].Seconds, out[i].KernelSeconds = 0, 0
		}
		return out
	}
	if got, want := untimeM(shObs.MForms), untimeM(memObs.MForms); !reflect.DeepEqual(got, want) {
		t.Errorf("OnMStep: sharded %+v, in-memory %+v", got, want)
	}
	// Wall-clock fields, plus the ones the in-memory side's training-LL
	// evaluation fills (its compensator is what advances EulerSteps).
	untimeIter := func(in []obs.IterStats) []obs.IterStats {
		out := append([]obs.IterStats(nil), in...)
		for i := range out {
			out[i].Seconds, out[i].EStepSeconds, out[i].MStepSeconds = 0, 0, 0
			out[i].KernelSeconds, out[i].LLSeconds = 0, 0
			out[i].TrainLL, out[i].TrainLLValid, out[i].EulerSteps = 0, false, 0
		}
		return out
	}
	if got, want := untimeIter(shObs.Iters), untimeIter(memObs.Iters); !reflect.DeepEqual(got, want) {
		t.Errorf("OnIterEnd: sharded %+v, in-memory %+v", got, want)
	}
	for _, it := range shObs.Iters {
		if it.TrainLLValid {
			t.Errorf("iteration %d: a sharded fit reported a training LL", it.Iter)
		}
	}
	if len(shObs.Recoveries) != 0 || len(memObs.Recoveries) != 0 {
		t.Errorf("unguarded fits reported recoveries: sharded %d, in-memory %d", len(shObs.Recoveries), len(memObs.Recoveries))
	}

	memT, shT := memReg.Snapshot().Timers, shReg.Snapshot().Timers
	for _, name := range []string{"core.mstep", "core.estep", "core.conformity"} {
		if memT[name].Count == 0 {
			t.Errorf("%s: the in-memory fit recorded no passes", name)
		}
		if shT[name].Count != memT[name].Count {
			t.Errorf("%s: sharded %d passes, in-memory %d", name, shT[name].Count, memT[name].Count)
		}
	}
}
