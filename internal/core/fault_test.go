package core

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"chassis/internal/checkpoint"
	"chassis/internal/faultinject"
	"chassis/internal/guard"
	"chassis/internal/obs"
	"chassis/internal/timeline"
)

// ckptCfg is quickCfg plus checkpointing into dir (stride 1 by default).
func ckptCfg(v Variant, dir string) Config {
	cfg := quickCfg(v)
	cfg.TrackHistory = true
	cfg.CheckpointDir = dir
	cfg.CheckpointEvery = 1
	return cfg
}

// fitExpectingCrash installs a simulated kill after EM iteration crashAt,
// runs the fit, and asserts it died with the injected-crash sentinel.
func fitExpectingCrash(t *testing.T, cfg Config, seq *timeline.Sequence, crashAt int) {
	t.Helper()
	faultinject.CrashAfterIter = func(iter int) bool { return iter == crashAt }
	defer faultinject.Reset()
	if _, err := Fit(seq, cfg); !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("crash-at-%d fit: got %v, want ErrInjectedCrash", crashAt, err)
	}
}

// TestCrashResumeBitIdentical is the headline recovery contract: kill the
// fit after iteration k, resume from the checkpoint, and the final model —
// parameters, forest, LL history — is bit-identical to a never-interrupted
// fit, at Workers=1 and Workers=8 and even when the resumed run uses a
// different worker count than the killed one.
func TestCrashResumeBitIdentical(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)

	baselineCfg := quickCfg(VariantL)
	baselineCfg.TrackHistory = true
	baseline, err := Fit(d.Seq, baselineCfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(baseline)

	cases := []struct {
		name                        string
		crashAt                     int
		crashWorkers, resumeWorkers int
	}{
		{"workers1", 2, 1, 1},
		{"workers8", 2, 8, 8},
		{"crash1-resume8", 1, 1, 8},
		{"crash8-resume1", 3, 8, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := ckptCfg(VariantL, dir)
			cfg.Workers = c.crashWorkers
			fitExpectingCrash(t, cfg, d.Seq, c.crashAt)

			env, err := checkpoint.Load(CheckpointPath(dir), "chassis-em")
			if err != nil {
				t.Fatalf("no checkpoint after crash: %v", err)
			}
			if env.Iteration != c.crashAt {
				t.Fatalf("checkpoint holds iteration %d, want %d", env.Iteration, c.crashAt)
			}

			cfg.Workers = c.resumeWorkers
			cfg.Resume = true
			m, err := Fit(d.Seq, cfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			assertSummariesIdentical(t, want, summarize(m))
		})
	}
}

// TestCrashResumeWithStride kills the fit between checkpoint strides: with
// CheckpointEvery=2 and a crash after iteration 3, only iteration 2 is on
// disk (a simulated SIGKILL flushes nothing), so the resume recomputes
// iterations 3 and 4 — and still lands bit-identically.
func TestCrashResumeWithStride(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 81)
	baseCfg := quickCfg(VariantL)
	baseCfg.TrackHistory = true
	baseline, err := Fit(d.Seq, baseCfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := ckptCfg(VariantL, dir)
	cfg.CheckpointEvery = 2
	fitExpectingCrash(t, cfg, d.Seq, 3)

	env, err := checkpoint.Load(CheckpointPath(dir), "chassis-em")
	if err != nil {
		t.Fatal(err)
	}
	if env.Iteration != 2 {
		t.Fatalf("stride-2 checkpoint holds iteration %d, want 2 (iteration 3 must not survive a kill)", env.Iteration)
	}

	cfg.Resume = true
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertSummariesIdentical(t, summarize(baseline), summarize(m))
}

// TestCheckpointedFitMatchesPlain: writing checkpoints is observationally
// pure — a checkpointed, uninterrupted fit equals a plain one bit-for-bit,
// and the completion checkpoint records the final iteration.
func TestCheckpointedFitMatchesPlain(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	plainCfg := quickCfg(VariantL)
	plainCfg.TrackHistory = true
	plain, err := Fit(d.Seq, plainCfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := ckptCfg(VariantL, dir)
	ck, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSummariesIdentical(t, summarize(plain), summarize(ck))

	env, err := checkpoint.Load(CheckpointPath(dir), "chassis-em")
	if err != nil {
		t.Fatal(err)
	}
	if env.Iteration != cfg.EMIters {
		t.Errorf("completion checkpoint holds iteration %d, want %d", env.Iteration, cfg.EMIters)
	}

	// Resuming a finished run replays only the final readout — same model.
	cfg.Resume = true
	again, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatalf("resume of completed run: %v", err)
	}
	assertSummariesIdentical(t, summarize(plain), summarize(again))
}

// TestCancellationFlushesCheckpoint is the SIGTERM path: cooperative
// cancellation mid-run flushes the last completed iteration even when the
// stride would not have written it, and the resume completes bit-identically.
func TestCancellationFlushesCheckpoint(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	baseCfg := quickCfg(VariantL)
	baseCfg.TrackHistory = true
	baseline, err := Fit(d.Seq, baseCfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := ckptCfg(VariantL, dir)
	cfg.CheckpointEvery = 100 // stride never fires: only the flush-on-exit can write
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	obsv := &cancelAfterIter{at: 2, cancel: cancel}
	_, err = FitContext(ctx, d.Seq, cfg, WithObserver(obsv))
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("cancelled fit: got %v, want *CanceledError", err)
	}

	env, err := checkpoint.Load(CheckpointPath(dir), "chassis-em")
	if err != nil {
		t.Fatalf("cancellation did not flush a checkpoint: %v", err)
	}
	if env.Iteration != 2 {
		t.Fatalf("flushed checkpoint holds iteration %d, want 2", env.Iteration)
	}

	cfg.Resume = true
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatalf("resume after cancellation: %v", err)
	}
	assertSummariesIdentical(t, summarize(baseline), summarize(m))
}

// cancelAfterIter cancels the fit's context once iteration `at` completes.
type cancelAfterIter struct {
	obs.CollectObserver
	at     int
	cancel context.CancelFunc
}

func (c *cancelAfterIter) OnIterEnd(s obs.IterStats) {
	c.CollectObserver.OnIterEnd(s)
	if s.Iter == c.at {
		c.cancel()
	}
}

// TestCheckpointIOFailureLeavesPreviousLoadable: an injected I/O failure on
// a later checkpoint write aborts the fit but leaves the earlier checkpoint
// intact, and resuming from it still reproduces the uninterrupted result.
func TestCheckpointIOFailureLeavesPreviousLoadable(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	baseCfg := quickCfg(VariantL)
	baseCfg.TrackHistory = true
	baseline, err := Fit(d.Seq, baseCfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := ckptCfg(VariantL, dir)
	writes := 0
	faultinject.CheckpointIO = func(stage, path string) error {
		if stage != "rename" {
			return nil
		}
		writes++ // checkpoint writes are sequential on the EM goroutine
		if writes >= 2 {
			return errors.New("injected rename failure")
		}
		return nil
	}
	_, err = Fit(d.Seq, cfg)
	faultinject.Reset()
	if err == nil || errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("fit with failing checkpoint writes: got %v, want an I/O error", err)
	}

	env, err := checkpoint.Load(CheckpointPath(dir), "chassis-em")
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after failed write: %v", err)
	}
	if env.Iteration != 1 {
		t.Fatalf("surviving checkpoint holds iteration %d, want 1", env.Iteration)
	}

	cfg.Resume = true
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	assertSummariesIdentical(t, summarize(baseline), summarize(m))
}

// TestResumeMismatches: a checkpoint is never resumed against different
// training data or a different configuration — both are typed
// *checkpoint.MismatchError failures before any EM work.
func TestResumeMismatches(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	dir := t.TempDir()
	cfg := ckptCfg(VariantL, dir)
	fitExpectingCrash(t, cfg, d.Seq, 2)

	t.Run("data", func(t *testing.T) {
		other := smallDataset(t, 78)
		rcfg := cfg
		rcfg.Resume = true
		_, err := Fit(other.Seq, rcfg)
		var me *checkpoint.MismatchError
		if !errors.As(err, &me) || me.Field != "data" {
			t.Fatalf("resume with different data: got %v, want MismatchError{data}", err)
		}
	})
	t.Run("config", func(t *testing.T) {
		rcfg := cfg
		rcfg.Resume = true
		rcfg.EMIters = cfg.EMIters + 3
		_, err := Fit(d.Seq, rcfg)
		var me *checkpoint.MismatchError
		if !errors.As(err, &me) || me.Field != "config" {
			t.Fatalf("resume with different config: got %v, want MismatchError{config}", err)
		}
	})
	t.Run("workers-change-allowed", func(t *testing.T) {
		rcfg := cfg
		rcfg.Resume = true
		rcfg.Workers = 8
		if _, err := Fit(d.Seq, rcfg); err != nil {
			t.Fatalf("resume at a different worker count must be allowed: %v", err)
		}
	})
}

func TestResumeRequiresCheckpointDir(t *testing.T) {
	d := smallDataset(t, 77)
	cfg := quickCfg(VariantL)
	cfg.Resume = true
	if _, err := Fit(d.Seq, cfg); err == nil {
		t.Fatal("Resume without CheckpointDir must fail fast")
	}
}

// TestResumeWithoutCheckpointIsFreshStart: -resume against an empty
// directory is a fresh start (so deployments can pass it unconditionally),
// and still matches the plain fit bit-for-bit.
func TestResumeWithoutCheckpointIsFreshStart(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	plainCfg := quickCfg(VariantL)
	plainCfg.TrackHistory = true
	plain, err := Fit(d.Seq, plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ckptCfg(VariantL, t.TempDir())
	cfg.Resume = true
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSummariesIdentical(t, summarize(plain), summarize(m))
}

// TestNaNInjectionRecovers: a NaN planted in one dimension's accepted
// M-step parameters trips the guard, which rolls the iteration back,
// shrinks the step, retries — and the fit still converges to a fully
// finite model, with the recovery visible through the observer and the
// metrics counters.
func TestNaNInjectionRecovers(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	cfg := quickCfg(VariantL)
	cfg.TrackHistory = true
	cfg.Guard = guard.Policy{Enabled: true}

	faultinject.MStepResult = func(iter, attempt, dim int, x, grad []float64) {
		if iter == 2 && attempt == 0 && dim == 3 {
			x[0] = math.NaN()
		}
	}
	defer faultinject.Reset()

	col := &obs.CollectObserver{}
	metrics := obs.NewMetrics()
	m, err := FitContext(nil, d.Seq, cfg, WithObserver(col), WithMetrics(metrics))
	if err != nil {
		t.Fatalf("guarded fit with one-shot NaN: %v", err)
	}
	if len(col.Recoveries) == 0 {
		t.Fatal("no recovery surfaced through the observer")
	}
	r := col.Recoveries[0]
	if r.Iter != 2 || r.Phase != "mstep" || r.Quantity != "mu" {
		t.Errorf("recovery = %+v, want iter 2, phase mstep, quantity mu", r)
	}
	if r.StepScale >= 1 {
		t.Errorf("recovery did not shrink the step: scale %v", r.StepScale)
	}
	if n := metrics.Counter("guard.recoveries").Value(); n < 1 {
		t.Errorf("guard.recoveries = %d, want >= 1", n)
	}
	if n := metrics.Counter("guard.violations").Value(); n < 1 {
		t.Errorf("guard.violations = %d, want >= 1", n)
	}
	if phase, v := m.checkParamsFinite(); v != nil {
		t.Errorf("recovered model holds non-finite parameters (%s: %v)", phase, v)
	}
}

// TestExplodingGradientRecovers covers the guard's threshold check: a
// planted huge-but-finite gradient trips the grad_norm limit and recovers.
func TestExplodingGradientRecovers(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	cfg := quickCfg(VariantL)
	cfg.Guard = guard.Policy{Enabled: true}

	faultinject.MStepResult = func(iter, attempt, dim int, x, grad []float64) {
		if iter == 2 && attempt == 0 && dim == 0 && grad != nil {
			for p := range grad {
				grad[p] = 1e12
			}
		}
	}
	defer faultinject.Reset()

	col := &obs.CollectObserver{}
	if _, err := FitContext(nil, d.Seq, cfg, WithObserver(col)); err != nil {
		t.Fatalf("guarded fit with one-shot gradient explosion: %v", err)
	}
	if len(col.Recoveries) == 0 {
		t.Fatal("no recovery surfaced")
	}
	if q := col.Recoveries[0].Quantity; q != "grad_norm" {
		t.Errorf("recovery quantity = %q, want grad_norm", q)
	}
}

// TestPersistentNaNFailsTyped: when every retry keeps producing NaN, the
// fit gives up after MaxRecoveries with a structured *guard.NumericalError
// and returns no model — non-finite Θ never reaches the caller.
func TestPersistentNaNFailsTyped(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	cfg := quickCfg(VariantL)
	cfg.Guard = guard.Policy{Enabled: true, MaxRecoveries: 2}

	faultinject.MStepResult = func(iter, attempt, dim int, x, grad []float64) {
		if iter == 2 && dim == 3 {
			x[0] = math.NaN()
		}
	}
	defer faultinject.Reset()

	m, err := Fit(d.Seq, cfg)
	if m != nil {
		t.Fatal("failed fit must not return a model")
	}
	var ne *guard.NumericalError
	if !errors.As(err, &ne) {
		t.Fatalf("got %v, want *guard.NumericalError", err)
	}
	if ne.Iteration != 2 || ne.Phase != "mstep" || ne.Quantity != "mu" {
		t.Errorf("NumericalError = %+v, want iteration 2, phase mstep, quantity mu", ne)
	}
	if ne.Recoveries != 2 {
		t.Errorf("Recoveries = %d, want the exhausted budget 2", ne.Recoveries)
	}
}

// TestGuardedCleanFitBitIdentical: on healthy data the guard never fires,
// and because its health checks are pure reads, the guarded fit is
// bit-identical to the unguarded one.
func TestGuardedCleanFitBitIdentical(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 77)
	plainCfg := quickCfg(VariantL)
	plainCfg.TrackHistory = true
	plain, err := Fit(d.Seq, plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	guardedCfg := plainCfg
	guardedCfg.Guard = guard.Policy{Enabled: true}
	guarded, err := Fit(d.Seq, guardedCfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSummariesIdentical(t, summarize(plain), summarize(guarded))
}

// TestResumeRejectsVersion1Checkpoint: a checkpoint written before the
// parameters moved into rows (format version 1: dense matrices, a config
// with the since-removed KernelBins) fails the resume with a typed error
// instead of resuming. The fixture is the completion checkpoint of
// quickCfg(VariantL) on smallDataset(t, 61).
func TestResumeRejectsVersion1Checkpoint(t *testing.T) {
	d := smallDataset(t, 61)
	blob, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(CheckpointPath(dir), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(VariantL)
	cfg.CheckpointDir = dir
	cfg.Resume = true
	m, err := Fit(d.Seq, cfg)
	var mismatch *checkpoint.MismatchError
	var version *checkpoint.VersionError
	if m != nil || !errors.As(err, &mismatch) && !errors.As(err, &version) {
		t.Fatalf("resume from a version-1 checkpoint: model %v, error %v; want a typed checkpoint error", m != nil, err)
	}
	t.Logf("resume refused: %v", err)
}
