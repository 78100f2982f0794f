package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"chassis/internal/obs"
)

// forceRefreshEvery pins the E-step refresh cadence for a test.
func forceRefreshEvery(t *testing.T, every int) {
	t.Helper()
	old := testRefreshEvery
	testRefreshEvery = every
	t.Cleanup(func() { testRefreshEvery = old })
}

// TestObserverCallbackOrdering pins the FitObserver contract: callbacks
// arrive OnIterStart → OnMStep → [OnEStep] → OnIterEnd with strictly
// increasing 1-based iteration numbers, one OnMStep and OnIterEnd per
// iteration, and per-iteration stats populated (finite LL, positive phase
// times, entropy on refresh iterations).
func TestObserverCallbackOrdering(t *testing.T) {
	forceSmallChunks(t, 48)
	forceRefreshEvery(t, 2)
	d := smallDataset(t, 90)
	cfg := quickCfg(VariantL)
	cfg.EMIters = 5
	col := &obs.CollectObserver{}
	m, err := FitContext(nil, d.Seq, cfg, WithObserver(col))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil model from successful fit")
	}
	if len(col.Starts) != cfg.EMIters || len(col.Iters) != cfg.EMIters || len(col.MForms) != cfg.EMIters {
		t.Fatalf("callback counts: starts=%d mtsteps=%d ends=%d, want %d each",
			len(col.Starts), len(col.MForms), len(col.Iters), cfg.EMIters)
	}
	for i, iter := range col.Starts {
		if iter != i+1 {
			t.Fatalf("OnIterStart[%d] = %d, want strictly increasing 1-based", i, iter)
		}
		if col.Iters[i].Iter != i+1 || col.MForms[i].Iter != i+1 {
			t.Fatalf("iteration numbers out of order at %d: end=%d mstep=%d", i, col.Iters[i].Iter, col.MForms[i].Iter)
		}
	}
	// Refresh cadence 2 with EMIters 5: E-steps on iterations 2 and 4.
	if len(col.EForms) != 2 || col.EForms[0].Iter != 2 || col.EForms[1].Iter != 4 {
		t.Fatalf("E-step callbacks = %+v, want iterations 2 and 4", col.EForms)
	}
	for _, es := range col.EForms {
		if es.Events <= 0 {
			t.Errorf("E-step iter %d scored %d events", es.Iter, es.Events)
		}
		if math.IsNaN(es.Entropy) || es.Entropy < 0 {
			t.Errorf("E-step iter %d entropy = %v, want finite >= 0", es.Iter, es.Entropy)
		}
	}
	for _, st := range col.Iters {
		// An attached observer forces per-iteration LL evaluation.
		if math.IsNaN(st.TrainLL) {
			t.Errorf("iter %d: TrainLL not evaluated", st.Iter)
		}
		if st.Seconds <= 0 || st.MStepSeconds <= 0 {
			t.Errorf("iter %d: non-positive timings %+v", st.Iter, st)
		}
		if math.IsNaN(st.GradNorm) || st.GradNorm < 0 {
			t.Errorf("iter %d: GradNorm = %v", st.Iter, st.GradNorm)
		}
	}
	// Observer alone must not populate Model.History (TrackHistory was off).
	if len(m.History) != 0 {
		t.Errorf("observer populated History (%d entries) without TrackHistory", len(m.History))
	}
}

// TestObservedFitBitIdenticalToUnobserved is the purity half of the observer
// contract: attaching an observer and a metrics registry must not change one
// bit of the fitted parameters, forest, or history, at any worker count.
func TestObservedFitBitIdenticalToUnobserved(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 91)
	for _, workers := range []int{1, 4} {
		cfg := quickCfg(VariantL)
		cfg.EMIters = 4
		cfg.TrackHistory = true
		cfg.Workers = workers
		plain, err := Fit(d.Seq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewMetrics()
		observed, err := FitContext(context.Background(), d.Seq, cfg,
			WithObserver(&obs.CollectObserver{}), WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		assertSummariesIdentical(t, summarize(plain), summarize(observed))
		if len(reg.Names("timer")) == 0 {
			t.Error("metrics registry collected nothing")
		}
	}
}

// TestMStepPassCountsAcrossWorkers pins the M-step's work counters: the
// value passes, gradient passes, rejected trials, admitted and dropped
// source events, slot refreshes and decay sweeps a fit reports are the same
// at Workers 1, 2 and 8. Each is nonzero, except that an HP fit drops no
// source event and refreshes no conformity slot.
func TestMStepPassCountsAcrossWorkers(t *testing.T) {
	forceSmallChunks(t, 48)
	d := smallDataset(t, 91)
	names := []string{"core.mstep_value_passes", "core.mstep_grad_passes", "core.mstep_rejected_trials",
		"core.mstep_src_events", "core.mstep_src_dropped", "core.mstep_slot_refreshes", "core.mstep_decay_sweeps"}
	hpZero := map[string]bool{"core.mstep_src_dropped": true, "core.mstep_slot_refreshes": true, "core.mstep_decay_sweeps": true}
	for _, v := range []Variant{VariantLHP, VariantL} {
		var want []int64
		for _, workers := range []int{1, 2, 8} {
			cfg := quickCfg(v)
			cfg.EMIters = 3
			cfg.Workers = workers
			reg := obs.NewMetrics()
			if _, err := FitContext(context.Background(), d.Seq, cfg, WithMetrics(reg)); err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, name := range names {
				got = append(got, reg.Counter(name).Value())
			}
			if want == nil {
				want = got
				for k, n := range got {
					wantZero := hpZero[names[k]] && !v.ConformityAware
					if n < 0 || (n == 0) != wantZero {
						t.Fatalf("%s: %s = %d", v.Name(), names[k], n)
					}
				}
				continue
			}
			for k := range names {
				if got[k] != want[k] {
					t.Fatalf("%s: %s = %d at Workers=%d, %d at Workers=1", v.Name(), names[k], got[k], workers, want[k])
				}
			}
		}
	}
}

// TestObservedFitMatchesEStepGolden re-runs the golden E-step scenario with
// an observer attached: the inferred parents must still match the checked-in
// fixture, proving observation cannot perturb the posterior readout.
func TestObservedFitMatchesEStepGolden(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "estep_parents.golden.json"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	var want goldenParents
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	d := smallDataset(t, 42)
	cfg := quickCfg(VariantL)
	cfg.EMIters = 3
	m, err := FitContext(context.Background(), d.Seq, cfg,
		WithObserver(&obs.CollectObserver{}), WithMetrics(obs.NewMetrics()))
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.InferForest(d.Seq.StripParents())
	if err != nil {
		t.Fatal(err)
	}
	parents := f.Parents()
	if len(parents) != len(want.Parents) {
		t.Fatalf("forest size %d, golden %d", len(parents), len(want.Parents))
	}
	for k := range parents {
		if int(parents[k]) != want.Parents[k] {
			t.Fatalf("observed fit drifted from golden at event %d: %d vs %d",
				k, parents[k], want.Parents[k])
		}
	}
}

func TestFitContextPreCancelled(t *testing.T) {
	d := smallDataset(t, 92)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rd := openCorpus(t, writeCorpusFile(t, d.Seq, 500))
	fits := map[string]func() (*Model, error){
		"in-memory": func() (*Model, error) {
			return FitContext(ctx, d.Seq, quickCfg(VariantL))
		},
		"sharded": func() (*Model, error) {
			cfg := quickCfg(VariantL)
			cfg.FixedKernel = true
			return FitSharded(ctx, rd, cfg)
		},
	}
	for name, run := range fits {
		t.Run(name, func(t *testing.T) {
			m, err := run()
			if m != nil {
				t.Fatal("cancelled fit must not return partial state")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled in the chain", err)
			}
			var ce *CanceledError
			if !errors.As(err, &ce) {
				t.Fatalf("got %T, want *CanceledError", err)
			}
		})
	}
}

// TestFitCancellationFromGoroutine cancels the context from a separate
// goroutine while the EM loop runs: the fit must return promptly with a
// *CanceledError naming the aborted iteration, never a model, and must not
// leak worker goroutines.
func TestFitCancellationFromGoroutine(t *testing.T) {
	forceSmallChunks(t, 48)
	forceRefreshEvery(t, 2)
	baseline := runtime.NumGoroutine()
	d := smallDataset(t, 93)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Fire the cancellation mid-EM: when iteration 2 starts, a goroutine
	// pulls the plug while the M-step/E-step pools are working.
	fired := make(chan struct{})
	obsv := obs.Observers(iterStartFunc(func(iter int) {
		if iter == 2 {
			go func() {
				cancel()
				close(fired)
			}()
		}
	}))
	cfg := quickCfg(VariantE) // nonlinear: warm start + Euler compensators, the slow path
	cfg.EMIters = 50
	cfg.Workers = 4
	start := time.Now()
	m, err := FitContext(ctx, d.Seq, cfg, WithObserver(obsv))
	elapsed := time.Since(start)
	if m != nil {
		t.Fatal("cancelled fit must not return partial state")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in the chain", err)
	}
	var ce *CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("got %T (%v), want *CanceledError", err, err)
	}
	if ce.Iteration < 2 {
		t.Errorf("canceled in iteration %d (%s), want >= 2 (cancel fired at iteration 2)", ce.Iteration, ce.Phase)
	}
	if ce.Phase == "" {
		t.Error("CanceledError must name the aborting phase")
	}
	<-fired
	if elapsed > 30*time.Second {
		t.Errorf("cancelled fit took %v — not a prompt return", elapsed)
	}
	// No leaked workers: the goroutine count must return to the baseline.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+1 { // +1 tolerates the test's own cancel goroutine
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked: %d before fit, %d after cancellation",
				baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// iterStartFunc adapts a function to FitObserver for cancellation tests.
type iterStartFunc func(iter int)

func (f iterStartFunc) OnIterStart(iter int)    { f(iter) }
func (f iterStartFunc) OnEStep(obs.EStepStats)  {}
func (f iterStartFunc) OnMStep(obs.MStepStats)  {}
func (f iterStartFunc) OnIterEnd(obs.IterStats) {}

// TestCanceledErrorUnwraps pins the error surface: errors.Is sees the
// context error through the wrapper, and the message names phase and
// iteration.
func TestCanceledErrorUnwraps(t *testing.T) {
	inner := &CanceledError{Phase: "estep", Iteration: 3, Err: context.Canceled}
	if !errors.Is(inner, context.Canceled) {
		t.Error("CanceledError must unwrap to the context error")
	}
	// wrapCancel flattens nested CanceledErrors (warm-start pilots rewrap).
	outer := wrapCancel("warmstart", 0, inner)
	var ce *CanceledError
	if !errors.As(outer, &ce) {
		t.Fatalf("wrapCancel returned %T", outer)
	}
	if ce.Phase != "warmstart" {
		t.Errorf("outer phase = %q", ce.Phase)
	}
	if !errors.Is(outer, context.Canceled) {
		t.Error("nested wrap must still unwrap to context.Canceled")
	}
	if wrapCancel("x", 1, nil) != nil {
		t.Error("wrapCancel(nil) must be nil")
	}
	plain := errors.New("disk full")
	if got := wrapCancel("x", 1, plain); got != plain {
		t.Errorf("non-cancellation errors must pass through, got %v", got)
	}
}
