// Package experiments defines one runner per table/figure of the paper's
// performance study (Section 8), over the synthetic stand-in corpora of
// package cascade. The same runners back `cmd/chassis-bench` and the
// repository-level benchmark suite, so every reported number has exactly
// one implementation.
package experiments

import (
	"context"
	"fmt"

	"chassis/internal/baselines"
	"chassis/internal/branching"
	"chassis/internal/core"
	"chassis/internal/guard"
	"chassis/internal/obs"
	"chassis/internal/timeline"
)

// Strategy is the uniform surface every compared method exposes.
type Strategy interface {
	// Name returns the paper's label.
	Name() string
	// Fit trains on the sequence. ctx (which may be nil) cancels the fit
	// cooperatively; a cancelled fit returns the context error and leaves
	// the strategy unfitted.
	Fit(ctx context.Context, train *timeline.Sequence, seed int64) error
	// HeldOut returns ln L(X_test | Θ, H_train).
	HeldOut(test *timeline.Sequence) (float64, error)
	// Influence returns the estimated influence matrix Â.
	Influence() ([][]float64, error)
	// InferForest infers the branching structure of a sequence.
	InferForest(seq *timeline.Sequence) (*branching.Forest, error)
	// History returns per-EM-iteration training log-likelihoods when the
	// strategy tracked them (nil otherwise).
	History() []float64
}

// AllStrategies lists every strategy of the paper's grid, in the order the
// figures present them.
var AllStrategies = []string{
	"ADM4", "MMEL", "L-HP", "E-HP",
	"CHASSIS-LI", "CHASSIS-LN", "CHASSIS-EI", "CHASSIS-EN",
	"CHASSIS-L", "CHASSIS-E",
}

// Table1Strategies is the subset compared in the branching-structure
// experiment.
var Table1Strategies = []string{"ADM4", "MMEL", "CHASSIS-L", "CHASSIS-E"}

// FitOptions tunes how strategies are trained in the experiments.
type FitOptions struct {
	// EMIters for the CHASSIS/HP family (default 10).
	EMIters int
	// TrackHistory records per-iteration LL (convergence experiment).
	TrackHistory bool
	// InferTrees hides the datasets' connectivity from the CHASSIS family,
	// forcing diffusion-tree inference (the Table 1 setting). The default —
	// matching the paper's Facebook/Twitter experiments, whose crawls
	// expose parent links — reads the observed trees.
	InferTrees bool
	// Workers caps fit parallelism (0 = GOMAXPROCS); results are identical
	// at every setting, see core.Config.Workers.
	Workers int
	// Observer, when non-nil, receives the fit lifecycle callbacks
	// (per-iteration for every strategy; per-phase for the CHASSIS family).
	// Observation is read-only and does not perturb fitted parameters.
	Observer obs.FitObserver
	// Metrics, when non-nil, collects fit counters/timers (CHASSIS family
	// only; the closed-form baselines have no instrumented hot paths).
	Metrics *obs.Metrics
	// CheckpointDir, when set, makes CHASSIS-family fits write resumable
	// checkpoints there (see core.Config.CheckpointDir). The closed-form
	// baselines finish in one pass and ignore it.
	CheckpointDir string
	// CheckpointEvery is the checkpoint stride in EM iterations (default 1).
	CheckpointEvery int
	// Resume restarts a CHASSIS-family fit from the checkpoint in
	// CheckpointDir; the resumed run is bit-identical to an uninterrupted one.
	Resume bool
	// Guard configures per-iteration numerical health checks with automatic
	// rollback (CHASSIS family; see guard.Policy).
	Guard guard.Policy
	// ExpKernel makes CHASSIS-family fits use a fixed parametric exponential
	// triggering kernel instead of the nonparametric grid (see
	// core.Config.ExpKernel); the fitted model then serves the exponential
	// fast path. The closed-form baselines ignore it.
	ExpKernel bool
}

// NewStrategy constructs a strategy by its paper label.
func NewStrategy(name string, opts FitOptions) (Strategy, error) {
	if opts.EMIters <= 0 {
		opts.EMIters = 10
	}
	switch name {
	case "ADM4":
		return &adm4Strategy{opts: opts}, nil
	case "MMEL":
		return &mmelStrategy{opts: opts}, nil
	}
	v, err := core.VariantByName(name)
	if err != nil {
		return nil, fmt.Errorf("experiments: unknown strategy %q", name)
	}
	return &chassisStrategy{variant: v, opts: opts}, nil
}

type chassisStrategy struct {
	variant core.Variant
	opts    FitOptions
	model   *core.Model
}

func (s *chassisStrategy) Name() string { return s.variant.Name() }

func (s *chassisStrategy) Fit(ctx context.Context, train *timeline.Sequence, seed int64) error {
	var fitOpts []core.Option
	if s.opts.Observer != nil {
		fitOpts = append(fitOpts, core.WithObserver(s.opts.Observer))
	}
	if s.opts.Metrics != nil {
		fitOpts = append(fitOpts, core.WithMetrics(s.opts.Metrics))
	}
	m, err := core.FitContext(ctx, train, core.Config{
		Variant:          s.variant,
		EMIters:          s.opts.EMIters,
		Seed:             seed,
		Workers:          s.opts.Workers,
		TrackHistory:     s.opts.TrackHistory,
		UseObservedTrees: !s.opts.InferTrees,
		CheckpointDir:    s.opts.CheckpointDir,
		CheckpointEvery:  s.opts.CheckpointEvery,
		Resume:           s.opts.Resume,
		Guard:            s.opts.Guard,
		ExpKernel:        s.opts.ExpKernel,
	}, fitOpts...)
	if err != nil {
		return err
	}
	s.model = m
	return nil
}

func (s *chassisStrategy) HeldOut(test *timeline.Sequence) (float64, error) {
	return s.model.HeldOutLogLikelihood(test)
}

func (s *chassisStrategy) Influence() ([][]float64, error) {
	return s.model.EstimatedInfluence(), nil
}

func (s *chassisStrategy) InferForest(seq *timeline.Sequence) (*branching.Forest, error) {
	return s.model.InferForest(seq)
}

func (s *chassisStrategy) History() []float64 { return s.model.History }

// Model exposes the underlying fitted model (full-model persistence in
// chassis-fit); nil until Fit succeeds.
func (s *chassisStrategy) Model() *core.Model { return s.model }

// ModelProvider is implemented by strategies backed by a core.Model.
type ModelProvider interface{ Model() *core.Model }

type adm4Strategy struct {
	opts  FitOptions
	model *baselines.ADM4
}

func (s *adm4Strategy) Name() string { return "ADM4" }

func (s *adm4Strategy) Fit(ctx context.Context, train *timeline.Sequence, _ int64) error {
	m, err := baselines.FitADM4Context(ctx, train, baselines.ADM4Config{Observer: s.opts.Observer})
	if err != nil {
		return err
	}
	s.model = m
	return nil
}

func (s *adm4Strategy) HeldOut(test *timeline.Sequence) (float64, error) {
	return s.model.HeldOutLogLikelihood(test)
}

func (s *adm4Strategy) Influence() ([][]float64, error) {
	return s.model.Influence(), nil
}

func (s *adm4Strategy) InferForest(seq *timeline.Sequence) (*branching.Forest, error) {
	return s.model.InferForest(seq)
}

func (s *adm4Strategy) History() []float64 { return nil }

type mmelStrategy struct {
	opts  FitOptions
	model *baselines.MMEL
}

func (s *mmelStrategy) Name() string { return "MMEL" }

func (s *mmelStrategy) Fit(ctx context.Context, train *timeline.Sequence, _ int64) error {
	m, err := baselines.FitMMELContext(ctx, train, baselines.MMELConfig{Observer: s.opts.Observer})
	if err != nil {
		return err
	}
	s.model = m
	return nil
}

func (s *mmelStrategy) HeldOut(test *timeline.Sequence) (float64, error) {
	return s.model.HeldOutLogLikelihood(test)
}

func (s *mmelStrategy) Influence() ([][]float64, error) {
	return s.model.Influence(), nil
}

func (s *mmelStrategy) InferForest(seq *timeline.Sequence) (*branching.Forest, error) {
	return s.model.InferForest(seq)
}

func (s *mmelStrategy) History() []float64 { return nil }
