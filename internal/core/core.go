// Package core implements CHASSIS itself: the conformity-aware Hawkes
// information-diffusion model of Eq. 4.2 and its semi-parametric EM
// inference (Sections 6–7 of the paper).
//
// One EM iteration alternates:
//
//   - E-step (Section 6): infer the latent branching structure — each
//     activity's triggering parent — from Papangelou-style intensity drops:
//     the probability that a preceding activity parents a_{ik} is
//     proportional to how much removing it would lower λᵢ(t_{ik}), which
//     works for linear and nonlinear links alike.
//   - M-step, parametric (Section 7): maximize the per-dimension
//     log-likelihood (Eq. 7.1) over Θ = {μᵢ, βᵢⱼ, γᴵᵢⱼ, γᴺᵢⱼ} by projected
//     gradient ascent, with conformity quantities recomputed from the
//     freshly inferred diffusion trees.
//   - M-step, nonparametric (Section 7): re-estimate the triggering
//     kernels in the frequency domain (Eqs. 7.5–7.8) from the binned
//     counting processes.
//
// The same machinery with the conformity terms replaced by free excitation
// coefficients gives the paper's L-HP and E-HP baselines; disabling one of
// the two conformity flavors gives the -LI/-LN/-EI/-EN ablations.
package core

import (
	"errors"
	"fmt"

	"chassis/internal/branching"
	"chassis/internal/conformity"
	"chassis/internal/guard"
	"chassis/internal/hawkes"
	"chassis/internal/kernel"
	"chassis/internal/obs"
	"chassis/internal/timeline"
)

// Variant selects a model family from the paper's experiment grid.
type Variant struct {
	// LinkName is "linear" or "exp" (Fᵢ in Eq. 4.2).
	LinkName string
	// ConformityAware selects the CHASSIS excitation (Eq. 4.1); false
	// learns free αᵢⱼ coefficients (the L-HP / E-HP baselines).
	ConformityAware bool
	// UseInformational / UseNormative toggle the two conformity flavors
	// (both on for full CHASSIS; one off for the ablations).
	UseInformational bool
	UseNormative     bool
}

// The paper's strategy grid.
var (
	VariantL   = Variant{LinkName: "linear", ConformityAware: true, UseInformational: true, UseNormative: true}
	VariantE   = Variant{LinkName: "exp", ConformityAware: true, UseInformational: true, UseNormative: true}
	VariantLI  = Variant{LinkName: "linear", ConformityAware: true, UseInformational: true}
	VariantLN  = Variant{LinkName: "linear", ConformityAware: true, UseNormative: true}
	VariantEI  = Variant{LinkName: "exp", ConformityAware: true, UseInformational: true}
	VariantEN  = Variant{LinkName: "exp", ConformityAware: true, UseNormative: true}
	VariantLHP = Variant{LinkName: "linear"}
	VariantEHP = Variant{LinkName: "exp"}
)

// Name returns the paper's label for the variant.
func (v Variant) Name() string {
	suffix := ""
	switch {
	case v.ConformityAware && v.UseInformational && v.UseNormative:
		suffix = ""
	case v.ConformityAware && v.UseInformational:
		suffix = "I"
	case v.ConformityAware && v.UseNormative:
		suffix = "N"
	}
	switch v.LinkName {
	case "exp":
		if v.ConformityAware {
			return "CHASSIS-E" + suffix
		}
		return "E-HP"
	default:
		if v.ConformityAware {
			return "CHASSIS-L" + suffix
		}
		return "L-HP"
	}
}

// VariantByName returns the variant whose Name is name: the inverse of Name
// over the paper's eight variants.
func VariantByName(name string) (Variant, error) {
	for _, v := range [...]Variant{VariantL, VariantE, VariantLI, VariantLN, VariantEI, VariantEN, VariantLHP, VariantEHP} {
		if v.Name() == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("core: unknown variant %q", name)
}

// Link resolves the link function.
func (v Variant) Link() (hawkes.Link, error) {
	return hawkes.LinkByName(v.LinkName)
}

func (v Variant) validate() error {
	if _, err := v.Link(); err != nil {
		return err
	}
	if v.ConformityAware && !v.UseInformational && !v.UseNormative {
		return errors.New("core: conformity-aware variant needs at least one conformity flavor")
	}
	return nil
}

// FastPathMode selects the intensity engine used by every hawkes-process
// evaluation the model performs (likelihoods, compensators, Monte-Carlo
// prediction).
type FastPathMode int

const (
	// FastPathAuto — the default — uses the fast engine whenever the kernel
	// bank allows it: the O(n) recursive sweep for exponential banks, the
	// per-sequence kernel-evaluation cache for power-law/Rayleigh banks.
	// Both are exact-or-better than the naive scan (bit-identical for the
	// cache, within 1e−9 relative for the recursion; see DESIGN.md §11).
	FastPathAuto FastPathMode = iota
	// FastPathOff forces the naive reference scans everywhere — the oracle
	// configuration the property tests and ablations compare against.
	FastPathOff
)

// Config tunes the EM fit.
type Config struct {
	Variant Variant
	// EMIters is the number of outer EM iterations (default 12).
	EMIters int
	// MStepIters caps gradient steps per dimension per M-step (default 25).
	MStepIters int
	// KernelSupport is the triggering-kernel horizon; 0 auto-selects
	// Horizon/20.
	KernelSupport float64
	// InitKernelRate seeds the exponential kernel used before the first
	// nonparametric update (default 5/KernelSupport).
	InitKernelRate float64
	// IntegrationGrid is the Euler grid size for nonlinear-link
	// compensators (default 192; Theorem 7.1 refinement happens inside the
	// final likelihood evaluation, the fit uses a fixed grid for speed).
	IntegrationGrid int
	// Seed drives initialization and E-step sampling.
	Seed int64
	// Workers caps the goroutines used by the parallel E-step, the
	// per-dimension M-step and kernel updates, and likelihood/compensator
	// evaluations. 0 (the default) uses runtime.GOMAXPROCS. Fitted
	// parameters and inferred forests are bit-identical at every setting:
	// work is sharded into chunks whose boundaries and RNG streams depend
	// only on the data, never on the worker count (see internal/parallel).
	Workers int
	// MAPEStep takes the argmax of the triggering distribution instead of
	// sampling from it. The default (sampling) matches the paper — parents
	// are "obtained probabilistically" — and avoids the argmax's bias
	// toward the immigrant label when many small candidate weights jointly
	// outweigh μ but individually do not.
	MAPEStep bool
	// FixedKernel skips the nonparametric kernel updates (ablation; the
	// initial exponential kernel is kept).
	FixedKernel bool
	// ExpKernel fits with a parametric exponential triggering kernel
	// (rate InitKernelRate) instead of the nonparametric grid, implying
	// FixedKernel. The fitted model then carries kernel.Exponential values,
	// so its Process serves the O(n) exponential fast path — simulation,
	// prediction, and the serve layer's cached continuation state — which
	// the tabulated kernels of a nonparametric fit cannot. (omitempty keeps
	// pre-existing model files byte-stable: false — every file written
	// before the flag existed — serializes to nothing.)
	ExpKernel bool `json:"ExpKernel,omitempty"`
	// KernelDamping blends new kernel estimates with the previous one for
	// EM stability: new = damping·old + (1−damping)·estimate (default 0.5).
	KernelDamping float64
	// ParamDamping blends each M-step's parameter update with the previous
	// values the same way (default 0.5). The E-step samples trees, so the
	// M-step targets move stochastically; damping turns the alternation
	// into a stable stochastic-approximation scheme.
	ParamDamping float64
	// NoWarmStart disables the HP warm start that conformity-aware fits
	// use to seed their first diffusion trees (ablation knob).
	NoWarmStart bool
	// LinearRatioEStep scores E-step candidates by their raw pre-link
	// contribution c_e (the classical linear-Hawkes triggering ratio)
	// instead of the Papangelou drop F(g) − F(g − c_e). The two coincide
	// under the linear link; the ablation quantifies the gap for nonlinear
	// links.
	LinearRatioEStep bool
	// EStepSmoothing is added to every candidate's excitation when scoring
	// triggering links (default 0.02). Conformity quantities are exactly
	// zero until a pair has accumulated ≥2 interactions, so an unsmoothed
	// E-step could never attach the first links and EM would collapse to
	// the all-immigrant fixed point; the smoothing acts as the Laplace
	// prior that lets temporal proximity seed the first diffusion trees.
	EStepSmoothing float64
	// MuBandHigh sets the upper μ band multiplier applied after a warm
	// start (default 2.5; see the Model.muLo field comment).
	MuBandHigh float64
	// UseObservedTrees switches to the paper's "connectivity-aware
	// construction" (Section 6): when the platform exposes parent links —
	// as the paper's Facebook/Twitter crawls do — the diffusion trees are
	// read from the data and the E-step is skipped; inference is only
	// needed when connectivity is hidden (the Table 1 setting).
	UseObservedTrees bool
	// FastPath selects the hawkes intensity engine (default FastPathAuto:
	// fast engine on wherever the kernel bank allows). The fit itself runs
	// on nonparametric Discrete kernels, which neither fast path touches, so
	// fitted parameters are identical in every mode; the switch matters for
	// likelihood evaluations and serve-time prediction on parametric banks.
	// omitempty keeps the default out of persisted configs, so the v1 model
	// wire format is byte-stable.
	FastPath FastPathMode `json:"fast_path,omitempty"`
	// Conformity forwards extraction options.
	Conformity conformity.Options
	// TrackHistory records the training log-likelihood after every EM
	// iteration (the convergence experiment).
	TrackHistory bool
	// Guard configures the numerical guardrails: per-iteration health
	// checks with bounded rollback-and-retry recovery (see internal/guard).
	// The zero value disables them; a guarded fit that never trips a check
	// is bit-identical to an unguarded one.
	Guard guard.Policy
	// CheckpointDir, when non-empty, makes the fit write an atomic
	// checkpoint of its full EM state into this directory every
	// CheckpointEvery iterations (and at the loop's exits), so a killed fit
	// can continue. Excluded from persisted configs: where a run
	// checkpoints is an operational choice, not part of the model.
	CheckpointDir string `json:"-"`
	// CheckpointEvery is the iteration stride between checkpoint writes
	// (default 1 — every completed iteration).
	CheckpointEvery int `json:"-"`
	// Resume makes the fit continue from the checkpoint in CheckpointDir
	// when one exists (a missing checkpoint is a fresh start, not an
	// error). The resumed run is bit-identical to an uninterrupted one at
	// any worker count: every RNG stream is a pure function of (Seed,
	// counters captured in the checkpoint).
	Resume bool `json:"-"`
	// ShardEvents caps how many events FitSharded materializes as activity
	// structs at once: each E-step/bootstrap pass walks the corpus in shards
	// of at least this many events (rounded up to whole scheduling chunks)
	// plus one kernel support of halo. Like Workers it is an operational
	// knob that never affects the fitted parameters or forest — shard
	// boundaries change which buffer the chunk bodies read through, never
	// which floats they compute — so it is excluded from config
	// fingerprints, and a checkpointed run may resume under a different
	// value. 0 selects the default (256k events). The in-memory drivers
	// ignore it: their sequence is already one window holding every chunk.
	ShardEvents int `json:"-"`

	// observer/metrics are the observability hooks, settable only through
	// FitContext's Options (WithObserver/WithMetrics). Unexported on
	// purpose: the exported Config surface — and the zero value every
	// existing caller constructs — is unchanged by the observability layer.
	observer obs.FitObserver
	metrics  *obs.Metrics
}

func (c *Config) fill() error {
	if err := c.Variant.validate(); err != nil {
		return err
	}
	if c.EMIters <= 0 {
		c.EMIters = 12
	}
	if c.MStepIters <= 0 {
		c.MStepIters = 25
	}
	if c.IntegrationGrid <= 0 {
		c.IntegrationGrid = 192
	}
	if c.KernelDamping < 0 || c.KernelDamping >= 1 {
		c.KernelDamping = 0.5
	}
	if c.ParamDamping < 0 || c.ParamDamping >= 1 {
		c.ParamDamping = 0.5
	}
	if c.MuBandHigh <= 1 {
		c.MuBandHigh = 2.5
	}
	if c.EStepSmoothing <= 0 {
		c.EStepSmoothing = 0.02
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 1
	}
	if c.ShardEvents <= 0 {
		c.ShardEvents = 256 << 10
	}
	if c.Resume && c.CheckpointDir == "" {
		return errors.New("core: Resume requires CheckpointDir")
	}
	c.Guard.Fill()
	return nil
}

// Model is a fitted CHASSIS (or HP-baseline) model.
type Model struct {
	M       int
	Variant Variant
	Horizon float64

	// Mu is the exogenous intensity per dimension.
	Mu []float64
	// Kernels holds the per-receiver triggering kernels.
	Kernels []kernel.Kernel
	// Forest is the final inferred branching structure of the training
	// sequence.
	Forest *branching.Forest
	// Conf exposes the conformity computer built on the final forest.
	Conf *conformity.Computer
	// History records training LL per EM iteration when requested.
	History []float64
	// Iterations is the number of EM iterations run.
	Iterations int

	cfg        Config
	link       hawkes.Link
	seq        *timeline.Sequence
	estepCalls int
	// stepScale multiplies the M-step's projected-gradient initial step; 1
	// normally, halved by each numerical-guard recovery (guard.Policy.
	// StepBackoff) so retried iterations take more conservative ascent
	// steps. Persisted in checkpoints so resumed runs keep the backoff.
	stepScale float64
	// curIter/curAttempt are the EM loop's position, maintained for the
	// fault-injection hooks' deterministic coordinates.
	curIter, curAttempt int
	// muLo/muHi, when set (conformity variants after a warm start), bound
	// the per-dimension exogenous intensity in the M-step: the HP pilot
	// already estimated the exogenous level with a more expressive
	// excitation, and leaving μ free lets it absorb the endogenous mass
	// whenever the conformity features start out weak (the all-immigrant
	// collapse). Pinning μ to a band around the pilot's estimate forces
	// the optimizer to explain the residual through γᴵ/γᴺ.
	muLo, muHi []float64
	// params holds the excitation parameters, one packed row per receiver:
	// the γᴵ, β, γᴺ of the conformity variants, or the free α of the HP
	// baselines, on the row's sources (the sparse pair support the M-step
	// optimizes over) and its tail.
	params *params
	// reads[i] is the read set of dimension i (params.readSets): every user
	// j whose conformity pair (i, j) the model can query. Every conformity
	// build keeps only these pairs, and the kernel pass walks them.
	reads [][]int
}

// excitation adapts the fitted parameters to the hawkes.Excitation
// interface. conf/forest are passed explicitly so the same parameters can
// be rebound to a held-out sequence's diffusion trees for evaluation.
type excitation struct {
	m    *Model
	conf *conformity.Computer
}

// Alpha implements hawkes.Excitation: Eq. 4.1 for conformity variants, the
// learned coefficient for HP baselines; a pair without a row entry has no
// excitation. Under the linear link, negative conformity (disagreement)
// clamps to zero excitation rather than inhibition: a single inhibitory pair
// would otherwise pin λ to the numerical floor at observed events, where the
// likelihood has value but no gradient — the instability that clamping
// removes. Nonlinear links keep the signed value (inhibition is well-behaved
// inside an exponential).
func (e excitation) Alpha(i, j int, t float64) float64 {
	v := e.m.params.find(i, j)
	if v == nil {
		return 0
	}
	l := e.m.layout()
	if !l.conformityAware {
		return v[alphaOff]
	}
	var a float64
	if l.useInformational {
		if g := v[gammaIOff]; g != 0 {
			a += g * e.conf.Informational(i, j, t, v[betaOff])
		}
	}
	if l.useNormative {
		if g := v[l.gammaNOff()]; g != 0 {
			a += g * e.conf.Normative(i, j, t)
		}
	}
	if a < 0 {
		if _, linear := e.m.link.(hawkes.LinearLink); linear {
			return 0
		}
	}
	return a
}

// SetWorkers retunes the parallelism of subsequent operations on the model
// (InferForest, likelihood evaluations): n <= 0 restores the GOMAXPROCS
// default. Results are unaffected — only wall-clock changes — so a model
// loaded on a different machine can be re-tuned freely.
func (m *Model) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	m.cfg.Workers = n
}

// compensatorOpts returns the adaptive Theorem-7.1 integrator options with
// the model's worker budget (and, when the fit was observed, its metrics
// registry) threaded through, so likelihood evaluations fan their
// per-dimension compensators out over the same pool as the fit.
func (m *Model) compensatorOpts() hawkes.CompensatorOptions {
	o := hawkes.DefaultCompensator()
	o.Workers = m.cfg.Workers
	o.Metrics = m.cfg.metrics
	return o
}

// Process materializes the fitted model as a Hawkes process bound to the
// training-time conformity state.
func (m *Model) Process() *hawkes.Process {
	return m.processWith(m.Conf)
}

func (m *Model) processWith(conf *conformity.Computer) *hawkes.Process {
	return &hawkes.Process{
		M: m.M, Mu: m.Mu,
		Exc:        excitation{m: m, conf: conf},
		Kernels:    hawkes.PerReceiverKernels{Ks: m.Kernels},
		Link:       m.link,
		NoFastPath: m.cfg.FastPath == FastPathOff,
	}
}

// EstimatedInfluence returns the model's influence-matrix estimate Â used
// by the RankCorr metric: for HP baselines, the learned coefficients; for
// conformity variants, the *effective* excitation — the average of
// Eq. 4.1's αᵢⱼ(t) over the source user's actual activity times, which is
// exactly the weight the model applied to j's events when exciting i.
// Conformity variants need the training sequence for those times, so a
// model without one (a FitSharded fit) returns nil for them. The result is a
// fresh dense M×M matrix.
func (m *Model) EstimatedInfluence() [][]float64 {
	if m.Variant.ConformityAware && m.seq == nil {
		return nil
	}
	out := make([][]float64, m.M)
	for i := range out {
		out[i] = make([]float64, m.M)
		if !m.Variant.ConformityAware {
			m.params.each(i, func(j int, v []float64) { out[i][j] = v[alphaOff] })
		}
	}
	if !m.Variant.ConformityAware {
		return out
	}
	byUser := m.seq.ByUser()
	exc := excitation{m: m, conf: m.Conf}
	for i := 0; i < m.M; i++ {
		for _, j := range m.params.sources(i) {
			events := byUser[j]
			if len(events) == 0 {
				continue
			}
			var sum float64
			for _, k := range events {
				sum += exc.Alpha(i, j, m.seq.Activities[k].Time)
			}
			out[i][j] = sum / float64(len(events))
		}
	}
	return out
}

// TrainLogLikelihood evaluates Eq. 7.1 on the training sequence under the
// fitted parameters (reference implementation via the hawkes engine).
func (m *Model) TrainLogLikelihood() (float64, error) {
	if m.seq == nil {
		return 0, errors.New("core: model carries no training sequence (sharded fits keep the corpus on disk)")
	}
	return m.Process().LogLikelihood(m.seq, m.compensatorOpts())
}

// InferForest runs the E-step tree inference against an arbitrary
// polarity-annotated sequence using the fitted parameters, returning the
// inferred branching structure. The sequence's own ground-truth parents
// (if any) are ignored. Unlike the EM's internal E-steps — which sample
// parents to explore the posterior — the final readout takes the MAP
// assignment, which is what Table 1 scores.
func (m *Model) InferForest(seq *timeline.Sequence) (*branching.Forest, error) {
	if seq.M != m.M {
		return nil, fmt.Errorf("core: sequence has %d dimensions, model has %d", seq.M, m.M)
	}
	// Bootstrap conformity from an initial heuristic forest, then one
	// parameter-driven pass (two passes let conformity-based excitation
	// inform the final trees).
	src := newSeqSource(seq)
	f, err := m.bootstrapForest(nil, src)
	if err != nil {
		return nil, err
	}
	for pass := 0; pass < 2; pass++ {
		conf, err := src.conformity(f, m.cfg.Conformity, m.reads)
		if err != nil {
			return nil, err
		}
		f, err = m.eStepMode(nil, src, conf, true, nil, nil)
		if err != nil {
			return nil, err
		}
	}
	return f, nil
}
