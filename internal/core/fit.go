package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"chassis/internal/branching"
	"chassis/internal/conformity"
	"chassis/internal/faultinject"
	"chassis/internal/guard"
	"chassis/internal/hawkes"
	"chassis/internal/kernel"
	"chassis/internal/obs"
	"chassis/internal/parallel"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

// MaxSourcesPerDim caps the optimizer's per-dimension pair support: the
// strongest co-occurring source users are kept, the long tail (which
// carries almost no likelihood signal but linear cost) is dropped.
const MaxSourcesPerDim = 15

// Fit runs the semi-parametric EM of Sections 6–7 on a training sequence
// and returns the fitted model. It is FitContext without cancellation or
// observability hooks.
func Fit(seq *timeline.Sequence, cfg Config) (*Model, error) {
	return FitContext(nil, seq, cfg)
}

// FitContext is Fit with lifecycle control: ctx cancels the EM loop
// cooperatively — the cancellation is honored at the chunk/job boundaries
// of the parallel worker pool, the error is a *CanceledError wrapping
// ctx.Err() and naming the iteration and phase it aborted in, and no model
// (partial state) is returned — and opts attach observability
// (WithObserver, WithMetrics). An attached observer or registry only reads
// fitted state, so the fitted parameters and forest are bit-identical to an
// unobserved Fit at every Workers setting. ctx may be nil (never
// cancelled).
//
// FitContext and FitSharded run one EM loop over two event sources: here the
// whole sequence is one window holding every scheduling chunk, so
// Config.ShardEvents has no effect.
func FitContext(ctx context.Context, seq *timeline.Sequence, cfg Config, opts ...Option) (*Model, error) {
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if seq == nil || seq.Len() == 0 {
		return nil, errors.New("core: empty training sequence")
	}
	// Full input validation before any EM work: structural invariants plus
	// the dirty-input classes (non-finite polarities, duplicate events) that
	// would otherwise poison the fit silently. The wrapped error is a
	// *timeline.ValidationError; timeline.Sequence.Repair fixes the
	// repairable classes.
	if err := seq.Check(); err != nil {
		return nil, fmt.Errorf("core: invalid training sequence: %w", err)
	}
	var observed *branching.Forest
	if cfg.UseObservedTrees {
		var err error
		if observed, err = branching.FromSequence(seq); err != nil {
			return nil, fmt.Errorf("core: UseObservedTrees: %w", err)
		}
	}
	// Unless the platform exposes connectivity, the sequence must be
	// treated as unlabeled: inference never reads the ground-truth parents.
	src := newSeqSource(seq.StripParents())
	src.raw = seq
	m, err := fit(ctx, src, cfg, observed, nil)
	if err != nil {
		return nil, err
	}
	m.seq = seq
	return m, nil
}

// fit is the semi-parametric EM loop behind FitContext and FitSharded. cfg
// is filled; observed, when non-nil, is the platform's forest, which
// replaces tree inference; ranked, when non-nil, is cooccurrenceSources'
// ranking of src's columns at cfg.KernelSupport, which the warm-start pilot
// takes from the outer fit instead of ranking again.
func fit(ctx context.Context, src eventSource, cfg Config, observed *branching.Forest, ranked [][]int) (*Model, error) {
	cols, seq := src.columns(), src.sequence()
	if cfg.KernelSupport <= 0 {
		// Data-driven kernel horizon. Bursty streams make the median gap
		// collapse to the intra-burst spacing, which would cut slow
		// triggering tails (replies to a cascade's root minutes later), so
		// the scale comes from an upper gap quantile with a median-based
		// floor, capped so sparse streams don't blow the support up to the
		// whole window.
		cfg.KernelSupport = supportHeuristic(cols)
	}
	if cfg.InitKernelRate <= 0 {
		cfg.InitKernelRate = 5 / cfg.KernelSupport
	}
	if cfg.ExpKernel {
		// A parametric exponential kernel has no nonparametric update to
		// apply; the flag subsumes the ablation knob.
		cfg.FixedKernel = true
	}
	link, err := cfg.Variant.Link()
	if err != nil {
		return nil, err
	}

	obsv := cfg.observer
	metrics := cfg.metrics
	if obsv != nil && metrics == nil {
		// Observer without registry: instrument into a private registry so
		// per-iteration Euler-step counts still reach IterStats.
		metrics = obs.NewMetrics()
		cfg.metrics = metrics
	}

	m := &Model{
		M: cols.m, Variant: cfg.Variant, Horizon: cols.horizon,
		Mu:      make([]float64, cols.m),
		Kernels: make([]kernel.Kernel, cols.m),
		cfg:     cfg, link: link,
		stepScale: 1,
	}

	var ckpt *checkpointer
	if cfg.CheckpointDir != "" {
		if ckpt, err = newCheckpointer(cfg, src.dataHash()); err != nil {
			return nil, err
		}
	}

	var forest *branching.Forest
	startIter := 0
	var lastHealthyLL float64
	var hasHealthyLL bool
	resumed := false
	if cfg.Resume {
		f, it, ll, hasLL, err := m.loadFitState(ckpt)
		switch {
		case err == nil:
			// Everything the interrupted run computed before the EM loop —
			// kernels, sources, μ bands, the warm-start pilot's output — is
			// inside the checkpoint, so the whole initialization below is
			// skipped and the loop continues exactly where it stopped.
			forest, startIter = f, it
			lastHealthyLL, hasHealthyLL = ll, hasLL
			resumed = true
		case isNoCheckpoint(err):
			// Nothing on disk yet: a resume of a never-started run is a
			// fresh start, so deployments can pass -resume unconditionally.
		default:
			return nil, err
		}
	}

	if !resumed {
		if err := m.initKernels(); err != nil {
			return nil, err
		}

		coocc := ranked
		if coocc == nil {
			if coocc, err = cooccurrenceSources(cols, cfg.KernelSupport, cfg.Workers); err != nil {
				return nil, err
			}
		}
		if err := m.initParams(cols, coocc); err != nil {
			return nil, err
		}

		_, linear := m.link.(hawkes.LinearLink)
		// The warm start (L-HP pilot + μ band) exists to bootstrap *tree
		// inference*: without credible first trees, conformity is zero and EM
		// collapses to the all-immigrant fixed point. When the platform exposes
		// connectivity the trees are given, conformity is informative from the
		// first iteration, and the unconstrained fit is strictly better — so
		// observed-tree fits skip the pilot entirely.
		needWarm := (cfg.Variant.ConformityAware || !linear) && !cfg.NoWarmStart && observed == nil
		if observed != nil {
			forest = observed
		} else if needWarm {
			// Conformity quantities are computed from diffusion trees, and the
			// first trees come from an uninformed model — a cold EM start can
			// settle at the near-Poisson fixed point. Warm-starting from a
			// short L-HP fit (the paper's "parametric evaluation procedure
			// assists in identifying conformity") seeds the loop with credible
			// trees, kernels, and — crucially — a clean exogenous/endogenous
			// split: the linear model's μ is the exogenous rate, which
			// nonlinear links (whose μ is a log-rate that would otherwise
			// absorb the whole stream) inherit as ln(μ_linear).
			hpCfg := cfg
			hpCfg.Variant = VariantLHP
			hpCfg.EMIters = cfg.EMIters/3 + 2
			hpCfg.NoWarmStart = true
			hpCfg.TrackHistory = false
			// The pilot shares the metrics registry (its compensator work is part
			// of this fit) but not the observer: the observer contract promises
			// strictly increasing iteration numbers for *this* fit only. It also
			// never checkpoints — the outer fit's checkpoint subsumes it. It
			// runs on the same source at the same support, so the corpus is
			// not read again and the co-occurrence ranking is this fit's.
			hpCfg.observer = nil
			hpCfg.CheckpointDir = ""
			hpCfg.Resume = false
			hp, err := fit(ctx, src, hpCfg, nil, coocc)
			if err != nil {
				return nil, wrapCancel("warmstart", 0, err)
			}
			copy(m.Kernels, hp.Kernels)
			forest = hp.Forest
			// Pin μ to a band around the pilot's exogenous estimate (see the
			// muLo field comment).
			m.muLo = make([]float64, m.M)
			m.muHi = make([]float64, m.M)
			for i, mu := range hp.Mu {
				if linear {
					m.Mu[i] = mu
					m.muLo[i] = mu * 0.25
					m.muHi[i] = mu*cfg.MuBandHigh + 1e-6
				} else {
					lmu := math.Log(math.Max(mu, 1e-6))
					m.Mu[i] = lmu
					m.muLo[i] = lmu - 0.7
					m.muHi[i] = lmu + 0.7
				}
			}
		} else {
			forest, err = m.bootstrapForest(ctx, src)
			if err != nil {
				return nil, wrapCancel("bootstrap", 0, err)
			}
		}
		// Conformity variants draw their pair support from the diffusion trees:
		// those are the pairs with interaction history, hence nonzero
		// conformity. (Co-occurrence ranks fill the remaining slots.)
		if cfg.Variant.ConformityAware && forest != nil {
			if err := m.initParams(cols, forestSources(cols, forest, coocc)); err != nil {
				return nil, err
			}
			if m.muLo != nil {
				// Re-initializing overwrote the pinned μ; restore the band
				// centers.
				for i := range m.Mu {
					m.Mu[i] = (m.muLo[i] + m.muHi[i]) / 2
				}
			}
		}
	}

	// The sources are final (fresh or resumed), so the read set is too.
	m.reads = m.params.readSets()

	// Alternation schedule: conformity (and the diffusion trees beneath it)
	// is a *slow* variable — refreshing it every iteration couples two
	// stochastic fixed-point updates and oscillates. Instead the trees and
	// conformity snapshot are held fixed for a phase of M-step iterations
	// (parametric + nonparametric), then refreshed by one MAP E-step.
	refreshEvery := cfg.EMIters / 3
	if refreshEvery < 2 {
		refreshEvery = 2
	}
	if testRefreshEvery > 0 {
		refreshEvery = testRefreshEvery
	}
	var conf *conformity.Computer
	rebuildConf := func() error {
		if !cfg.Variant.ConformityAware {
			return nil
		}
		// Every reader of the previous snapshot has finished; dropping it
		// first keeps two computers from being live at once.
		conf = nil
		start := time.Now()
		var err error
		conf, err = src.conformity(forest, cfg.Conformity, m.reads)
		metrics.Timer("core.conformity").Add(time.Since(start))
		return err
	}
	if err := rebuildConf(); err != nil {
		return nil, err
	}
	guardOn := cfg.Guard.Enabled
	// The training LL is evaluated per iteration when the caller asked for
	// the history, an observer wants to report it, or the guard needs it for
	// regression checks — a pure computation either way, so neither
	// observing nor guarding a fit can change the fitted parameters. It
	// needs the in-memory sequence.
	trackLL := seq != nil && (cfg.TrackHistory || obsv != nil || guardOn)
	eulerCounter := metrics.Counter("hawkes.euler_steps")

	// fail flushes the last captured checkpoint before an error exit, so a
	// cancelled (SIGTERM'd) or crashed-by-injection run leaves its most
	// recent completed iteration on disk for -resume.
	fail := func(err error) error {
		if ckpt != nil {
			ckpt.flush() // best-effort: the primary error wins
		}
		return err
	}

	// runIter executes one EM iteration attempt against the current state:
	// M-step, kernel update, (scheduled) E-step + conformity refresh, and
	// the training-LL evaluation, with the guard's health checks
	// interleaved. A non-nil violation means the attempt must be rolled
	// back; a non-nil error aborts the fit.
	runIter := func(iterNo int) (st obs.IterStats, vphase string, viol *guard.Violation, err error) {
		if obsv != nil {
			obsv.OnIterStart(iterNo)
		}
		iterStart := time.Now()
		st = obs.IterStats{Iter: iterNo}
		eulerBefore := eulerCounter.Value()
		defer func() {
			st.Seconds = time.Since(iterStart).Seconds()
			st.EulerSteps = eulerCounter.Value() - eulerBefore
		}()

		var ms *mstepStats
		if obsv != nil || guardOn {
			ms = &mstepStats{}
		}
		msStart := time.Now()
		if err = m.mStep(ctx, cols, conf, ms); err != nil {
			err = wrapCancel("mstep", iterNo, err)
			return
		}
		msDur := time.Since(msStart)
		st.MStepSeconds = msDur.Seconds()
		metrics.Timer("core.mstep").Add(msDur)
		if !cfg.FixedKernel {
			kStart := time.Now()
			if err = m.updateKernels(ctx, cols, conf); err != nil {
				err = wrapCancel("kernels", iterNo, err)
				return
			}
			kDur := time.Since(kStart)
			st.KernelSeconds = kDur.Seconds()
			metrics.Timer("core.kernels").Add(kDur)
		}
		if ms != nil && !math.IsNaN(ms.gradNorm) {
			st.GradNorm, st.GradNormValid = ms.gradNorm, true
		}
		if obsv != nil {
			obsv.OnMStep(obs.MStepStats{
				Iter: iterNo, Seconds: st.MStepSeconds,
				KernelSeconds: st.KernelSeconds,
				GradNorm:      st.GradNorm, GradNormValid: st.GradNormValid,
				Dims: ms.dims,
			})
		}
		if guardOn {
			if vphase, viol = m.healthCheck(&cfg.Guard, st); viol != nil {
				return
			}
		}
		if observed == nil && iterNo%refreshEvery == 0 && iterNo < cfg.EMIters {
			// Phase boundary: annealed E-step (sampled in the first half of
			// the run, MAP later; asynchronous against the previous forest),
			// then a fresh conformity snapshot.
			mapMode := cfg.MAPEStep || iterNo-1 >= cfg.EMIters/2
			var es *estepStats
			if obsv != nil {
				es = &estepStats{}
			}
			eStart := time.Now()
			forest, err = m.eStepMode(ctx, src, conf, mapMode, forest, es)
			if err != nil {
				err = wrapCancel("estep", iterNo, err)
				return
			}
			eDur := time.Since(eStart)
			st.EStepSeconds = eDur.Seconds()
			metrics.Timer("core.estep").Add(eDur)
			if obsv != nil {
				if !math.IsNaN(es.entropy) {
					st.Entropy, st.EntropyValid = es.entropy, true
				}
				obsv.OnEStep(obs.EStepStats{
					Iter: iterNo, Seconds: st.EStepSeconds,
					Entropy: st.Entropy, EntropyValid: st.EntropyValid,
					Events: es.events, MAP: mapMode,
				})
			}
			if err = rebuildConf(); err != nil {
				return
			}
		}
		m.Iterations = iterNo
		if trackLL {
			llOpts := m.compensatorOpts()
			llOpts.Ctx = ctx
			llStart := time.Now()
			var ll float64
			ll, err = m.processWith(conf).LogLikelihood(seq, llOpts)
			if err != nil {
				err = wrapCancel("loglik", iterNo, err)
				return
			}
			llDur := time.Since(llStart)
			st.LLSeconds = llDur.Seconds()
			metrics.Timer("core.loglik").Add(llDur)
			st.TrainLL, st.TrainLLValid = ll, true
			if cfg.TrackHistory {
				m.History = append(m.History, ll)
			}
			if guardOn {
				if v := cfg.Guard.CheckLL(ll, lastHealthyLL, hasHealthyLL); v != nil {
					vphase, viol = "loglik", v
					return
				}
			}
		}
		return
	}

	for iter := startIter; iter < cfg.EMIters; iter++ {
		iterNo := iter + 1
		var snap *emSnapshot
		if guardOn {
			snap = m.snapshotState(forest)
		}
		for attempt := 0; ; attempt++ {
			m.curIter, m.curAttempt = iterNo, attempt
			st, vphase, viol, err := runIter(iterNo)
			if err != nil {
				return nil, fail(err)
			}
			if viol == nil {
				if st.TrainLLValid {
					lastHealthyLL, hasHealthyLL = st.TrainLL, true
				}
				if obsv != nil {
					obsv.OnIterEnd(st)
				}
				break
			}
			metrics.Counter("guard.violations").Inc()
			if attempt >= cfg.Guard.MaxRecoveries {
				// Budget exhausted. The model state was left mid-violation;
				// returning no model keeps non-finite Θ out of callers'
				// hands, and the flushed checkpoint holds the last healthy
				// iterate.
				return nil, fail(&guard.NumericalError{
					Phase: vphase, Iteration: iterNo,
					Quantity: viol.Quantity, Value: viol.Value,
					Recoveries: attempt, Reason: viol.Reason,
				})
			}
			// Bounded recovery: roll back to the pre-iteration state, shrink
			// the projected-gradient step, and retry the iteration.
			m.restoreState(snap)
			forest = snap.forest
			if err := rebuildConf(); err != nil {
				return nil, fail(err)
			}
			m.stepScale *= cfg.Guard.StepBackoff
			metrics.Counter("guard.recoveries").Inc()
			obs.NotifyRecovery(obsv, obs.RecoveryStats{
				Iter: iterNo, Attempt: attempt + 1,
				Phase: vphase, Quantity: viol.Quantity, Reason: viol.Reason,
				StepScale: m.stepScale,
			})
		}
		if ckpt != nil {
			if err := ckpt.capture(m, forest, iterNo, lastHealthyLL, hasHealthyLL); err != nil {
				return nil, err
			}
			if err := ckpt.maybeWrite(); err != nil {
				return nil, err
			}
		}
		// Only checkpointing fits consult the crash hook: the nested
		// warm-start pilot (which never checkpoints) would otherwise consume
		// the injected kill before the outer loop's iteration k is reached.
		if hook := faultinject.CrashAfterIter; hook != nil && ckpt != nil && hook(iterNo) {
			// Simulated kill: deliberately no flush — exactly like SIGKILL,
			// only checkpoints the stride already wrote survive.
			return nil, fmt.Errorf("core: after iteration %d: %w", iterNo, faultinject.ErrInjectedCrash)
		}
	}
	if ckpt != nil {
		// Completion checkpoint: a resume of a finished run replays only the
		// final readout below (which restores from this state), so it yields
		// the same model as the uninterrupted run.
		if err := ckpt.flush(); err != nil {
			return nil, err
		}
	}
	// Final tree readout under the converged parameters (observed trees
	// are kept verbatim).
	if observed == nil {
		forest, err = m.eStepMode(ctx, src, conf, true, nil, nil)
		if err != nil {
			return nil, wrapCancel("readout", 0, err)
		}
	}
	m.Forest = forest
	// The readout was the last reader of the loop's snapshot; the model
	// keeps one built on the read-out trees.
	if err := rebuildConf(); err != nil {
		return nil, err
	}
	m.Conf = conf
	if guardOn {
		// The guarded contract's last line of defense: a guarded fit never
		// hands out non-finite parameters, whatever path produced them.
		if phase, v := m.checkParamsFinite(); v != nil {
			return nil, &guard.NumericalError{
				Phase: phase, Iteration: m.Iterations,
				Quantity: v.Quantity, Value: v.Value, Reason: v.Reason,
			}
		}
	}
	return m, nil
}

// initKernels fills the kernel bank with the fit's initial kernels: a
// normalized exponential-plus-uniform mixture tabulated onto the support
// grid. The uniform floor matters: a purely recency-shaped initial kernel
// makes early E-steps attribute everything to the most recent candidate, and
// the nonparametric updates then reinforce that choice — the floor keeps
// slow triggering tails (replies to a cascade's root long after it was
// posted) representable from the start. It reads only the resolved config.
func (m *Model) initKernels() error {
	initKer, err := kernel.NewExponential(m.cfg.InitKernelRate)
	if err != nil {
		return err
	}
	if m.cfg.ExpKernel {
		// Parametric mode: the exponential itself is the kernel for the
		// whole fit, kept as a kernel.Exponential value so the fitted
		// process qualifies for the exponential fast path end to end.
		for i := range m.Kernels {
			m.Kernels[i] = initKer
		}
		return nil
	}
	const taps = 24
	step := m.cfg.KernelSupport / float64(taps)
	vals := make([]float64, taps+1)
	for k := range vals {
		vals[k] = 0.7*initKer.Eval(float64(k)*step) + 0.3/m.cfg.KernelSupport
	}
	sampled, err := kernel.NewDiscrete(step, vals)
	if err != nil {
		return err
	}
	sampled.Normalize()
	for i := range m.Kernels {
		m.Kernels[i] = sampled
	}
	return nil
}

// initParams follows the paper's initialization: μ sampled from U[0, 0.01]
// (linear link; the exp link uses the log event rate so eᵘ starts at the
// right scale) and the coefficients {γᴵ, β, γᴺ} — or α for HP baselines —
// from U[0, 0.1], restricted to the pair support sources. A second call
// keeps the first call's entries outside the new sources as the rows'
// tails.
func (m *Model) initParams(cols *eventCols, sources [][]int) error {
	l := m.layout()
	p, err := m.params.resupport(l, m.M, sources)
	if err != nil {
		return err
	}
	m.params = p
	r := rng.New(m.cfg.Seed).Split(307)
	_, linear := m.link.(hawkes.LinearLink)
	var counts []int
	if !linear {
		counts = make([]int, m.M)
		for _, u := range cols.users {
			counts[u]++
		}
	}
	for i := 0; i < m.M; i++ {
		if linear {
			m.Mu[i] = r.Uniform(1e-4, 0.01)
		} else {
			rate := float64(counts[i])/cols.horizon + 1e-4
			m.Mu[i] = math.Log(rate)
		}
		vals := p.sourceVals(i)
		for s := range p.sources(i) {
			v := vals[s*l.perSrc:]
			if !l.conformityAware {
				v[alphaOff] = r.Uniform(0, 0.1)
				continue
			}
			if l.useInformational {
				v[gammaIOff] = r.Uniform(0, 0.1)
				v[betaOff] = r.Uniform(0.05, 0.5)
			}
			if l.useNormative {
				v[l.gammaNOff()] = r.Uniform(0, 0.1)
			}
		}
	}
	return nil
}

// supportHeuristic picks the triggering-kernel horizon from the inter-event
// gap distribution: max(15×q80, 20×median), capped at Horizon/10.
func supportHeuristic(cols *eventCols) float64 {
	times := cols.times
	n := len(times)
	hi := cols.horizon / 10
	if n < 2 {
		return hi
	}
	gaps := make([]float64, 0, n-1)
	for k := 1; k < n; k++ {
		if g := times[k] - times[k-1]; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return hi
	}
	sort.Float64s(gaps)
	med := gaps[len(gaps)/2]
	q80 := gaps[len(gaps)*4/5]
	s := math.Max(15*q80, 20*med)
	if s <= 0 || s > hi {
		return hi
	}
	return s
}

// forestSources ranks, per receiver, the users whose activities actually
// parented the receiver's responses in the given forest — the pairs that
// carry conformity signal. Remaining slots (up to MaxSourcesPerDim) are
// filled from the temporal co-occurrence ranking so newly-forming pairs can
// still be picked up.
func forestSources(cols *eventCols, forest *branching.Forest, coocc [][]int) [][]int {
	users := cols.users
	counts := make([]map[int]int, cols.m)
	for i := range counts {
		counts[i] = make(map[int]int)
	}
	for k := range users {
		p := forest.Parent(k)
		if p == timeline.NoParent {
			continue
		}
		i := int(users[k])
		j := int(users[p])
		if i != j {
			counts[i][j]++
		}
	}
	out := make([][]int, cols.m)
	for i := range out {
		var list []srcCount
		for j, c := range counts[i] {
			list = append(list, srcCount{j, c})
		}
		js := make([]int, 0, MaxSourcesPerDim)
		seen := make(map[int]bool, MaxSourcesPerDim)
		for _, e := range strongest(list) {
			js = append(js, e.j)
			seen[e.j] = true
		}
		for _, j := range coocc[i] {
			if len(js) >= MaxSourcesPerDim {
				break
			}
			if !seen[j] {
				js = append(js, j)
				seen[j] = true
			}
		}
		sort.Ints(js)
		out[i] = js
	}
	return out
}

// cooccurrenceSources finds, per receiver i, the source users whose events
// most often precede i's events within the kernel support — the sparse
// support the M-step optimizes over. An event of i at position k tallies
// the events of every other user at positions [lo, k), lo the first
// position with time ≥ t − support, so an event at i's own time counts when
// the columns hold it first. Receivers are ranked independently on the
// worker pool, each walking its own events through the by-user index; the
// tallies are exact integers, so the ranking is the same at any worker
// count. The error only reports a worker panic.
func cooccurrenceSources(cols *eventCols, support float64, workers int) ([][]int, error) {
	times, users := cols.times, cols.users
	out := make([][]int, cols.m)
	// Each running worker's buffers: a per-user tally, which a receiver
	// zeroes at the entries it touched before handing it back, the touched
	// users and the candidate list.
	type buffers struct {
		count, touched []int
		list           []srcCount
	}
	pool := sync.Pool{New: func() any { return &buffers{count: make([]int, cols.m)} }}
	err := parallel.Do(workers, cols.m, func(i int) error {
		b := pool.Get().(*buffers)
		defer pool.Put(b)
		count, touched, list := b.count, b.touched[:0], b.list[:0]
		lo := 0
		for _, k := range cols.eventsOf(i) {
			// The window start only moves forward: binary-search it from
			// the previous one. The predicate is the negation of
			// `times[lo] < t−support`, the rule every pruning cursor uses.
			t, base := times[k], lo
			lo = base + sort.Search(int(k)-base, func(x int) bool { return !(times[base+x] < t-support) })
			for w := lo; w < int(k); w++ {
				if j := int(users[w]); j != i {
					if count[j] == 0 {
						touched = append(touched, j)
					}
					count[j]++
				}
			}
		}
		for _, j := range touched {
			if count[j] >= 2 {
				list = append(list, srcCount{j, count[j]})
			}
			count[j] = 0
		}
		b.touched, b.list = touched, list // keep what they grew to
		list = strongest(list)
		js := make([]int, len(list))
		for idx, e := range list {
			js[idx] = e.j
		}
		sort.Ints(js)
		out[i] = js
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// srcCount is a candidate source user j and its tally c for one receiver.
type srcCount struct{ j, c int }

// strongest orders candidates by descending tally, ties by ascending user,
// and keeps the first MaxSourcesPerDim.
func strongest(list []srcCount) []srcCount {
	slices.SortFunc(list, func(a, b srcCount) int {
		if a.c != b.c {
			return cmp.Compare(b.c, a.c)
		}
		return cmp.Compare(a.j, b.j)
	})
	return list[:min(len(list), MaxSourcesPerDim)]
}

// HeldOutLogLikelihood evaluates the fitted model on a held-out sequence:
// ln L(X_test | Θ_train, H_train) of the Model Fitness experiment. Test
// activities keep their absolute times (timeline.Split preserves them), so
// the training history legitimately excites the test window: the combined
// train+test stream is re-assembled, its diffusion trees are inferred with
// the trained parameters, conformity is recomputed on those trees, and
// Eq. 7.1 is evaluated over the test window only, conditioned on everything
// before it.
func (m *Model) HeldOutLogLikelihood(test *timeline.Sequence) (float64, error) {
	if test == nil || test.Len() == 0 {
		return 0, errors.New("core: empty test sequence")
	}
	if test.M != m.M {
		return 0, fmt.Errorf("core: test sequence has %d dimensions, model has %d", test.M, m.M)
	}
	if m.seq == nil {
		return 0, errors.New("core: model carries no training sequence (sharded fits keep the corpus on disk)")
	}
	var combined *timeline.Sequence
	if m.cfg.UseObservedTrees {
		// Connectivity-aware setting: the platform exposes parent links at
		// evaluation time too.
		combined = timeline.Merge(m.M, m.seq, test)
	} else {
		combined = timeline.Merge(m.M, m.seq.StripParents(), test.StripParents())
	}
	from := m.seq.Horizon // end of the training window
	to := combined.Horizon
	if to <= from {
		to = combined.Activities[combined.Len()-1].Time + 1e-9
		combined.Horizon = to
	}
	var conf *conformity.Computer
	if m.Variant.ConformityAware {
		var forest *branching.Forest
		var err error
		if m.cfg.UseObservedTrees {
			forest, err = branching.FromSequence(combined)
		} else {
			forest, err = m.InferForest(combined)
		}
		if err != nil {
			return 0, err
		}
		conf, err = conformity.NewOn(combined, forest, m.cfg.Conformity, m.reads)
		if err != nil {
			return 0, err
		}
	}
	return m.processWith(conf).LogLikelihoodWindow(combined, from, to, m.compensatorOpts())
}

// InferredForest returns the branching structure the final E-step assigned
// to the training sequence.
func (m *Model) InferredForest() *branching.Forest { return m.Forest }
