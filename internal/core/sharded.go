package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"time"

	"chassis/internal/branching"
	"chassis/internal/colstore"
	"chassis/internal/conformity"
	"chassis/internal/faultinject"
	"chassis/internal/hawkes"
	"chassis/internal/kernel"
	"chassis/internal/obs"
	"chassis/internal/parallel"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

// ShardedUnsupportedError reports a Config feature the out-of-core driver
// does not implement. FitSharded fails fast with one of these instead of
// silently computing something different from FitContext: every feature it
// does support is bit-identical to the in-memory fit, and features that
// would break that contract (or that inherently need the whole sequence in
// memory, like the nonparametric kernel update's spectral pass) are
// rejected up front.
type ShardedUnsupportedError struct {
	Feature string
}

func (e *ShardedUnsupportedError) Error() string {
	return fmt.Sprintf("core: sharded fit does not support %s", e.Feature)
}

// shardSource is the out-of-core fit's view of a colstore corpus: the flat
// (time, user) columns — 12 bytes per event, the only whole-corpus state the
// driver keeps — plus the global scheduling-chunk grid and its grouping into
// shards. Everything heavier (activity structs for E-step windows, dimData
// for M-step batches) is materialized per shard or per batch and released
// before the next one, which is what bounds peak memory below the corpus
// size: the corpus rows carry kinds, topics, polarities, parents, and text
// that the fit never loads.
type shardSource struct {
	times   []float64
	users   []uint32
	horizon float64
	// chunks is the fixed estepChunkSize grid over [0, n) — the same grid
	// the in-memory E-step shards over, so chunk indices (and with them the
	// per-chunk RNG streams) are identical in both drivers.
	chunks []parallel.Range
	// shards groups consecutive chunks: shard s covers
	// chunks[shards[s][0]:shards[s][1]], at least Config.ShardEvents events
	// except for the final remainder.
	shards [][2]int
	// buf is the reusable activity window, grown to the largest
	// shard+halo seen.
	buf []timeline.Activity
}

func newShardSource(rd *colstore.Reader, shardEvents int) (*shardSource, error) {
	n := rd.NumEvents()
	s := &shardSource{
		times:   make([]float64, n),
		users:   make([]uint32, n),
		horizon: rd.Horizon(),
		chunks:  parallel.Chunks(n, estepChunkSize),
	}
	err := rd.Scan(0, n, func(g int, t float64, user int) {
		s.times[g] = t
		s.users[g] = uint32(user)
	})
	if err != nil {
		return nil, err
	}
	for c0 := 0; c0 < len(s.chunks); {
		c1, events := c0, 0
		for c1 < len(s.chunks) && events < shardEvents {
			events += s.chunks[c1].Hi - s.chunks[c1].Lo
			c1++
		}
		s.shards = append(s.shards, [2]int{c0, c1})
		c0 = c1
	}
	return s, nil
}

// forEachShard materializes each shard's halo-extended activity window and
// hands it to fn together with the shard's slice of the global chunk grid.
// The halo extends the window left to the first event within one kernel
// support of the shard's first event, which is exactly the invariant
// windowStartIn needs: every sliding-window query a chunk body issues stays
// inside the window, so shard-local scans see precisely the events the
// in-memory scan sees. Shards run sequentially — one window lives at a time.
//
// Windows carry only the fields the chunk bodies read (ID, Time, User;
// Parent pinned to NoParent like a stripped sequence) — text and marks stay
// on disk.
func (s *shardSource) forEachShard(support float64, fn func(win []timeline.Activity, off int, chunks []parallel.Range) error) error {
	for _, sh := range s.shards {
		chunks := s.chunks[sh[0]:sh[1]]
		lo, hi := chunks[0].Lo, chunks[len(chunks)-1].Hi
		off := sort.SearchFloat64s(s.times, s.times[lo]-support)
		need := hi - off
		if cap(s.buf) < need {
			s.buf = make([]timeline.Activity, need)
		}
		win := s.buf[:need]
		for g := off; g < hi; g++ {
			win[g-off] = timeline.Activity{
				ID:     timeline.ActivityID(g),
				Time:   s.times[g],
				User:   timeline.UserID(s.users[g]),
				Parent: timeline.NoParent,
			}
		}
		if err := fn(win, off, chunks); err != nil {
			return err
		}
	}
	return nil
}

// colEvents adapts the flat columns to the M-step's eventSource: one tight
// chronological (time, user) pass per dimension batch.
type colEvents struct{ s *shardSource }

func (c colEvents) horizon() float64 { return c.s.horizon }

func (c colEvents) scan(fn func(t float64, user int)) error {
	for k := range c.s.times {
		fn(c.s.times[k], int(c.s.users[k]))
	}
	return nil
}

// bootstrapForestSharded is bootstrapForest driven shard-by-shard: the same
// global chunk grid, the same Split(101)-derived per-chunk RNG streams, the
// same chunk body — only the storage the chunks read through changes.
func (m *Model) bootstrapForestSharded(ctx context.Context, sh *shardSource) (*branching.Forest, error) {
	base := rng.New(m.cfg.Seed).Split(101)
	parents := make([]int32, len(sh.times))
	workers := parallel.Workers(m.cfg.Workers)
	support := m.Kernels[0].Support()
	err := sh.forEachShard(support, func(win []timeline.Activity, off int, chunks []parallel.Range) error {
		return parallel.DoContext(ctx, workers, len(chunks), func(ci int) error {
			c := chunks[ci]
			r := base.Split(int64(c.Index) + 1)
			m.bootstrapChunk(win, off, c, r, parents)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return branching.FromParents32(parents)
}

// eStepSharded is eStepMode driven shard-by-shard. The per-chunk RNG
// streams, entropy accumulators, and parents slots are all indexed by global
// chunk/event position, so the inferred forest — and the reported entropy —
// are bit-identical to the in-memory pass at any worker count and shard
// size. conf is the iteration's frozen conformity snapshot (nil for the
// baseline variants); the excitation it parameterizes is queried by
// (receiver, source, time) only, which is why the shard windows never need
// polarity columns.
func (m *Model) eStepSharded(ctx context.Context, sh *shardSource, conf *conformity.Computer, mapMode bool, prev *branching.Forest, stats *estepStats) (*branching.Forest, error) {
	m.estepCalls++
	base := rng.New(m.cfg.Seed).Split(211 + int64(m.estepCalls))
	exc := excitation{m: m, conf: conf}
	parents := make([]int32, len(sh.times))
	maxSupport := 0.0
	for _, ker := range m.Kernels {
		if s := ker.Support(); s > maxSupport {
			maxSupport = s
		}
	}
	var entSum []float64
	var entCnt []int
	if stats != nil {
		entSum = make([]float64, len(sh.chunks))
		entCnt = make([]int, len(sh.chunks))
	}
	workers := parallel.Workers(m.cfg.Workers)
	err := sh.forEachShard(maxSupport, func(win []timeline.Activity, off int, chunks []parallel.Range) error {
		return parallel.DoContext(ctx, workers, len(chunks), func(ci int) error {
			c := chunks[ci]
			r := base.Split(int64(c.Index) + 1)
			m.eStepChunk(win, off, c, r, exc, maxSupport, mapMode, prev, parents, entSum, entCnt)
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	if stats != nil {
		var sum float64
		var cnt int
		for idx := range entSum {
			sum += entSum[idx]
			cnt += entCnt[idx]
		}
		stats.events = cnt
		stats.entropy = math.NaN()
		if cnt > 0 {
			stats.entropy = sum / float64(cnt)
		}
	}
	return branching.FromParents32(parents)
}

// FitSharded runs the EM fit out-of-core against a colstore corpus: the
// E-step and bootstrap walk the corpus shard-by-shard through halo-extended
// windows, the M-step streams (time, user) columns through the batched
// builder, and peak memory is bounded by O(events)·12 bytes of flat columns
// plus one shard of activity structs plus one dimension batch — never the
// materialized corpus. The supported configuration subset — linear-link
// variants, conformity-aware (CHASSIS-L/LI/LN) or not (L-HP/E-HP), with a
// fixed or parametric-exponential kernel — is bit-identical to FitContext on
// the equivalent in-memory sequence at every Workers and ShardEvents
// setting; see DESIGN.md §15–§16 for the argument. Unsupported features fail
// with *ShardedUnsupportedError.
//
// Conformity-aware fits rebuild the pair-history computer from a streaming
// colstore scan (times, users, polarities) once per conformity refresh,
// through the same column-built path conformity.New uses — the snapshot, and
// with it every fitted parameter, matches the in-memory fit bit for bit. The
// transient scan state is O(events)·20 bytes plus the retained per-pair
// series; Config.Conformity.MaxActivePairs bounds the latter. Each build
// counts its distinct (receiver, source) pairs before it allocates any
// series column, and fails with *conformity.PairBudgetError exactly when
// that count exceeds the budget, instead of exhausting memory on
// adversarially dense corpora.
//
// Checkpointing and resume work as in FitContext, with the corpus identified
// by the colstore footer fingerprint instead of the sequence hash. An
// attached observer receives the usual callbacks except that training
// log-likelihoods are never computed (TrainLLValid stays false): evaluating
// Eq. 7.1 needs the hawkes engine's full-sequence compensators, and
// observation must not change what the driver can fit.
//
// The returned model carries no training sequence: methods that re-read it
// (TrainLogLikelihood, HeldOutLogLikelihood) report an error.
func FitSharded(ctx context.Context, rd *colstore.Reader, cfg Config, opts ...Option) (*Model, error) {
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if rd == nil || rd.NumEvents() == 0 {
		return nil, errors.New("core: empty colstore corpus")
	}
	link, err := cfg.Variant.Link()
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.UseObservedTrees:
		return nil, &ShardedUnsupportedError{Feature: "UseObservedTrees (platform connectivity arrives with a sequence, not a colstore corpus)"}
	case cfg.TrackHistory:
		return nil, &ShardedUnsupportedError{Feature: "TrackHistory (training LL needs the full sequence)"}
	case cfg.Guard.Enabled:
		return nil, &ShardedUnsupportedError{Feature: "the numerical guard (its LL regression check needs the full sequence)"}
	}
	if _, linear := link.(hawkes.LinearLink); !linear {
		// Nonlinear compensators integrate over an Euler grid whose windows
		// the batched streaming builder does not assemble.
		if cfg.Variant.ConformityAware {
			return nil, &ShardedUnsupportedError{Feature: "conformity-aware variants with nonlinear links (Euler-grid compensators need the full sequence; use CHASSIS-L/LI/LN)"}
		}
		return nil, &ShardedUnsupportedError{Feature: "nonlinear links"}
	}

	sh, err := newShardSource(rd, cfg.ShardEvents)
	if err != nil {
		return nil, err
	}
	if cfg.KernelSupport <= 0 {
		cfg.KernelSupport = supportFromTimes(sh.times, rd.Horizon())
	}
	if cfg.InitKernelRate <= 0 {
		cfg.InitKernelRate = 5 / cfg.KernelSupport
	}
	if cfg.ExpKernel {
		cfg.FixedKernel = true
	}
	if !cfg.FixedKernel {
		// The nonparametric update (Eqs. 7.5–7.8) DFTs whole counting
		// processes per dimension — inherently a full-sequence pass.
		if cfg.Variant.ConformityAware {
			return nil, &ShardedUnsupportedError{Feature: "conformity-aware variants with nonparametric kernel updates (the spectral pass needs the full sequence; set FixedKernel or ExpKernel)"}
		}
		return nil, &ShardedUnsupportedError{Feature: "nonparametric kernel updates (set FixedKernel or ExpKernel)"}
	}
	return fitShardedOn(ctx, rd, sh, cfg)
}

// fitShardedOn is FitSharded past validation: cfg is filled, gated, and has
// its kernel support resolved, and sh already holds the corpus columns. The
// conformity warm-start pilot recurses here with the L-HP pilot config so it
// reuses the shard source instead of re-scanning the corpus.
func fitShardedOn(ctx context.Context, rd *colstore.Reader, sh *shardSource, cfg Config) (*Model, error) {
	link, err := cfg.Variant.Link()
	if err != nil {
		return nil, err
	}
	obsv := cfg.observer
	metrics := cfg.metrics
	if obsv != nil && metrics == nil {
		metrics = obs.NewMetrics()
		cfg.metrics = metrics
	}

	// Baseline variants allocate only the excitation matrix — the conformity
	// parameter matrices stay nil, exactly as LoadModel leaves them for
	// persisted baseline models. Conformity-aware variants get the same dense
	// parameter set the in-memory fit carries.
	m := &Model{
		M: rd.M(), Variant: cfg.Variant, Horizon: rd.Horizon(),
		Mu:      make([]float64, rd.M()),
		Alpha:   dense(rd.M()),
		Kernels: make([]kernel.Kernel, rd.M()),
		cfg:     cfg, link: link,
		stepScale: 1,
	}
	if cfg.Variant.ConformityAware {
		m.GammaI, m.GammaN, m.Beta = dense(m.M), dense(m.M), dense(m.M)
	}

	var ckpt *checkpointer
	if cfg.CheckpointDir != "" {
		if ckpt, err = newCheckpointer(cfg, rd.Fingerprint()); err != nil {
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
			forest, startIter = f, it
			lastHealthyLL, hasHealthyLL = ll, hasLL
			resumed = true
		case isNoCheckpoint(err):
		default:
			return nil, err
		}
	}

	if !resumed {
		if err := m.initKernels(); err != nil {
			return nil, err
		}
		m.sources = cooccurrenceFromCols(sh.times, sh.users, m.M, cfg.KernelSupport)
		m.initParams(nil)
		// Conformity-aware fits warm-start from a short sharded L-HP pilot —
		// the same pilot FitContext runs, for the same reason (cold trees make
		// conformity zero and EM collapses to the all-immigrant fixed point).
		// Linear non-conformity fits never warm-start: the bootstrap forest is
		// the initialization.
		needWarm := cfg.Variant.ConformityAware && !cfg.NoWarmStart
		if needWarm {
			hpCfg := cfg
			hpCfg.Variant = VariantLHP
			hpCfg.EMIters = cfg.EMIters/3 + 2
			hpCfg.NoWarmStart = true
			hpCfg.TrackHistory = false
			// Shares the metrics registry, never the observer or checkpoint —
			// see the FitContext pilot for the contract.
			hpCfg.observer = nil
			hpCfg.CheckpointDir = ""
			hpCfg.Resume = false
			hp, err := fitShardedOn(ctx, rd, sh, hpCfg)
			if err != nil {
				return nil, wrapCancel("warmstart", 0, err)
			}
			copy(m.Kernels, hp.Kernels)
			forest = hp.Forest
			// Pin μ to a band around the pilot's exogenous estimate (only the
			// linear branch of FitContext's band applies: nonlinear links never
			// reach this driver).
			m.muLo = make([]float64, m.M)
			m.muHi = make([]float64, m.M)
			for i, mu := range hp.Mu {
				m.Mu[i] = mu
				m.muLo[i] = mu * 0.25
				m.muHi[i] = mu*cfg.MuBandHigh + 1e-6
			}
		} else {
			forest, err = m.bootstrapForestSharded(ctx, sh)
			if err != nil {
				return nil, wrapCancel("bootstrap", 0, err)
			}
		}
		if cfg.Variant.ConformityAware && forest != nil {
			// Conformity variants draw their pair support from the diffusion
			// trees (the pairs with interaction history); co-occurrence ranks
			// fill the remaining slots. Same re-rank + re-init as FitContext,
			// through the shared column-ranking body.
			m.sources = forestSourcesFromCols(sh.users, m.M, forest, m.sources)
			m.initParams(nil)
			if m.muLo != nil {
				// Re-initializing overwrote the pinned μ; restore the band
				// centers.
				for i := range m.Mu {
					m.Mu[i] = (m.muLo[i] + m.muHi[i]) / 2
				}
			}
		}
	}

	refreshEvery := cfg.EMIters / 3
	if refreshEvery < 2 {
		refreshEvery = 2
	}
	if testRefreshEvery > 0 {
		refreshEvery = testRefreshEvery
	}
	// buildConf streams the corpus columns straight off the colstore blocks
	// into the conformity accumulator — pass 1 of the two-pass iteration
	// (DESIGN.md §16). The polarity column is never resident in the shard
	// source; only the accumulator's transient copy and the finalized
	// computer's pair series live across the scan. Finalize feeds the exact
	// column-built path conformity.New uses, so the snapshot is bit-identical
	// to the in-memory fit's.
	var conf *conformity.Computer
	buildConf := func(f *branching.Forest) (*conformity.Computer, error) {
		acc := conformity.NewAccumulator(m.M, cfg.Conformity)
		var appendErr error
		if err := rd.ScanPolar(0, rd.NumEvents(), func(g int, t float64, user int, pol float64) {
			if appendErr == nil {
				appendErr = acc.Append(t, user, pol)
			}
		}); err != nil {
			return nil, err
		}
		if appendErr != nil {
			return nil, appendErr
		}
		return acc.Finalize(f)
	}
	rebuildConf := func() error {
		if !cfg.Variant.ConformityAware {
			return nil
		}
		// Every reader of the previous snapshot has finished; dropping it
		// first keeps two computers from being live at once.
		conf = nil
		var err error
		conf, err = buildConf(forest)
		return err
	}
	if err := rebuildConf(); err != nil {
		return nil, err
	}
	eulerCounter := metrics.Counter("hawkes.euler_steps")

	fail := func(err error) error {
		if ckpt != nil {
			ckpt.flush() // best-effort: the primary error wins
		}
		return err
	}

	// One EM iteration, mirroring FitContext's runIter minus the gated
	// features: no kernel update (FixedKernel enforced), no training-LL
	// evaluation, no guard health checks.
	runIter := func(iterNo int) (st obs.IterStats, err error) {
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
		if obsv != nil {
			ms = &mstepStats{}
		}
		msStart := time.Now()
		if err = m.mStepStream(ctx, colEvents{sh}, conf, ms); err != nil {
			err = wrapCancel("mstep", iterNo, err)
			return
		}
		msDur := time.Since(msStart)
		st.MStepSeconds = msDur.Seconds()
		metrics.Timer("core.mstep").Add(msDur)
		if ms != nil && !math.IsNaN(ms.gradNorm) {
			st.GradNorm, st.GradNormValid = ms.gradNorm, true
		}
		if obsv != nil {
			obsv.OnMStep(obs.MStepStats{
				Iter: iterNo, Seconds: st.MStepSeconds,
				GradNorm: st.GradNorm, GradNormValid: st.GradNormValid,
				Dims: ms.dims,
			})
		}
		if iterNo%refreshEvery == 0 && iterNo < cfg.EMIters {
			mapMode := cfg.MAPEStep || iterNo-1 >= cfg.EMIters/2
			var es *estepStats
			if obsv != nil {
				es = &estepStats{}
			}
			eStart := time.Now()
			forest, err = m.eStepSharded(ctx, sh, conf, mapMode, forest, es)
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
		return
	}

	for iter := startIter; iter < cfg.EMIters; iter++ {
		iterNo := iter + 1
		m.curIter, m.curAttempt = iterNo, 0
		st, err := runIter(iterNo)
		if err != nil {
			return nil, fail(err)
		}
		if obsv != nil {
			obsv.OnIterEnd(st)
		}
		if ckpt != nil {
			if err := ckpt.capture(m, forest, iterNo, lastHealthyLL, hasHealthyLL); err != nil {
				return nil, err
			}
			if err := ckpt.maybeWrite(); err != nil {
				return nil, err
			}
		}
		if hook := faultinject.CrashAfterIter; hook != nil && ckpt != nil && hook(iterNo) {
			return nil, fmt.Errorf("core: after iteration %d: %w", iterNo, faultinject.ErrInjectedCrash)
		}
	}
	if ckpt != nil {
		if err := ckpt.flush(); err != nil {
			return nil, err
		}
	}
	// Final MAP tree readout under the converged parameters, then — for
	// conformity-aware fits — the final conformity snapshot under the read-out
	// trees, matching FitContext's epilogue.
	forest, err = m.eStepSharded(ctx, sh, conf, true, nil, nil)
	if err != nil {
		return nil, wrapCancel("readout", 0, err)
	}
	m.Forest = forest
	if cfg.Variant.ConformityAware {
		conf = nil // the readout was its last reader
		if m.Conf, err = buildConf(forest); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Fingerprint digests the fitted state — μ, the parameters on the active
// pair support, and the inferred forest — into a short stable string. Two
// fits are fingerprint-equal exactly when they produced bit-identical
// parameters and parent assignments, which is how the sharded-vs-in-memory
// identity suite (and the CLI's printed fingerprint) compare runs without
// shipping whole models around.
func (m *Model) Fingerprint() string {
	h := fnv.New64a()
	buf := make([]byte, 8)
	w64 := func(v uint64) {
		for b := 0; b < 8; b++ {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf)
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	w64(uint64(m.M))
	wf(m.Horizon)
	for _, v := range m.Mu {
		wf(v)
	}
	for i := 0; i < m.M && i < len(m.sources); i++ {
		for _, j := range m.sources[i] {
			w64(uint64(j))
			if !m.Variant.ConformityAware {
				wf(m.Alpha[i][j])
				continue
			}
			if m.Variant.UseInformational {
				wf(m.GammaI[i][j])
				wf(m.Beta[i][j])
			}
			if m.Variant.UseNormative {
				wf(m.GammaN[i][j])
			}
		}
	}
	for _, p := range parentInts(m.Forest) {
		w64(uint64(int64(p)))
	}
	return fmt.Sprintf("model:%016x", h.Sum64())
}
