package core

import (
	"context"
	"math"
	"sort"

	"chassis/internal/branching"
	"chassis/internal/conformity"
	"chassis/internal/parallel"
	"chassis/internal/rng"
	"chassis/internal/scratch"
	"chassis/internal/timeline"
)

// estepChunkSize is the shard width of the parallel E-step and bootstrap
// loops. It is fixed at runtime so chunk boundaries — and with them the
// per-chunk RNG streams — depend only on the sequence length, never on the
// worker count: Workers=1 and Workers=64 visit the same events with the
// same random draws and produce bit-identical forests. 512 events amortize
// the per-chunk window re-seek (a binary search) to noise while still
// slicing laptop-scale sequences into enough shards to occupy every core.
// (A variable only so the determinism tests can shrink it and force many
// chunks on small fixtures; production code never writes it.)
var estepChunkSize = 512

// windowStart returns the first activity index whose time is >= t — the
// left edge of a kernel-support window. Each parallel chunk re-derives its
// own sliding `lo` from this instead of inheriting one from a serial scan.
func windowStart(seq *timeline.Sequence, t float64) int {
	return sort.Search(len(seq.Activities), func(k int) bool {
		return seq.Activities[k].Time >= t
	})
}

// windowStartIn is windowStart over an activity window that holds global
// events [off, off+len(win)); the returned index is global. As long as the
// window's left edge extends at least one kernel support before the first
// event it is asked about, the result equals the full-sequence windowStart —
// the invariant the sharded fit's halo materialization maintains, and the
// reason shard-local scans see exactly the events the in-memory scan sees.
func windowStartIn(win []timeline.Activity, off int, t float64) int {
	return off + sort.Search(len(win), func(k int) bool {
		return win[k].Time >= t
	})
}

// bootstrapForest samples an initial branching structure (the EM
// initialization of Section 6): each activity either stays an immigrant or
// attaches to a preceding activity with probability proportional to the
// initial kernel's decay — no model parameters involved yet. Events are
// sharded into fixed chunks, each drawing from its own Split-derived RNG
// stream, so the sampled forest is identical at any worker count and any
// window layout of the source.
func (m *Model) bootstrapForest(ctx context.Context, src eventSource) (*branching.Forest, error) {
	base := rng.New(m.cfg.Seed).Split(101)
	parents := make([]int32, len(src.columns().times))
	workers := parallel.Workers(m.cfg.Workers)
	support := m.Kernels[0].Support()
	err := src.forEachWindow(support, func(win []timeline.Activity, off int, chunks []parallel.Range) error {
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

// bootstrapChunk is the bootstrap's chunk body over one source window (the
// whole sequence with off = 0 in memory, a halo-extended shard window holding
// global events [off, off+len(win)) out of core; c a chunk of the global
// grid). All indices — c.Lo/c.Hi, the sliding window, the parents slots —
// are global; win is only the storage they are read through, so every window
// layout performs the identical float operations in the identical order on
// the identical RNG stream.
func (m *Model) bootstrapChunk(win []timeline.Activity, off int, c parallel.Range, r *rng.RNG, parents []int32) {
	ker := m.Kernels[0]
	support := ker.Support()
	hi := off + len(win)
	// Per-chunk candidate buffers come from the scratch pool: EM runs
	// thousands of chunks per fit, and pooling keeps the steady state
	// allocation-free without touching values (pooled slices read as
	// fresh ones).
	weights := scratch.Floats(0)
	cands := scratch.Ints(0)
	defer func() {
		scratch.PutFloats(weights)
		scratch.PutInts(cands)
	}()
	lo := windowStartIn(win, off, win[c.Lo-off].Time-support)
	for k := c.Lo; k < c.Hi; k++ {
		parents[k] = -1
		ak := &win[k-off]
		for lo < hi && win[lo-off].Time < ak.Time-support {
			lo++
		}
		weights = weights[:0]
		cands = cands[:0]
		// Immigrant weight: roughly one immigrant per kernel support of
		// quiet time; concretely the kernel's mean height over its support
		// works well as a scale-free prior.
		imm := 1.0 / (support + 1)
		weights = append(weights, imm)
		for w := lo; w < k; w++ {
			aw := &win[w-off]
			dt := ak.Time - aw.Time
			if dt <= 0 {
				continue
			}
			if v := ker.Eval(dt); v > 0 {
				weights = append(weights, v)
				cands = append(cands, w)
			}
		}
		if pick := r.Categorical(weights); pick > 0 {
			parents[k] = int32(cands[pick-1])
		}
	}
}

// estepStats is the per-pass measurement eStepMode fills when the fit is
// observed: the mean entropy (nats) of the scored triggering distributions
// and how many events were scored. Collecting it reads the weights the
// E-step already built — no RNG draws, no extra passes — so observed and
// unobserved fits assign identical parents.
type estepStats struct {
	entropy float64 // mean nats per scored event; NaN when none scored
	events  int
}

// eStepMode infers the branching structure under the current parameters:
// for every activity a_{ik}, candidate parents are scored by the Papangelou
// intensity drop F(g) − F(g − c_e), where g is the pre-link aggregate at
// t_{ik} and c_e the candidate's additive contribution; the immigrant
// option is scored F(μᵢ). For the linear link the drop reduces to c_e and
// the rule coincides with the classical triggering-probability ratio of
// linear-Hawkes EM; for nonlinear links it remains well-defined, which is
// the relaxation the paper's Section 6 calls for.
//
// The mode lets the EM driver anneal: sampled assignments early (explore
// the posterior while parameters are uninformative), MAP later (converge
// the trees so the conformity quantities — and with them the likelihood —
// stop jittering between iterations). When prev is non-nil only a random
// half of the events re-assign, the rest keep their previous parent — the
// asynchronous update that breaks the period-2 forest↔conformity cycles
// hard EM is prone to.
//
// Parent assignments are embarrassingly parallel: each event's triggering
// distribution reads only the (frozen) parameters, kernels, and conformity
// state, and writes one disjoint parents slot. The loop is therefore
// sharded into fixed estepChunkSize chunks; chunk c draws from the stream
// Split(211+call).Split(c+1) and re-derives its own sliding support window,
// so the inferred forest is bit-identical for any Workers/GOMAXPROCS and any
// window layout of the source. conf is the iteration's frozen conformity
// snapshot (nil for the baseline variants); the excitation it parameterizes
// is queried by (receiver, source, time) only, which is why windows never
// need polarities.
//
// ctx is polled at chunk boundaries; a cancelled pass returns ctx.Err().
// When stats is non-nil the pass also measures the scored triggering
// distributions (per-chunk entropy accumulators, reduced in chunk order so
// the reported number is itself deterministic).
func (m *Model) eStepMode(ctx context.Context, src eventSource, conf *conformity.Computer, mapMode bool, prev *branching.Forest, stats *estepStats) (*branching.Forest, error) {
	m.estepCalls++
	base := rng.New(m.cfg.Seed).Split(211 + int64(m.estepCalls))
	exc := excitation{m: m, conf: conf}
	n := len(src.columns().times)
	parents := make([]int32, n)
	maxSupport := 0.0
	for _, ker := range m.Kernels {
		if s := ker.Support(); s > maxSupport {
			maxSupport = s
		}
	}
	var entSum []float64
	var entCnt []int
	if stats != nil {
		chunks := len(parallel.Chunks(n, estepChunkSize))
		entSum = make([]float64, chunks)
		entCnt = make([]int, chunks)
	}
	workers := parallel.Workers(m.cfg.Workers)
	err := src.forEachWindow(maxSupport, func(win []timeline.Activity, off int, chunks []parallel.Range) error {
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
		for idx := range entSum { // chunk order: the stat is reproducible too
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

// eStepChunk is the E-step's chunk body over one source window (see
// bootstrapChunk). All indices are global — c.Lo/c.Hi, the sliding support
// window, prev-forest lookups, parents slots, and the entSum/entCnt
// accumulators (indexed by global chunk index) — so a shard boundary changes
// which storage the floats are read from, never which floats are read or in
// what order. That is the bit-identity argument for the out-of-core source
// (DESIGN.md §15).
func (m *Model) eStepChunk(win []timeline.Activity, off int, c parallel.Range, r *rng.RNG, exc excitation, maxSupport float64, mapMode bool, prev *branching.Forest, parents []int32, entSum []float64, entCnt []int) {
	hi := off + len(win)
	ps := newParentScores()
	defer ps.release()
	lo := windowStartIn(win, off, win[c.Lo-off].Time-maxSupport)
	for k := c.Lo; k < c.Hi; k++ {
		parents[k] = -1
		ak := &win[k-off]
		if prev != nil && r.Bernoulli(0.5) {
			parents[k] = int32(prev.Parent(k)) // NoParent == -1 passes through
			continue
		}
		for lo < hi && win[lo-off].Time < ak.Time-maxSupport {
			lo++
		}
		m.scoreParents(win, off, lo, k, exc, m.cfg.EStepSmoothing, &ps)
		if entSum != nil {
			// Triggering-distribution entropy, from the weights already in
			// hand: a pure read that leaves the RNG stream untouched.
			var total float64
			for _, wv := range ps.weights {
				if wv > 0 {
					total += wv
				}
			}
			if total > 0 {
				var h float64
				for _, wv := range ps.weights {
					if wv > 0 {
						p := wv / total
						h -= p * math.Log(p)
					}
				}
				entSum[c.Index] += h
				entCnt[c.Index]++
			}
		}
		pick := 0
		if mapMode {
			pick = argmaxFirst(ps.weights)
		} else {
			pick = r.Categorical(ps.weights)
		}
		if pick > 0 {
			parents[k] = int32(ps.cands[pick-1])
		}
	}
}

// parentScores is one scorer's candidate buffers: weights[0] is the
// immigrant option and weights[1+c] the candidate parent cands[c] (a global
// event index); contribs is scratch. The buffers come from the scratch pool:
// EM scores every event of every E-step and serving scores every ingested
// event, and pooling keeps both allocation-free in steady state without
// touching values (pooled slices read as fresh ones).
type parentScores struct {
	weights, contribs []float64
	cands             []int
}

func newParentScores() parentScores {
	return parentScores{weights: scratch.Floats(0), contribs: scratch.Floats(0), cands: scratch.Ints(0)}
}

func (ps *parentScores) release() {
	scratch.PutFloats(ps.weights)
	scratch.PutFloats(ps.contribs)
	scratch.PutInts(ps.cands)
}

// scoreParents fills ps with event k's triggering distribution, for the
// E-step chunk body and MAPParent alike. win holds global events
// [off, off+len(win)); candidates are the events in [lo, k) inside
// receiver i's kernel support, where lo is the caller's window start (any
// index at or before the first event within that support gives the same
// candidates). A candidate weighs the Papangelou intensity drop
// F(g) − F(g − c_e) against the full pre-link aggregate g, the immigrant
// F(μᵢ); under Config.LinearRatioEStep they are c_e and μᵢ.
func (m *Model) scoreParents(win []timeline.Activity, off, lo, k int, exc excitation, smoothing float64, ps *parentScores) {
	ak := &win[k-off]
	i := int(ak.User)
	ker := m.Kernels[i]
	support := ker.Support()
	g := m.Mu[i]
	ps.cands = ps.cands[:0]
	ps.contribs = ps.contribs[:0]
	for w := lo; w < k; w++ {
		aw := &win[w-off]
		dt := ak.Time - aw.Time
		if dt <= 0 || dt > support {
			continue
		}
		phi := ker.Eval(dt)
		if phi <= 0 {
			continue
		}
		// Smoothed excitation: negative (inhibitory) conformity rules a
		// candidate out of parenthood; the Laplace term keeps the first
		// EM iterations from collapsing to all-immigrant (see Config).
		alpha := exc.Alpha(i, int(aw.User), aw.Time)
		if alpha < 0 {
			alpha = 0
		}
		cw := (alpha + smoothing) * phi
		if cw <= 0 {
			continue
		}
		g += cw
		ps.cands = append(ps.cands, w)
		ps.contribs = append(ps.contribs, cw)
	}
	ps.weights = ps.weights[:0]
	if m.cfg.LinearRatioEStep {
		ps.weights = append(ps.weights, m.Mu[i])
		ps.weights = append(ps.weights, ps.contribs...)
		return
	}
	ps.weights = append(ps.weights, m.link.Apply(m.Mu[i]))
	fg := m.link.Apply(g)
	for _, cw := range ps.contribs {
		ps.weights = append(ps.weights, fg-m.link.Apply(g-cw))
	}
}

// argmaxFirst returns the index of the first maximum of weights (0 when
// none exceeds weights[0]): the MAP pick, ties going to the immigrant and
// then to the earliest candidate.
func argmaxFirst(weights []float64) int {
	pick := 0
	for idx := 1; idx < len(weights); idx++ {
		if weights[idx] > weights[pick] {
			pick = idx
		}
	}
	return pick
}
