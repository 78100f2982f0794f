package core

import (
	"context"
	"math"
	"slices"
	"sync"

	"chassis/internal/conformity"
	"chassis/internal/faultinject"
	"chassis/internal/hawkes"
	"chassis/internal/infer"
	"chassis/internal/parallel"
	"chassis/internal/scratch"
)

const lambdaFloor = 1e-12

// srcEvent is one activity that can excite the dimension being optimized.
type srcEvent struct {
	j    int32   // source user
	jIdx int32   // index into sources[i]
	t    float64 // occurrence time
	kInt float64 // ∫₀^{T−t} φᵢ — the linear-link compensator weight
	aN   float64 // αᴺᵢⱼ(t) (β-free, cached per M-step)
}

// winEntry is one (source event, kernel value) pair inside a target's or
// grid point's excitation window.
type winEntry struct {
	src int32
	phi float64
}

// Pools for the M-step's per-dimension data: a worker builds dimension i's
// dimData from them and hands everything back once i is optimized, so at
// most Workers dimensions' data are live at once.
var (
	srcEventPool scratch.Pool[srcEvent]
	winEntryPool scratch.Pool[winEntry]
	windowPool   scratch.Pool[[]winEntry]
	pairPool     scratch.Pool[conformity.Pair]
	slotPool     scratch.Pool[int32]
)

// dimData is everything the per-dimension objective needs, precomputed once
// per M-step (the forest, conformity state, and kernels are fixed within
// one M-step).
type dimData struct {
	i   int
	T   float64
	src []srcEvent
	// Conformity variants with the informational part, per source event:
	// αᴵ's β-free factors 1/ℕᵢ(t) and Ψᵢⱼ(t) (conformity.Pair.Factors).
	inv, psi []float64
	dropped  int          // source events left out: their weight is 0 for every Θ
	targets  [][]winEntry // one window per event of dimension i
	grid     [][]winEntry // Euler-grid windows (nonlinear links only)
	gridH    float64
	pairs    []conformity.Pair // conformity variants: source slot s's pair (i, sources[i][s])

	flat [2][]winEntry // the pooled backing arrays of targets and grid
}

// release hands d's pooled arrays back; d must not be used after.
func (d *dimData) release() {
	srcEventPool.Put(d.src)
	scratch.PutFloats(d.inv)
	scratch.PutFloats(d.psi)
	for _, w := range [...][][]winEntry{d.targets, d.grid} {
		clear(w) // drop the references into flat
		windowPool.Put(w)
	}
	for _, f := range d.flat {
		winEntryPool.Put(f)
	}
	clear(d.pairs) // a pooled handle must not keep the snapshot alive
	pairPool.Put(d.pairs)
}

// pack collects dimension i's current parameters: μ, then the row's source
// values, into a slice from the scratch pool.
func (m *Model) pack(i int) []float64 {
	src := m.params.sourceVals(i)
	x := scratch.Floats(1 + len(src))
	x[0] = m.Mu[i]
	copy(x[1:], src)
	return x
}

// unpack writes an optimized vector back into the model.
func (m *Model) unpack(i int, x []float64) {
	m.Mu[i] = x[0]
	copy(m.params.sourceVals(i), x[1:])
}

// bounds returns box constraints matching pack's layout. Nonlinear links
// get a much tighter excitation ceiling: the pre-link aggregate enters an
// exponential, so coefficients the fixed integration grid cannot veto would
// otherwise blow the held-out compensator up (e^g) on unseen bursts. Both
// slices come from the scratch pool.
func (m *Model) bounds(i int) (lower, upper []float64) {
	l := m.layout()
	srcs := m.params.sources(i)
	n := 1 + len(srcs)*l.perSrc
	lower = scratch.Floats(n)
	upper = scratch.Floats(n)
	_, linear := m.link.(hawkes.LinearLink)
	coefCap := 8.0
	if testCoefCap > 0 {
		coefCap = testCoefCap
	}
	if linear {
		lower[0], upper[0] = 1e-8, 10
	} else {
		lower[0], upper[0] = -12, 3
		coefCap = 4
	}
	if m.muLo != nil {
		lower[0], upper[0] = m.muLo[i], m.muHi[i]
	}
	for s := range srcs {
		if !l.conformityAware {
			lower[l.alphaIdx(s)], upper[l.alphaIdx(s)] = 0, coefCap
			continue
		}
		if l.useInformational {
			lower[l.gammaIIdx(s)], upper[l.gammaIIdx(s)] = 0, coefCap
			lower[l.betaIdx(s)], upper[l.betaIdx(s)] = 0.01, 20
		}
		if l.useNormative {
			lower[l.gammaNIdx(s)], upper[l.gammaNIdx(s)] = 0, coefCap
		}
	}
	return lower, upper
}

// dimObjective is dimension d.i's M-step objective, the log-likelihood of
// Eq. 7.1 over pack's parameters, in two passes. The value pass computes the
// value at x and keeps, per target window and Euler-grid point, what the
// gradient needs: the pre-link sum g and, for a target, the floored λ. The
// gradient pass reads that state and accumulates the gradient terms. eval
// keeps the point of the last value pass, so a call at a bitwise-equal
// point, which is MaximizeProjected's gradient refresh at the trial it just
// accepted, runs only the gradient pass.
//
// For the linear link the compensator is closed-form; for nonlinear links it
// is a fixed-grid Euler sum (the final reported likelihoods use the adaptive
// Theorem 7.1 integrator via the hawkes engine; the fixed grid keeps the
// inner loop fast). The HP baselines' weight αᵢⱼ depends only on the source
// slot, so their passes read it straight from x: no weight refresh over the
// source events and no clamp mask (HP weights are never clamped). The
// conformity-aware variants' per-source-event weight
// w_e = γI·αᴵ(t_e; β) + γN·αᴺ(t_e) moves with β and the γs, so their value
// pass refreshes it first; buildDim reads αᴵ's β-free factors once per
// dimension, which leaves the value pass only the decay recursion, and
// leaves out every source event whose weight is structurally zero.
//
// The refresh is per source slot, since slot s's weights read only s's
// coordinates: a slot none of whose γᴵ, β, γᴺ moved since the last value
// pass, bit for bit, keeps its stored weights, a slot whose γs moved is
// re-weighted from its stored αᴵ, and only a slot whose β moved reruns its
// decay sweep. After every value pass the stored state is what a refresh of
// every slot at o.x would write (DESIGN.md §7, "Per-slot refresh").
//
// The value and each gradient component are independent sums, each added
// in the order one fused value-and-gradient pass would add it, so every
// evaluation is bit-identical to that pass (TestObjectiveMatchesReference;
// DESIGN.md §7, "Fit hot layers").
type dimObjective struct {
	m      *Model
	d      *dimData
	l      layout
	linear bool

	slot []int32 // HP: the packed index of source event e's α

	// Conformity-aware variants, per source event: the weight, αᴵ and
	// ∂αᴵ/∂β at the last value pass's point and the linear-link zero-clamp
	// mask; and the slot index: slot s's source events, in chronological
	// order, are bySlot[slotOff[s]:slotOff[s+1]].
	w, aI, daI      []float64
	clamped         []bool
	bySlot, slotOff []int32

	g   []float64 // pre-link sum per target window, then per grid point
	lam []float64 // floored λ per target window

	x           []float64 // the point of the last value pass
	value       float64   // its value
	valid       bool      // x and value hold a pass
	valuePasses int
	gradPasses  int
	refreshes   int // slots re-weighted by the value passes
	sweeps      int // slots whose decay sweep the value passes reran

	floats []float64 // pooled backing array of every float slice above
	ints   []int32   // pooled backing array of slot, or of bySlot and slotOff
}

var (
	// objectivePool recycles the objectives themselves; release clears one
	// before handing it back.
	objectivePool = sync.Pool{New: func() any { return new(dimObjective) }}
	// clampPool recycles the conformity objectives' clamp masks.
	clampPool scratch.Pool[bool]
)

// objective builds dimension d.i's objective. It and its per-dimension
// state come from pools; release hands them back.
func (m *Model) objective(d *dimData) *dimObjective {
	l := m.layout()
	_, linear := m.link.(hawkes.LinearLink)
	o := objectivePool.Get().(*dimObjective)
	*o = dimObjective{m: m, d: d, l: l, linear: linear}
	nx := 1 + len(m.params.sources(d.i))*l.perSrc
	nSrc := 0
	if l.conformityAware {
		nSrc = len(d.src)
	}
	buf := scratch.Floats(nx + len(d.targets) + len(d.grid) + len(d.targets) + 3*nSrc)
	o.floats = buf
	carve := func(n int) []float64 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	o.x = carve(nx)
	o.g = carve(len(d.targets) + len(d.grid))
	o.lam = carve(len(d.targets))
	if !l.conformityAware {
		o.ints = slotPool.Get(len(d.src))
		o.slot = o.ints
		for e := range d.src {
			o.slot[e] = int32(l.alphaIdx(int(d.src[e].jIdx)))
		}
		return o
	}
	o.w, o.aI, o.daI = carve(nSrc), carve(nSrc), carve(nSrc)
	o.clamped = clampPool.Get(nSrc)
	// The slot index, by counting: slotOff[s] first counts slot s's events,
	// then marks the end of its run, and the events, placed backwards,
	// move it down to the run's start.
	slots := len(m.params.sources(d.i))
	o.ints = slotPool.Get(nSrc + slots + 1)
	o.bySlot, o.slotOff = o.ints[:nSrc], o.ints[nSrc:]
	for e := range d.src {
		o.slotOff[d.src[e].jIdx]++
	}
	var end int32
	for s := range o.slotOff {
		end += o.slotOff[s]
		o.slotOff[s] = end
	}
	for e := len(d.src) - 1; e >= 0; e-- {
		s := d.src[e].jIdx
		o.slotOff[s]--
		o.bySlot[o.slotOff[s]] = int32(e)
	}
	return o
}

// release returns the objective and its pooled state; o must not be used
// after.
func (o *dimObjective) release() {
	scratch.PutFloats(o.floats)
	clampPool.Put(o.clamped)
	slotPool.Put(o.ints)
	*o = dimObjective{}
	objectivePool.Put(o)
}

// eval is the infer.Objective: the value at x, and the gradient into grad
// when grad is not nil. The value pass runs unless x is bitwise the point of
// the last one.
func (o *dimObjective) eval(x, grad []float64) float64 {
	if !o.at(x) {
		if o.l.conformityAware {
			o.value = o.conformityValue(x)
		} else {
			o.value = o.staticValue(x)
		}
		copy(o.x, x)
		o.valid = true
		o.valuePasses++
	}
	if grad != nil {
		clear(grad)
		if o.l.conformityAware {
			o.conformityGradient(grad)
		} else {
			o.staticGradient(grad)
		}
		o.gradPasses++
	}
	return o.value
}

// at reports whether x is, bit for bit, the point of the last value pass.
func (o *dimObjective) at(x []float64) bool {
	if !o.valid {
		return false
	}
	for p, v := range x {
		if math.Float64bits(v) != math.Float64bits(o.x[p]) {
			return false
		}
	}
	return true
}

// staticValue is the HP value pass.
func (o *dimObjective) staticValue(x []float64) float64 {
	d, link, slot := o.d, o.m.link, o.slot
	mu := x[0]
	var value float64

	// Event term: Σ ln λ(t_k).
	for k, win := range d.targets {
		g := mu
		for _, en := range win {
			g += x[slot[en.src]] * en.phi
		}
		lam := link.Apply(g)
		if lam < lambdaFloor {
			lam = lambdaFloor
		}
		o.g[k], o.lam[k] = g, lam
		value += math.Log(lam)
	}

	// Compensator term.
	if o.linear {
		value -= math.Max(mu, 0) * d.T
		for e := range d.src {
			value -= x[slot[e]] * d.src[e].kInt
		}
		return value
	}
	gs := o.g[len(d.targets):]
	for s, win := range d.grid {
		g := mu
		for _, en := range win {
			g += x[slot[en.src]] * en.phi
		}
		gs[s] = g
		value -= d.gridH * link.Apply(g)
	}
	return value
}

// staticGradient is the HP gradient pass at the last value pass's point.
func (o *dimObjective) staticGradient(grad []float64) {
	d, link, slot := o.d, o.m.link, o.slot
	for k, win := range d.targets {
		c := link.Deriv(o.g[k]) / o.lam[k]
		grad[0] += c
		for _, en := range win {
			grad[slot[en.src]] += c * en.phi
		}
	}
	if o.linear {
		grad[0] -= d.T
		for e := range d.src {
			grad[slot[e]] += -d.src[e].kInt
		}
		return
	}
	gs := o.g[len(d.targets):]
	for s, win := range d.grid {
		c := -d.gridH * link.Deriv(gs[s])
		grad[0] += c
		for _, en := range win {
			grad[slot[en.src]] += c * en.phi
		}
	}
}

// conformityValue is the conformity-aware value pass: it refreshes the
// weights of the source slots whose coordinates moved, then sums the terms.
// The first pass of an objective refreshes every slot with a kept event.
func (o *dimObjective) conformityValue(x []float64) float64 {
	d, l, link, w := o.d, o.l, o.m.link, o.w
	mu := x[0]
	for s := range len(o.slotOff) - 1 {
		evs := o.bySlot[o.slotOff[s]:o.slotOff[s+1]]
		if len(evs) == 0 {
			continue
		}
		sweep := l.useInformational && o.moved(x, l.betaIdx(s))
		if sweep || (l.useInformational && o.moved(x, l.gammaIIdx(s))) ||
			(l.useNormative && o.moved(x, l.gammaNIdx(s))) {
			o.refresh(x, s, evs, sweep)
		}
	}
	var value float64

	// Event term: Σ ln λ(t_k).
	for k, win := range d.targets {
		g := mu
		for _, en := range win {
			g += w[en.src] * en.phi
		}
		lam := link.Apply(g)
		if lam < lambdaFloor {
			lam = lambdaFloor
		}
		o.g[k], o.lam[k] = g, lam
		value += math.Log(lam)
	}

	// Compensator term.
	if o.linear {
		value -= math.Max(mu, 0) * d.T
		for idx := range d.src {
			value -= w[idx] * d.src[idx].kInt
		}
		return value
	}
	gs := o.g[len(d.targets):]
	for s, win := range d.grid {
		g := mu
		for _, en := range win {
			g += w[en.src] * en.phi
		}
		gs[s] = g
		value -= d.gridH * link.Apply(g)
	}
	return value
}

// moved reports whether x[p] differs, bit for bit, from the last value
// pass's point, or no value pass ran yet.
func (o *dimObjective) moved(x []float64, p int) bool {
	return !o.valid || math.Float64bits(x[p]) != math.Float64bits(o.x[p])
}

// refresh re-weights source slot s's events evs under x. With sweep it first
// recomputes their αᴵ and ∂αᴵ/∂β at the slot's β, in one monotone decay
// sweep: a cursor's answers depend only on β, the pair's samples and the
// query times, so they are bit-identical to InformationalGrad at every
// event, whichever slots and passes ran before.
func (o *dimObjective) refresh(x []float64, s int, evs []int32, sweep bool) {
	d, l := o.d, o.l
	o.refreshes++
	if sweep {
		o.sweeps++
		cur := d.pairs[s].Decay(x[l.betaIdx(s)])
		for _, e := range evs {
			o.aI[e], o.daI[e] = cur.Informational(d.src[e].t, d.inv[e], d.psi[e])
		}
	}
	for _, e := range evs {
		var wt float64
		if l.useInformational {
			// αᴵ first: where αᴵ and γᴵ are both NaN, the product keeps the
			// NaN of the operand the compiler holds in a register, and this
			// order makes it αᴵ, as for an αᴵ fresh from a cursor (the
			// reference tests compare NaNs bit for bit).
			wt += o.aI[e] * x[l.gammaIIdx(s)]
		}
		if l.useNormative {
			wt += x[l.gammaNIdx(s)] * d.src[e].aN
		}
		// Mirror excitation.Alpha: linear-link clamp with zero subgradient
		// while clamped.
		o.clamped[e] = o.linear && wt < 0
		if o.clamped[e] {
			wt = 0
		}
		o.w[e] = wt
	}
}

// conformityGradient is the conformity-aware gradient pass at the last value
// pass's point.
func (o *dimObjective) conformityGradient(grad []float64) {
	d, link := o.d, o.m.link
	for k, win := range d.targets {
		c := link.Deriv(o.g[k]) / o.lam[k]
		grad[0] += c
		for _, en := range win {
			if !o.clamped[en.src] {
				o.accumGrad(grad, en.src, c*en.phi)
			}
		}
	}
	if o.linear {
		grad[0] -= d.T
		for idx := range d.src {
			if !o.clamped[idx] {
				o.accumGrad(grad, int32(idx), -d.src[idx].kInt)
			}
		}
		return
	}
	gs := o.g[len(d.targets):]
	for s, win := range d.grid {
		c := -d.gridH * link.Deriv(gs[s])
		grad[0] += c
		for _, en := range win {
			if !o.clamped[en.src] {
				o.accumGrad(grad, en.src, c*en.phi)
			}
		}
	}
}

// accumGrad adds scale·∂(w_e)/∂θ into the conformity parameter gradient for
// source event e (w_e = γI·αᴵ + γN·αᴺ), at the last value pass's point.
func (o *dimObjective) accumGrad(grad []float64, e int32, scale float64) {
	l := o.l
	s := int(o.d.src[e].jIdx)
	if l.useInformational {
		grad[l.gammaIIdx(s)] += scale * o.aI[e]
		grad[l.betaIdx(s)] += scale * o.x[l.gammaIIdx(s)] * o.daI[e]
	}
	if l.useNormative {
		grad[l.gammaNIdx(s)] += scale * o.d.src[e].aN
	}
}

// mstepStats is the per-pass measurement mStep fills when the fit is
// observed: the largest per-dimension projected-gradient L2 norm at the
// accepted (damped) parameters — a convergence signal that decays as the
// M-step saturates — and how many dimensions were optimized. Collecting it
// costs one extra objective+gradient evaluation per dimension and reads
// nothing but frozen state, so the fitted parameters are unaffected.
type mstepStats struct {
	gradNorm float64 // max over dims; NaN when no dimension produced one
	dims     int
}

// mStep optimizes every dimension's parameters in parallel against the
// current forest/conformity state. Dimensions are independent — each reads
// the frozen forest/conformity snapshot and writes only its own parameter
// rows — so they fan out over the shared worker pool; the per-dimension
// optimization itself is deterministic, which keeps the fitted parameters
// identical at any worker count. ctx is polled between dimensions; stats,
// when non-nil, receives the pass's gradient-norm measurement. The returned
// error only reports worker panics or cancellation: a dimension whose
// optimizer fails simply keeps its parameters.
//
// The worker for dimension i builds i's data itself (buildDim, from the
// columns' by-user index), optimizes it and drops it, so the pass reads the
// columns alone — in memory and out of core alike — and at most Workers
// dimensions' data are live at once.
func (m *Model) mStep(ctx context.Context, cols *eventCols, conf *conformity.Computer, stats *mstepStats) error {
	var norms []float64
	if stats != nil {
		norms = make([]float64, m.M)
		for i := range norms {
			norms[i] = math.NaN()
		}
	}
	initStep := 0.05
	if m.stepScale > 0 {
		// Guard recoveries shrink the ascent step; 0 (a zero-value Model,
		// e.g. one rebuilt by LoadModel) means "never recovered".
		initStep *= m.stepScale
	}
	err := parallel.DoContext(ctx, parallel.Workers(m.cfg.Workers), m.M, func(i int) error {
		d := m.buildDim(cols, conf, i)
		norm := m.optimizeDim(i, d, initStep, norms != nil)
		d.release()
		if norms != nil {
			norms[i] = norm
		}
		return nil
	})
	if err != nil || stats == nil {
		return err
	}
	stats.dims = m.M
	stats.gradNorm = math.NaN()
	for _, v := range norms {
		if !math.IsNaN(v) && (math.IsNaN(stats.gradNorm) || v > stats.gradNorm) {
			stats.gradNorm = v
		}
	}
	return nil
}

// buildDim assembles dimension i's dimData: the events of i's sources
// (time, kInt, aN, and αᴵ's β-free factors) and one target window per event
// of i, kernel values in event order, plus the Euler-grid windows of a
// nonlinear link and, for the conformity variants, each source slot's pair
// handle. It is the M-step's only dimension builder;
// TestBatchBuilderMatchesPerDim pins it, grid windows included, to a
// reference that scans the whole sequence once per dimension.
//
// A conformity variant's source event is left out, counted in d.dropped,
// when its weight w_e = γI·Φ·Ψ + γN·αᴺ is zero for every Θ: the
// informational part is off or 1/ℕᵢ(t_e) = 0 or Ψᵢⱼ(t_e) = 0, and the
// normative part is off or αᴺᵢⱼ(t_e) = 0. Such a term adds ±0 to every sum
// the objective forms, so leaving it out of d.src, and so out of every
// window, changes no bit of the objective at finite points (DESIGN.md §7,
// "Structurally zero terms").
//
// It walks the positions of i's events and its sources' events merged into
// global order (eventCols.merge), so it meets exactly the events a
// chronological scan of the corpus meets for i, in the same order. At an
// event of i the target window comes first: it admits only sources strictly
// before the target, so an event that is both a target and a source joins
// d.src afterwards and counts for later windows only. The window is
// d.src[start:] with start advanced by the `t < target − support` rule;
// times are nondecreasing, so pruned sources stay prunable.
func (m *Model) buildDim(cols *eventCols, conf *conformity.Computer, i int) *dimData {
	l := m.layout()
	info := l.conformityAware && l.useInformational
	norm := l.conformityAware && l.useNormative
	ker := m.Kernels[i]
	support := ker.Support()
	T := cols.horizon
	srcs := m.params.sources(i)
	users := srcs
	if !slices.Contains(srcs, i) {
		users = append(srcs[:len(srcs):len(srcs)], i)
	}
	nSrc := 0
	for _, j := range srcs {
		nSrc += len(cols.eventsOf(j))
	}
	d := &dimData{i: i, T: T}
	if nSrc > 0 {
		d.src = srcEventPool.Get(nSrc)[:0]
		if info {
			d.inv, d.psi = scratch.Floats(nSrc)[:0], scratch.Floats(nSrc)[:0]
		}
	}
	if l.conformityAware && len(srcs) > 0 {
		d.pairs = pairPool.Get(len(srcs))
		for s, j := range srcs {
			d.pairs[s] = conf.Pair(i, j)
		}
	}
	w := newWindows(len(cols.eventsOf(i)))
	start := 0
	evs := cols.merge(users)
	defer positions.Put(evs)
	for _, k := range evs {
		t, u := cols.times[k], int(cols.users[k])
		if u == i {
			for start < len(d.src) && d.src[start].t < t-support {
				start++
			}
			for e := start; e < len(d.src); e++ {
				dt := t - d.src[e].t
				if dt <= 0 {
					continue
				}
				if phi := ker.Eval(dt); phi > 0 {
					w.add(int32(e), phi)
				}
			}
			w.close()
		}
		s := slices.Index(srcs, u)
		if s < 0 {
			continue
		}
		e := srcEvent{j: int32(u), jIdx: int32(s), t: t}
		var inv, psi float64
		if info {
			inv, psi = d.pairs[s].Factors(t)
		}
		if norm {
			e.aN = d.pairs[s].Normative(t)
		}
		if l.conformityAware && (inv == 0 || psi == 0) && e.aN == 0 {
			d.dropped++
			continue
		}
		if info {
			d.inv, d.psi = append(d.inv, inv), append(d.psi, psi)
		}
		e.kInt = ker.Integral(T - t)
		d.src = append(d.src, e)
	}
	d.targets, d.flat[0] = w.cut()
	if _, linear := m.link.(hawkes.LinearLink); !linear {
		m.buildGrid(d)
	}
	return d
}

// windows collects a dimension's windows back to back in one array, so the
// builder grows one slice instead of one per window and the objective reads
// them contiguously. Both arrays are pooled.
type windows struct {
	flat []winEntry
	ends []int
}

// newWindows starts a collection of n windows.
func newWindows(n int) windows {
	return windows{flat: winEntryPool.Get(0), ends: scratch.Ints(n)[:0]}
}

func (w *windows) add(src int32, phi float64) { w.flat = append(w.flat, winEntry{src: src, phi: phi}) }

// close ends the current window.
func (w *windows) close() { w.ends = append(w.ends, len(w.flat)) }

// cut returns the closed windows in order, an empty window nil, and the
// array behind them, which the windows reference until it goes back to the
// pool; it returns the ends array to its pool.
func (w *windows) cut() ([][]winEntry, []winEntry) {
	defer scratch.PutInts(w.ends)
	if len(w.ends) == 0 {
		return nil, w.flat
	}
	out := windowPool.Get(len(w.ends))
	lo := 0
	for k, hi := range w.ends {
		if hi > lo {
			out[k] = w.flat[lo:hi:hi]
		}
		lo = hi
	}
	return out, w.flat
}

// buildGrid adds dimension d.i's Euler-grid windows for a nonlinear link.
// Grid point s sits at ts = s·gridH with gridH = T/g, and its window holds,
// in order, the source events with ts − support ≤ t < ts, dt ≤ support and
// φ > 0. d.src is every event of the dimension's sources in chronological
// order, so a cursor pruned by the same rule visits exactly the source
// events a scan of the whole sequence would, in the same order, and every
// window entry is the same (index, φ) pair.
func (m *Model) buildGrid(d *dimData) {
	ker := m.Kernels[d.i]
	support := ker.Support()
	g := m.cfg.IntegrationGrid
	d.gridH = d.T / float64(g)
	w := newWindows(g)
	lo := 0
	for s := 0; s < g; s++ {
		ts := float64(s) * d.gridH // left endpoints
		for lo < len(d.src) && d.src[lo].t < ts-support {
			lo++
		}
		for e := lo; e < len(d.src) && d.src[e].t < ts; e++ {
			dt := ts - d.src[e].t
			if dt > support {
				continue
			}
			if phi := ker.Eval(dt); phi > 0 {
				w.add(int32(e), phi)
			}
		}
		w.close()
	}
	d.grid, d.flat[1] = w.cut()
}

// optimizeDim runs the per-dimension optimizer stage on prepared dimData:
// pack, box bounds, projected-gradient ascent, damped blend, fault-injection
// hook, unpack. Returns the measured projected-gradient norm when wantNorm
// (NaN when the optimizer failed and the dimension kept its parameters).
// The objective's pass counts, slot refreshes and decay sweeps, the
// optimizer's rejected trials and the source events d admitted and left out
// go to the metrics registry once per dimension.
func (m *Model) optimizeDim(i int, d *dimData, initStep float64, wantNorm bool) float64 {
	x0 := m.pack(i)
	lower, upper := m.bounds(i)
	obj := m.objective(d)
	var res infer.Result
	defer func() {
		reg := m.cfg.metrics
		reg.Counter("core.mstep_value_passes").Add(int64(obj.valuePasses))
		reg.Counter("core.mstep_grad_passes").Add(int64(obj.gradPasses))
		reg.Counter("core.mstep_rejected_trials").Add(int64(res.Rejected))
		reg.Counter("core.mstep_src_events").Add(int64(len(d.src)))
		reg.Counter("core.mstep_src_dropped").Add(int64(d.dropped))
		reg.Counter("core.mstep_slot_refreshes").Add(int64(obj.refreshes))
		reg.Counter("core.mstep_decay_sweeps").Add(int64(obj.sweeps))
		obj.release()
		for _, s := range [...][]float64{x0, lower, upper} {
			scratch.PutFloats(s)
		}
	}()
	res, err := infer.MaximizeProjected(x0, obj.eval, infer.Options{
		MaxIter: m.cfg.MStepIters,
		Lower:   lower, Upper: upper,
		InitStep: initStep, Tol: 1e-7,
	})
	if err != nil {
		return math.NaN() // leave this dimension's parameters unchanged
	}
	// Damped update: the E-step's sampled trees make the objective a
	// noisy target; blending iterates stabilizes the alternation.
	damp := m.cfg.ParamDamping
	for p := range res.X {
		res.X[p] = damp*x0[p] + (1-damp)*res.X[p]
	}
	var grad []float64
	if wantNorm {
		// Projected-gradient evaluation at the accepted point: a pure
		// extra call, the objective reads only its arguments.
		grad = make([]float64, len(res.X))
		obj.eval(res.X, grad)
	}
	if hook := faultinject.MStepResult; hook != nil {
		// Fault injection: the hook may poison the accepted parameters
		// or the reported gradient at deterministic (iter, attempt, dim)
		// coordinates; whatever it plants must be caught by the guard
		// before it reaches the caller.
		hook(m.curIter, m.curAttempt, i, res.X, grad)
	}
	m.unpack(i, res.X)
	if !wantNorm {
		return math.NaN()
	}
	// Components pinned at an active box bound (and pushing outward)
	// carry no usable ascent direction, so they are excluded.
	var ss float64
	for p, g := range grad {
		if (res.X[p] <= lower[p] && g < 0) || (res.X[p] >= upper[p] && g > 0) {
			continue
		}
		ss += g * g
	}
	return math.Sqrt(ss)
}
