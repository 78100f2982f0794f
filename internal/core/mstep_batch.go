package core

import (
	"chassis/internal/conformity"
	"chassis/internal/kernel"
)

// mstepBatchDims caps how many dimensions one batched M-step pass assembles
// at a time. Each batch costs one chronological scan of the event stream plus
// O(sources-in-batch) working memory, so the batch size trades scan count
// against peak memory. (A variable only so tests can shrink it and force
// multi-batch execution on small fixtures.)
var mstepBatchDims = 2048

// mstepBatchSrcEvents bounds the summed source-event footprint of one batch:
// a dimension's working set is one srcEvent (32 bytes) per event of each of
// its source users, and because the co-occurrence ranking picks the MOST
// ACTIVE users as sources, the same hub users' event lists are duplicated
// into nearly every dimension of a batch — on a hub-heavy corpus a fixed
// 2048-dim batch can hold gigabytes while the dim cap alone predicts
// megabytes. Packing batches against this budget (computed from exact
// per-user event counts, one cheap extra scan) keeps the peak near
// 32B * budget regardless of how skewed the activity distribution is.
// Batch boundaries never change results — each dimension's data is
// assembled and optimized independently (TestBatchBuilderMatchesPerDim and
// the batch-span sweep in TestBatchedMStepMatchesPerDimOptimizer) — so this
// is purely a memory knob. A nonlinear link's Euler-grid windows are not in
// the budget: each is built in its dimension's optimize worker and released
// with it, so at most Workers grids are live. (A variable only so tests can
// exercise packing.)
var mstepBatchSrcEvents = int64(4 << 20)

// dimSrcRef marks that user j is a source for one batch slot.
type dimSrcRef struct {
	slot int32 // index into the batch's slot array
	jIdx int32 // index into sources[slot's dim]
}

// slotState is one dimension's accumulation state during a batch scan.
type slotState struct {
	d       *dimData
	ker     kernel.Kernel
	support float64
	start   int // prune cursor into d.src: first source inside the support window
}

// batchScratch holds the per-user indexes buildDimDataBatch needs, reused
// across batches so an M-step allocates them once. Entries are reset to
// their empty state after every batch.
type batchScratch struct {
	slotOf  []int32       // user -> batch slot, -1 outside the batch
	srcRefs [][]dimSrcRef // user -> slots listing it as a source
}

func newBatchScratch(m int) *batchScratch {
	s := &batchScratch{slotOf: make([]int32, m), srcRefs: make([][]dimSrcRef, m)}
	for i := range s.slotOf {
		s.slotOf[i] = -1
	}
	return s
}

// buildDimDataBatch assembles dimData for dimensions [lo, hi) with ONE
// chronological scan of the event columns: every source event (times, kInt,
// aN) and every target window, kernel evaluations in event order. It is the
// M-step's only dimension builder; TestBatchBuilderMatchesPerDim pins it,
// grid windows included, to a per-dimension reference builder that scans
// the whole sequence once per dimension.
//
// Per-slot source deques never rescan: a target window is d.src[start:] with
// start advanced by the `time < t − support` rule; since scan times are
// nondecreasing, pruned sources stay prunable. Euler-grid windows (nonlinear
// links) read only d.src, so buildGrid adds them per dimension afterwards.
func (m *Model) buildDimDataBatch(cols *eventCols, conf *conformity.Computer, lo, hi int, scr *batchScratch) []*dimData {
	if scr == nil {
		scr = newBatchScratch(m.M)
	}
	l := m.layout()
	needAN := l.conformityAware && l.useNormative
	T := cols.horizon
	slots := make([]*slotState, hi-lo)
	for i := lo; i < hi; i++ {
		s := int32(i - lo)
		scr.slotOf[i] = s
		slots[s] = &slotState{
			d:       &dimData{i: i, T: T},
			ker:     m.Kernels[i],
			support: m.Kernels[i].Support(),
		}
		for idx, j := range m.sources[i] {
			scr.srcRefs[j] = append(scr.srcRefs[j], dimSrcRef{slot: s, jIdx: int32(idx)})
		}
	}

	for k, t := range cols.times {
		j := int(cols.users[k])
		// Target window first: a window admits only sources strictly
		// before the target event, so an event that is both a target and a
		// source contributes to later windows only.
		if s := scr.slotOf[j]; s >= 0 {
			st := slots[s]
			sv := st.d.src
			for st.start < len(sv) && sv[st.start].t < t-st.support {
				st.start++
			}
			var win []winEntry
			for e := st.start; e < len(sv); e++ {
				dt := t - sv[e].t
				if dt <= 0 {
					continue
				}
				if phi := st.ker.Eval(dt); phi > 0 {
					win = append(win, winEntry{src: int32(e), phi: phi})
				}
			}
			st.d.targets = append(st.d.targets, win)
		}
		for _, ref := range scr.srcRefs[j] {
			st := slots[ref.slot]
			e := srcEvent{
				j: int32(j), jIdx: ref.jIdx, t: t,
				kInt: st.ker.Integral(T - t),
			}
			if needAN {
				e.aN = conf.Normative(st.d.i, j, t)
			}
			st.d.src = append(st.d.src, e)
		}
	}
	// Reset the shared per-user indexes so the next batch starts clean.
	for i := lo; i < hi; i++ {
		scr.slotOf[i] = -1
		for _, j := range m.sources[i] {
			scr.srcRefs[j] = scr.srcRefs[j][:0]
		}
	}
	out := make([]*dimData, hi-lo)
	for s := range slots {
		out[s] = slots[s].d
	}
	return out
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
	d.grid = make([][]winEntry, g)
	lo := 0
	for s := range d.grid {
		ts := float64(s) * d.gridH // left endpoints
		for lo < len(d.src) && d.src[lo].t < ts-support {
			lo++
		}
		var win []winEntry
		for e := lo; e < len(d.src) && d.src[e].t < ts; e++ {
			dt := ts - d.src[e].t
			if dt > support {
				continue
			}
			if phi := ker.Eval(dt); phi > 0 {
				win = append(win, winEntry{src: int32(e), phi: phi})
			}
		}
		d.grid[s] = win
	}
}

// dimSrcCosts counts, per dimension, how many source events its batch slot
// will hold: the summed event counts of its source users (plus one so an
// empty dimension still has positive cost and the packing loop advances).
// One flat counting pass over the user column; exact, not an estimate.
func (m *Model) dimSrcCosts(cols *eventCols) []int64 {
	perUser := make([]int64, m.M)
	for _, j := range cols.users {
		perUser[j]++
	}
	cost := make([]int64, m.M)
	for i := range cost {
		c := int64(1)
		for _, j := range m.sources[i] {
			c += perUser[j]
		}
		cost[i] = c
	}
	return cost
}
