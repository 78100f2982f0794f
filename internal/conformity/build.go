package conformity

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"chassis/internal/branching"
	"chassis/internal/stats"
)

// fromColumns is the shared build entry: New, NewOn and the Accumulator's
// Finalize and FinalizeOn all land here, which is what makes the streamed
// computer bit-identical to the in-memory one. reads is the read set: when
// non-nil, receiver i keeps only the pairs (i, j) with j in reads[i]
// (ascending ids in [0, m)), and nil keeps every pair. It runs in linear
// passes over flat arrays:
//
//  1. Collect: the informational samples (parent→child pairs, in index
//     order) and the normative contributions (per cascade, then in stable
//     time order) of the kept pairs.
//  2. Index: two stable counting passes sort every sample by (receiver,
//     source), keeping each pair's samples in stream order; one scan then
//     numbers the distinct pairs into the CSR pair index.
//  3. Fill: each pair's exactly sized slots are written in stream order,
//     pair after pair, accumulating the prefix moments as they go.
//
// A pair's series depends only on its own samples, in stream order, and on
// the receiver's offspring times, so a kept pair answers every query
// exactly as an all-pairs build does: the offspring index keeps every
// offspring, and the MaxTreePairs stride counts every cross-path pair before
// the read set filters any.
func fromColumns(m int, times []float64, users []int32, polar []float64, forest *branching.Forest, opts Options, reads [][]int) (*Computer, error) {
	if forest == nil {
		return nil, errors.New("conformity: nil forest")
	}
	if forest.Len() != len(times) {
		return nil, fmt.Errorf("conformity: forest covers %d nodes, sequence has %d", forest.Len(), len(times))
	}
	for k, u := range users {
		if u < 0 || int(u) >= m {
			return nil, fmt.Errorf("conformity: event %d has user %d outside [0, %d)", k, u, m)
		}
	}
	if reads != nil {
		if len(reads) != m {
			return nil, fmt.Errorf("conformity: read set has %d rows for %d users", len(reads), m)
		}
		for i, row := range reads {
			for x, j := range row {
				if j < 0 || j >= m || x > 0 && row[x-1] >= j {
					return nil, fmt.Errorf("conformity: read set row %d is not ascending in [0, %d)", i, m)
				}
			}
		}
	}
	opts.fill()
	b := &builder{m: m, times: times, users: users, polar: polar, forest: forest, opts: opts, reads: reads}
	events := make([]int32, len(times))
	for k := range events {
		events[k] = int32(k)
	}
	c := &Computer{}
	c.offOff, c.offTimes = b.offspring(events)
	b.collectInformational()
	if err := b.collectNormative(events); err != nil {
		return nil, err
	}
	c.rowOff, c.srcs = b.index()
	c.info, c.norm = b.fill()
	return c, nil
}

// builder holds one build's inputs and the transient state its passes hand
// to each other. Sample r is informational sample r for r < len(info), and
// normative contribution r-len(info) otherwise.
type builder struct {
	m      int
	times  []float64
	users  []int32
	polar  []float64
	forest *branching.Forest
	opts   Options
	reads  [][]int // the read set; nil keeps every pair

	info []int32            // informational samples: child activity, in index order
	norm []normContribution // normative contributions, in enumeration order
	runs []normRun          // norm as runs of one later activity, in stable time order
	// byPair holds every sample sorted by (receiver, source); within a pair
	// the informational samples come first, each kind in stream order.
	byPair []int32
	// infoCnt[p] and normCnt[p] count pair p's samples of each kind.
	infoCnt, normCnt []int32
}

// normContribution is one (x, y) sample destined for a pair's normative
// series, timestamped by the later activity.
type normContribution struct {
	e1  int32 // earlier activity (by the source j)
	e2  int32 // later activity (by the receiver i)
	lca int32 // -1 for Scenario 1 (same path)
}

// normRun is a run of contributions [lo, hi) sharing their later activity,
// hence their time.
type normRun struct{ lo, hi int32 }

// sortByKey writes the items of in into out, stably sorted by key, which
// maps an item into [0, buckets); it returns the offsets of each key's run
// in out. A counting sort: two linear passes plus one over the buckets.
func sortByKey(in, out []int32, buckets int, key func(int32) int32) (off []int32) {
	off = make([]int32, buckets+1)
	for _, r := range in {
		off[key(r)+1]++
	}
	for k := 0; k < buckets; k++ {
		off[k+1] += off[k]
	}
	next := append([]int32(nil), off[:buckets]...)
	for _, r := range in {
		k := key(r)
		out[next[k]] = r
		next[k]++
	}
	return off
}

// offspring groups the offspring activity times by user (CSR), each user's
// times sorted. Immigrants sort into a last, dropped bucket.
func (b *builder) offspring(events []int32) (off []int32, ts []float64) {
	byUser := make([]int32, len(events))
	off = sortByKey(events, byUser, b.m+1, func(k int32) int32 {
		if b.forest.IsImmigrant(int(k)) {
			return int32(b.m)
		}
		return b.users[k]
	})
	ts = make([]float64, off[b.m])
	for x := range ts {
		ts[x] = b.times[byUser[x]]
	}
	// Activity order is chronological, but guard against ties reordering.
	for i := 0; i < b.m; i++ {
		sort.Float64s(ts[off[i]:off[i+1]])
	}
	return off[:b.m+1], ts
}

// keeps reports whether the build collects the samples of pair (receiver i,
// source j).
func (b *builder) keeps(i, j int32) bool {
	if b.reads == nil {
		return true
	}
	_, ok := slices.BinarySearch(b.reads[i], int(j))
	return ok
}

// collectInformational lists the parent-child interactions between distinct
// users (or any users, with IncludeSelf) of kept pairs in chronological
// (index) order.
func (b *builder) collectInformational() {
	for k := range b.times {
		parent := b.forest.Parent(k)
		if parent < 0 {
			continue
		}
		i, j := b.users[k], b.users[parent]
		if i == j && !b.opts.IncludeSelf || !b.keeps(i, j) {
			continue
		}
		b.info = append(b.info, int32(k))
	}
}

// collectNormative enumerates, per cascade, ordered activity pairs of
// distinct users, splits them into Scenario 1 (ancestor) and Scenario 2
// (cross-path, recalibrated through the LCA), and orders the contributions
// of kept pairs by time, stably — so fill streams each pair's normative
// series chronologically, exactly the "scanning all information cascades up
// to time t" procedure of Section 5.2. Sample numbers are int32, so it
// fails once the samples of both kinds outnumber math.MaxInt32.
func (b *builder) collectNormative(events []int32) error {
	f := b.forest
	// Group the activities by cascade in linear time; each tree's nodes stay
	// in index order.
	members := make([]int32, len(events))
	treeOff := sortByKey(events, members, f.NumTrees(), func(k int32) int32 { return int32(f.TreeID(int(k))) })

	// anc[a] == e2+1 marks a as a proper ancestor of the later activity e2
	// being enumerated: one walk up per e2 answers every IsAncestor(e1, e2).
	anc := make([]int32, len(b.times))
	// With a read set, mark[j] == e2+1 marks j in the row of e2's receiver:
	// one pass over the row per e2 answers every keeps(receiver, j).
	var mark []int32
	if b.reads != nil {
		mark = make([]int32, b.m)
	}
	for id := 0; id < f.NumTrees(); id++ {
		nodes := members[treeOff[id]:treeOff[id+1]]
		n := len(nodes)
		if n < 2 {
			continue
		}
		total := n * (n - 1) / 2
		stride := 1
		if total > b.opts.MaxTreePairs {
			stride = (total + b.opts.MaxTreePairs - 1) / b.opts.MaxTreePairs
		}
		next := stride // cross-path pairs up to and including the next kept one
		for bi := 1; bi < n; bi++ {
			e2 := int(nodes[bi])
			stamp := int32(e2) + 1
			if mark != nil {
				row := b.reads[b.users[e2]]
				if len(row) == 0 && stride == 1 {
					// No pair of e2's receiver is kept, and under the cap
					// nothing counts the cross-path pairs.
					continue
				}
				for _, j := range row {
					mark[j] = stamp
				}
			}
			for a := f.Parent(e2); a >= 0; a = f.Parent(int(a)) {
				anc[a] = stamp
			}
			lo := len(b.norm)
			for ai := 0; ai < bi; ai++ {
				e1 := int(nodes[ai])
				if b.users[e1] == b.users[e2] && !b.opts.IncludeSelf {
					continue
				}
				if b.times[e1] >= b.times[e2] {
					continue
				}
				isAncestor := anc[e1] == stamp
				if !isAncestor && b.opts.DisableLCA {
					continue
				}
				if !isAncestor {
					// Scenario 2 pairs are the ones subsampled under the cap;
					// ancestor pairs always survive (they carry the direct
					// chain-of-influence signal). The count runs over every
					// pair, kept or not, so the subsample does not depend on
					// the read set: it keeps every stride-th one.
					if next--; next > 0 {
						continue
					}
					next = stride
				}
				if mark != nil && mark[b.users[e1]] != stamp {
					continue
				}
				nc := normContribution{e1: int32(e1), e2: int32(e2), lca: -1}
				if !isAncestor {
					nc.lca = int32(f.LCA(e1, e2))
				}
				b.norm = append(b.norm, nc)
			}
			if hi := len(b.norm); hi > lo {
				b.runs = append(b.runs, normRun{lo: int32(lo), hi: int32(hi)})
			}
			if ns := len(b.info) + len(b.norm); ns > math.MaxInt32 {
				return fmt.Errorf("conformity: %d pair samples exceed the 2^31-1 limit", ns)
			}
		}
	}
	// A stable sort of the contributions by time is a sort of the runs by
	// (time, position): each run shares one time and is contiguous in
	// enumeration order.
	slices.SortFunc(b.runs, func(x, y normRun) int {
		if c := cmp.Compare(b.times[b.norm[x.lo].e2], b.times[b.norm[y.lo].e2]); c != 0 {
			return c
		}
		return cmp.Compare(x.lo, y.lo)
	})
	return nil
}

// receiver returns sample r's receiver: the child, or the later activity's
// user.
func (b *builder) receiver(r int32) int32 {
	if int(r) < len(b.info) {
		return b.users[b.info[r]]
	}
	return b.users[b.norm[int(r)-len(b.info)].e2]
}

// source returns sample r's source: the parent, or the earlier activity's
// user.
func (b *builder) source(r int32) int32 {
	if int(r) < len(b.info) {
		return b.users[b.forest.Parent(int(b.info[r]))]
	}
	return b.users[b.norm[int(r)-len(b.info)].e1]
}

// index sorts the samples into b.byPair by (receiver, source): a stable
// counting pass by source, then one by receiver (an LSD radix sort over the
// two user keys) of the samples in stream order — informational ones
// first — so each pair's samples keep that order. One scan over the sorted
// samples then numbers the distinct pairs into the CSR index and counts
// each pair's samples.
func (b *builder) index() (rowOff, srcs []int32) {
	ns := len(b.info) + len(b.norm)
	in := make([]int32, 0, ns)
	for r := range b.info {
		in = append(in, int32(r))
	}
	for _, run := range b.runs {
		for c := run.lo; c < run.hi; c++ {
			in = append(in, int32(len(b.info))+c)
		}
	}
	out := make([]int32, ns)
	sortByKey(in, out, b.m, b.source)
	sortByKey(out, in, b.m, b.receiver)
	b.byPair = in

	rowOff = make([]int32, b.m+1)
	prevI, prevJ := int32(-1), int32(-1)
	for _, r := range b.byPair {
		i, j := b.receiver(r), b.source(r)
		if i != prevI || j != prevJ {
			srcs = append(srcs, j)
			b.infoCnt = append(b.infoCnt, 0)
			b.normCnt = append(b.normCnt, 0)
			rowOff[i+1]++
			prevI, prevJ = i, j
		}
		if int(r) < len(b.info) {
			b.infoCnt[len(srcs)-1]++
		} else {
			b.normCnt[len(srcs)-1]++
		}
	}
	for i := 0; i < b.m; i++ {
		rowOff[i+1] += rowOff[i]
	}
	return rowOff, slices.Clone(srcs)
}

// fill allocates both series stores exactly and writes them pair after
// pair, each pair's slots in stream order. A Scenario-2 sample depends only
// on its own pair's earlier contributions, so the side accumulators live
// for one pair at a time.
func (b *builder) fill() (info, norm seriesStore) {
	info, norm = newSeriesStore(b.infoCnt), newSeriesStore(b.normCnt)
	samples := b.byPair
	for p := range b.infoCnt {
		w := info.writer(p)
		for _, r := range samples[:b.infoCnt[p]] {
			k := b.info[r]
			w.push(b.times[k], b.polar[b.forest.Parent(int(k))], b.polar[k])
		}
		samples = samples[b.infoCnt[p]:]

		w = norm.writer(p)
		// Source-side and receiver-side polarity against the LCA's, from
		// which the recalibrated correlations are drawn.
		var qj, qi stats.PearsonAcc
		for _, r := range samples[:b.normCnt[p]] {
			nc := b.norm[int(r)-len(b.info)]
			t, x, y := b.times[nc.e2], b.polar[nc.e1], b.polar[nc.e2]
			if nc.lca < 0 {
				// Scenario 1: direct polarity pair.
				w.push(t, x, y)
				continue
			}
			// Scenario 2: recalibrate through the LCA.
			lcaPol := b.polar[nc.lca]
			qj.Add(x, lcaPol)
			qi.Add(y, lcaPol)
			w.push(t, corrOrSeed(&qj, x, lcaPol), corrOrSeed(&qi, y, lcaPol))
		}
		samples = samples[b.normCnt[p]:]
	}
	return info, norm
}

// corrOrSeed reads a Scenario-2 side accumulator: the Pearson correlation
// once it holds two or more samples, and before that the sign agreement
// sign(x·y) of the single contribution just added. Pearson is undefined for
// one sample — PearsonAcc.Corr() returns 0 there, and feeding that 0 into
// the series would permanently void every pair's FIRST cross-path
// contribution as a (0, 0) sample diluting all later prefix correlations.
// The sign-agreement seed is the same small-evidence fallback corrAt itself
// uses, so a pair's normative stance is meaningful from its first
// recalibrated sample on. (With ≥ 2 samples a zero-variance side still
// reads 0 from Corr() — "no measurable stance" — unchanged.)
func corrOrSeed(a *stats.PearsonAcc, x, y float64) float64 {
	if a.N() >= 2 {
		return a.Corr()
	}
	if p := x * y; p > 0 {
		return 1
	} else if p < 0 {
		return -1
	}
	return 0
}
