package core

import (
	"math/bits"
	"slices"

	"chassis/internal/branching"
	"chassis/internal/conformity"
	"chassis/internal/parallel"
	"chassis/internal/scratch"
	"chassis/internal/timeline"
)

// eventSource is how the EM loop reaches the training events. The loop is
// written once against it; the in-memory sequence (seqSource) and the
// out-of-core colstore corpus (shardSource) differ only in where the events
// live, never in which floats the loop computes from them.
type eventSource interface {
	// columns returns the chronological (time, user) columns and their
	// by-user index: everything the kernel-support heuristic, the source
	// rankings, initParams, the M-step and the kernel pass read.
	columns() *eventCols
	// forEachWindow hands fn, one at a time, activity windows holding
	// global events [off, off+len(win)) together with the chunks of the
	// global estepChunkSize grid the window covers. A window starts at least
	// support before its first chunk, the invariant windowStartIn needs.
	forEachWindow(support float64, fn func(win []timeline.Activity, off int, chunks []parallel.Range) error) error
	// conformity builds the conformity snapshot of the events under f,
	// keeping the pairs of the read set reads (every pair when nil).
	conformity(f *branching.Forest, opts conformity.Options, reads [][]int) (*conformity.Computer, error)
	// dataHash names the data for checkpoint identity. The prefixes of the
	// two sources differ ("fnv64a:" vs "colstore:"), so a checkpoint is
	// never resumed against the other representation.
	dataHash() string
	// sequence returns the parent-stripped training sequence, or nil when
	// the events are not in memory. Only the training log-likelihood reads
	// it, so a source without one is gated by unsupportedWithoutSequence.
	sequence() *timeline.Sequence
}

// eventCols is the flat view of a corpus: m users, the horizon, one (time,
// user) pair per event in chronological order, and a by-user index of event
// positions — 16 bytes per event plus 4 per user.
type eventCols struct {
	m       int
	horizon float64
	times   []float64
	users   []uint32
	// byUser[userOff[j]:userOff[j+1]] are user j's event positions in
	// chronological order; indexUsers builds both.
	userOff []int32
	byUser  []int32
}

// seqColumns copies a sequence's (time, user) columns and indexes them.
func seqColumns(seq *timeline.Sequence) *eventCols {
	c := &eventCols{
		m: seq.M, horizon: seq.Horizon,
		times: make([]float64, seq.Len()),
		users: make([]uint32, seq.Len()),
	}
	for k := range seq.Activities {
		c.times[k] = seq.Activities[k].Time
		c.users[k] = uint32(seq.Activities[k].User)
	}
	c.indexUsers()
	return c
}

// indexUsers builds the by-user index with one counting pass over the user
// column.
func (c *eventCols) indexUsers() {
	c.userOff = make([]int32, c.m+1)
	for _, u := range c.users {
		c.userOff[u+1]++
	}
	for j := 0; j < c.m; j++ {
		c.userOff[j+1] += c.userOff[j]
	}
	c.byUser = make([]int32, len(c.users))
	next := slices.Clone(c.userOff[:c.m])
	for k, u := range c.users {
		c.byUser[next[u]] = int32(k)
		next[u]++
	}
}

// eventsOf returns user j's event positions in chronological order.
func (c *eventCols) eventsOf(j int) []int32 { return c.byUser[c.userOff[j]:c.userOff[j+1]] }

// merge returns the event positions of the given distinct users in global
// order: exactly the events a chronological scan of the whole corpus meets
// for them. It marks the positions in a bitset over the span they cover and
// reads the set bits back in increasing order, so a call costs O(events +
// span/64) and never compares one user's positions with another's. The
// slice comes from the positions pool; the caller may hand it back.
func (c *eventCols) merge(users []int) []int32 {
	lo, hi, n := int32(len(c.users)), int32(0), 0
	for _, j := range users {
		if own := c.eventsOf(j); len(own) > 0 {
			lo, hi = min(lo, own[0]), max(hi, own[len(own)-1]+1)
			n += len(own)
		}
	}
	if n == 0 {
		return nil
	}
	dst := positions.Get(n)[:0]
	set := spanBits.Get(int(hi-lo+63) / 64)
	for _, j := range users {
		for _, k := range c.eventsOf(j) {
			k -= lo
			set[k>>6] |= 1 << (k & 63)
		}
	}
	for w, x := range set {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, lo+int32(w<<6+bits.TrailingZeros64(x)))
		}
	}
	spanBits.Put(set)
	return dst
}

var (
	// spanBits recycles merge's bitsets across calls and workers.
	spanBits scratch.Pool[uint64]
	// positions recycles event-position lists: merge's results.
	positions scratch.Pool[int32]
)

// seqSource is an in-memory sequence as an event source: one window that
// holds every chunk of the grid.
type seqSource struct {
	cols *eventCols
	seq  *timeline.Sequence
	// raw is the sequence the checkpoint hash covers: the caller's, with
	// parents, kinds and topics, even when seq is its stripped copy.
	raw *timeline.Sequence
}

func newSeqSource(seq *timeline.Sequence) *seqSource {
	return &seqSource{cols: seqColumns(seq), seq: seq, raw: seq}
}

func (s *seqSource) columns() *eventCols { return s.cols }

func (s *seqSource) forEachWindow(_ float64, fn func(win []timeline.Activity, off int, chunks []parallel.Range) error) error {
	return fn(s.seq.Activities, 0, parallel.Chunks(s.seq.Len(), estepChunkSize))
}

func (s *seqSource) conformity(f *branching.Forest, opts conformity.Options, reads [][]int) (*conformity.Computer, error) {
	return conformity.NewOn(s.seq, f, opts, reads)
}

func (s *seqSource) dataHash() string { return sequenceFingerprint(s.raw) }

func (s *seqSource) sequence() *timeline.Sequence { return s.seq }
