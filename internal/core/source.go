package core

import (
	"chassis/internal/branching"
	"chassis/internal/conformity"
	"chassis/internal/parallel"
	"chassis/internal/timeline"
)

// eventSource is how the EM loop reaches the training events. The loop is
// written once against it; the in-memory sequence (seqSource) and the
// out-of-core colstore corpus (shardSource) differ only in where the events
// live, never in which floats the loop computes from them.
type eventSource interface {
	// columns returns the chronological (time, user) columns: everything
	// the kernel-support heuristic, the source rankings, initParams, the
	// M-step and the kernel pass read.
	columns() *eventCols
	// forEachWindow hands fn, one at a time, activity windows holding
	// global events [off, off+len(win)) together with the chunks of the
	// global estepChunkSize grid the window covers. A window starts at least
	// support before its first chunk, the invariant windowStartIn needs.
	forEachWindow(support float64, fn func(win []timeline.Activity, off int, chunks []parallel.Range) error) error
	// conformity builds the conformity snapshot of the events under f.
	conformity(f *branching.Forest, opts conformity.Options) (*conformity.Computer, error)
	// dataHash names the data for checkpoint identity. The prefixes of the
	// two sources differ ("fnv64a:" vs "colstore:"), so a checkpoint is
	// never resumed against the other representation.
	dataHash() string
	// sequence returns the parent-stripped training sequence, or nil when
	// the events are not in memory. Only the training log-likelihood reads
	// it, so a source without one is gated by unsupportedWithoutSequence.
	sequence() *timeline.Sequence
}

// eventCols is the flat view of a corpus: m users, the horizon, and one
// (time, user) pair per event in chronological order — 12 bytes per event.
type eventCols struct {
	m       int
	horizon float64
	times   []float64
	users   []uint32
}

// seqColumns copies a sequence's (time, user) columns.
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
	return c
}

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

func (s *seqSource) conformity(f *branching.Forest, opts conformity.Options) (*conformity.Computer, error) {
	return conformity.New(s.seq, f, opts)
}

func (s *seqSource) dataHash() string { return sequenceFingerprint(s.raw) }

func (s *seqSource) sequence() *timeline.Sequence { return s.seq }
