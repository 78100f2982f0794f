package core

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"chassis/internal/branching"
	"chassis/internal/colstore"
	"chassis/internal/conformity"
	"chassis/internal/parallel"
	"chassis/internal/timeline"
)

// ShardedUnsupportedError reports a Config feature the out-of-core driver
// does not implement. FitSharded fails fast with one of these instead of
// silently computing something different from FitContext: every variant and
// kernel it fits is bit-identical to the in-memory fit, and the features
// that still need the in-memory sequence (the training log-likelihood behind
// TrackHistory and the guard, observed trees' parent links) are rejected up
// front.
type ShardedUnsupportedError struct {
	Feature string
}

func (e *ShardedUnsupportedError) Error() string {
	return fmt.Sprintf("core: sharded fit does not support %s", e.Feature)
}

// unsupportedWithoutSequence is the capability check for an event source
// whose sequence() is nil: it names the first configured feature that reads
// the in-memory sequence, or returns nil.
func unsupportedWithoutSequence(cfg Config) error {
	var feature string
	switch {
	case cfg.UseObservedTrees:
		feature = "UseObservedTrees (platform connectivity arrives with a sequence, not a colstore corpus)"
	case cfg.TrackHistory:
		feature = "TrackHistory (training LL needs the full sequence)"
	case cfg.Guard.Enabled:
		feature = "the numerical guard (its LL regression check needs the full sequence)"
	default:
		return nil
	}
	return &ShardedUnsupportedError{Feature: feature}
}

// shardSource is a colstore corpus as an event source: the flat (time,
// user) columns and their by-user index — 16 bytes per event, the only
// whole-corpus state the fit keeps — plus the global scheduling-chunk grid
// and its grouping into shards. Everything heavier (activity structs for
// E-step windows, one dimData per running M-step worker, the conformity
// scan) is materialized per shard, per dimension or per build and released
// before the next one, which is what bounds peak memory below the corpus
// size: the corpus rows carry kinds, topics, polarities, parents, and text
// that the fit never loads.
type shardSource struct {
	rd   *colstore.Reader
	cols eventCols
	// chunks is the fixed estepChunkSize grid over [0, n) — the same grid
	// the in-memory source hands out in one window, so chunk indices (and
	// with them the per-chunk RNG streams) are identical in both sources.
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
		rd: rd,
		cols: eventCols{
			m: rd.M(), horizon: rd.Horizon(),
			times: make([]float64, n),
			users: make([]uint32, n),
		},
		chunks: parallel.Chunks(n, estepChunkSize),
	}
	err := rd.Scan(0, n, func(g int, t float64, user int) {
		s.cols.times[g] = t
		s.cols.users[g] = uint32(user)
	})
	if err != nil {
		return nil, err
	}
	s.cols.indexUsers()
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

func (s *shardSource) columns() *eventCols { return &s.cols }

// forEachWindow materializes each shard's halo-extended activity window.
// The halo extends the window left to the first event within one support of
// the shard's first event, so every sliding-window query a chunk body issues
// stays inside the window and shard-local scans see precisely the events the
// in-memory scan sees. Shards run sequentially — one window lives at a time.
//
// Windows carry only the fields the chunk bodies read (ID, Time, User;
// Parent pinned to NoParent like a stripped sequence) — text and marks stay
// on disk.
func (s *shardSource) forEachWindow(support float64, fn func(win []timeline.Activity, off int, chunks []parallel.Range) error) error {
	times := s.cols.times
	for _, sh := range s.shards {
		chunks := s.chunks[sh[0]:sh[1]]
		lo, hi := chunks[0].Lo, chunks[len(chunks)-1].Hi
		off := sort.SearchFloat64s(times, times[lo]-support)
		need := hi - off
		if cap(s.buf) < need {
			s.buf = make([]timeline.Activity, need)
		}
		win := s.buf[:need]
		for g := off; g < hi; g++ {
			win[g-off] = timeline.Activity{
				ID:     timeline.ActivityID(g),
				Time:   times[g],
				User:   timeline.UserID(s.cols.users[g]),
				Parent: timeline.NoParent,
			}
		}
		if err := fn(win, off, chunks); err != nil {
			return err
		}
	}
	return nil
}

// conformity streams the corpus columns straight off the colstore blocks
// into the conformity accumulator — pass 1 of the two-pass refresh
// (DESIGN.md §16). The polarity column is never resident in the source; only
// the accumulator's transient copy and the finalized computer's pair series
// live across the scan. FinalizeOn feeds the column-built path
// conformity.NewOn uses, so the snapshot is bit-identical to the in-memory
// source's.
func (s *shardSource) conformity(f *branching.Forest, opts conformity.Options, reads [][]int) (*conformity.Computer, error) {
	acc := conformity.NewAccumulator(s.cols.m, opts)
	var appendErr error
	if err := s.rd.ScanPolar(0, s.rd.NumEvents(), func(g int, t float64, user int, pol float64) {
		if appendErr == nil {
			appendErr = acc.Append(t, user, pol)
		}
	}); err != nil {
		return nil, err
	}
	if appendErr != nil {
		return nil, appendErr
	}
	return acc.FinalizeOn(f, reads)
}

func (s *shardSource) dataHash() string { return s.rd.Fingerprint() }

func (s *shardSource) sequence() *timeline.Sequence { return nil }

// FitSharded runs the EM fit out-of-core against a colstore corpus. It is
// the EM loop of FitContext over a different event source: the E-step and
// bootstrap walk the corpus shard-by-shard through halo-extended windows,
// the M-step and the nonparametric kernel pass read the (time, user)
// columns and their by-user index, and peak memory is bounded by
// O(events)·16 bytes of flat columns (plus 16 bytes per event while a
// kernel pass runs) plus one shard of activity structs plus at most Workers
// dimensions' M-step data — never the materialized corpus. Every variant — the HP baselines and the conformity-aware family,
// linear or nonlinear link, with a fixed, parametric-exponential or
// nonparametric kernel — is bit-identical to FitContext on the equivalent
// in-memory sequence at every Workers and ShardEvents setting; see DESIGN.md
// §15–§16 for the argument. Features that read the in-memory sequence fail
// with *ShardedUnsupportedError before the corpus is scanned.
//
// Conformity-aware fits rebuild the pair-history computer from a streaming
// colstore scan (times, users, polarities) once per conformity refresh,
// through the same column-built path conformity.New uses — the snapshot, and
// with it every fitted parameter, matches the in-memory fit bit for bit. The
// transient scan state is O(events)·20 bytes plus the retained per-pair
// series, which cover only the model's read set: each receiver's sources and
// the users its row excites, at most 2·MaxSourcesPerDim pairs per receiver.
//
// Cancellation, checkpointing, resume, observers and metrics work as in
// FitContext, with the corpus identified by the colstore footer fingerprint
// instead of the sequence hash. Training log-likelihoods are never computed
// (TrainLLValid stays false): evaluating Eq. 7.1 needs the hawkes engine's
// full-sequence compensators, and observation must not change what the
// driver can fit.
//
// The returned model carries no training sequence: methods that re-read it
// (TrainLogLikelihood, HeldOutLogLikelihood) report an error, and
// EstimatedInfluence returns nil for conformity-aware variants.
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
	if err := unsupportedWithoutSequence(cfg); err != nil {
		return nil, err
	}
	src, err := newShardSource(rd, cfg.ShardEvents)
	if err != nil {
		return nil, err
	}
	return fit(ctx, src, cfg, nil, nil)
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
	per := m.layout().perSrc
	for i := 0; m.params != nil && i < m.M; i++ {
		vals := m.params.sourceVals(i)
		for s, j := range m.params.sources(i) {
			w64(uint64(j))
			for _, v := range vals[s*per : (s+1)*per] {
				wf(v)
			}
		}
	}
	for _, p := range parentInts(m.Forest) {
		w64(uint64(int64(p)))
	}
	return fmt.Sprintf("model:%016x", h.Sum64())
}
