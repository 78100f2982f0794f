// Package ingest is the streaming half of the CHASSIS serving stack: a
// bounded store of live cascades, each holding the exponential-recursion
// accumulator (hawkes.StateAccum), the running E-step responsibilities (MAP
// parent per event, assigned at append time), and the event tail itself.
//
// The contract that makes streaming safe is replay identity, inherited from
// the hawkes accumulator: appending events one request at a time produces
// bit-identical continuation state — and therefore bit-identical forecasts —
// to rebuilding from the full timeline in one pass. The store adds the
// model-version discipline on top: every cascade records the snapshot
// version its state was computed under, and a hot-reload (file or in-memory
// refit install) triggers a transparent rebuild from the retained event
// tail on the cascade's next touch. The tail is the source of truth; the
// accumulator and parents are caches over it.
package ingest

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"chassis/internal/core"
	"chassis/internal/hawkes"
	"chassis/internal/lru"
	"chassis/internal/obs"
	"chassis/internal/timeline"
)

// ErrUnknownCascade is returned by State for a cascade ID the store has
// never held.
var ErrUnknownCascade = errors.New("ingest: unknown cascade")

// ErrEvicted is returned by State for a cascade ID the store held and then
// evicted past the cascade cap — distinct from ErrUnknownCascade so the
// serve layer can answer a non-retryable 410 (the state is gone for good)
// instead of a 404. Re-ingesting the ID starts a fresh cascade and clears
// the marker.
var ErrEvicted = errors.New("ingest: cascade evicted")

// evictedMemory bounds how many evicted IDs the store remembers for the
// typed ErrEvicted answer; past it the memory resets and older evictions
// degrade to ErrUnknownCascade.
const evictedMemory = 4096

// Config bounds the store. Zero values select the documented defaults.
type Config struct {
	// MaxCascades caps how many live cascades are retained; beyond it the
	// least recently touched cascade is evicted whole (default 1024,
	// negative unbounded).
	MaxCascades int
	// MaxEvents caps one cascade's event tail (default 65536). Appends
	// beyond it are rejected with a validation error: the tail is what
	// rebuilds state after a reload, so it cannot be trimmed without
	// breaking the replay contract.
	MaxEvents int
}

func (c Config) withDefaults() Config {
	if c.MaxCascades == 0 {
		c.MaxCascades = 1024
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = 65536
	}
	return c
}

// Store holds the live cascades. All methods are safe for concurrent use;
// the store lock only guards the cascade index (lookup, LRU order,
// eviction), while per-cascade work — validation, parent attribution, the
// accumulator update — runs under that cascade's own lock, so appends to
// distinct cascades proceed in parallel.
type Store struct {
	cfg Config

	mu      sync.Mutex
	live    *lru.Map[string, *cascade] // by cascade id, most recently touched first
	evicted map[string]struct{}
	logger  AppendLogger

	events, rebuilds, evictions *obs.Counter
	cascades                    *obs.Gauge
}

// cascade is one live cascade: the event tail (dense IDs, MAP parents
// embedded) plus the version-bound accumulator cache over it.
type cascade struct {
	id string

	mu      sync.Mutex
	version int64 // model version the accum and parents were computed under
	events  []timeline.Activity
	accum   *hawkes.StateAccum // nil for non-exponential banks
}

// NewStore builds a store; metrics may be nil.
func NewStore(cfg Config, m *obs.Metrics) *Store {
	s := &Store{
		cfg:       cfg.withDefaults(),
		evicted:   map[string]struct{}{},
		events:    m.Counter("ingest.events"),
		rebuilds:  m.Counter("ingest.rebuilds"),
		evictions: m.Counter("ingest.cascades_evicted"),
		cascades:  m.Gauge("ingest.cascades"),
	}
	s.live = lru.New(s.cfg.MaxCascades, func(id string, _ *cascade) {
		s.rememberEvictedLocked(id)
		s.evictions.Inc()
	})
	return s
}

// AppendLogger persists one successfully applied batch to a durability
// layer (the serve layer's WAL), returning the assigned log sequence
// number. It is invoked under the cascade's lock — per-cascade log order is
// therefore exactly apply order — so implementations must enqueue and
// return, never block on I/O or call back into the store. A logger error
// rolls the whole batch back before it is reported.
type AppendLogger func(id string, acts []timeline.Activity) (int64, error)

// SetLogger installs the append logger (nil disables logging). Install
// before serving traffic; the field is not synchronized for mid-flight
// replacement.
func (s *Store) SetLogger(fn AppendLogger) { s.logger = fn }

// Result reports one append: totals after the append plus the MAP parent
// assigned to each appended event (an index into the cascade's own
// timeline, timeline.NoParent for immigrant picks).
type Result struct {
	Cascade  string
	Version  int64 // model version the state is now bound to
	Events   int   // total events in the cascade after the append
	Appended int
	Parents  []timeline.ActivityID
	Rebuilt  bool  // state was rebuilt because the model version moved
	LSN      int64 // WAL sequence number of the logged batch (0 when unlogged)
}

// Append absorbs a chronological batch of validated events into cascade id,
// creating it on first touch. Each event gets its MAP parent attributed
// under the given model (the running E-step) and is folded into the
// cascade's accumulator (O(M) per event — no history replay). The events
// must not precede the cascade's current tail; violations are
// *timeline.ValidationError (the serve layer maps those to 400s).
//
// snapshot pinning: model/proc/version describe one registry snapshot. If
// the cascade's state was built under an older version, the tail is
// replayed under the new parameters first (counted in ingest.rebuilds), so
// state and parents never mix two parameter sets.
func (s *Store) Append(model *core.Model, proc *hawkes.Process, version int64, id string, acts []timeline.Activity) (*Result, error) {
	if len(acts) == 0 {
		return nil, &timeline.ValidationError{Index: -1, Field: "empty", Msg: "ingest: no events to append"}
	}
	c, err := s.touch(id, true)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.events)+len(acts) > s.cfg.MaxEvents {
		return nil, &timeline.ValidationError{Index: -1, Field: "empty",
			Msg: fmt.Sprintf("ingest: cascade %q would exceed the %d-event cap", id, s.cfg.MaxEvents)}
	}
	rebuilt, err := c.syncLocked(model, proc, version, s.rebuilds)
	if err != nil {
		return nil, err
	}

	last := math.Inf(-1)
	if n := len(c.events); n > 0 {
		last = c.events[n-1].Time
	}
	start := len(c.events)
	res := &Result{Cascade: id, Version: version, Rebuilt: rebuilt}
	var appErr error
	for k := range acts {
		a := acts[k]
		if math.IsNaN(a.Time) || math.IsInf(a.Time, 0) || a.Time < 0 {
			appErr = &timeline.ValidationError{Index: k, Field: "time",
				Msg: fmt.Sprintf("time must be finite and non-negative, got %g", a.Time)}
			break
		}
		if a.Time < last {
			appErr = &timeline.ValidationError{Index: k, Field: "order",
				Msg: fmt.Sprintf("t=%g precedes the cascade's last event at t=%g", a.Time, last)}
			break
		}
		if a.User < 0 || int(a.User) >= model.M {
			appErr = &timeline.ValidationError{Index: k, Field: "user",
				Msg: fmt.Sprintf("user %d outside [0,%d)", a.User, model.M)}
			break
		}
		last = a.Time
		a.ID = timeline.ActivityID(len(c.events))
		a.Parent = timeline.NoParent
		c.events = append(c.events, a)
		// Running E-step: MAP-attribute the event against the cascade as it
		// stands — identical scoring to a batch pass over the final tail.
		view := &timeline.Sequence{M: model.M, Horizon: a.Time, Activities: c.events}
		p, err := model.MAPParent(view, len(c.events)-1)
		if err != nil {
			c.events = c.events[:len(c.events)-1]
			appErr = err
			break
		}
		c.events[len(c.events)-1].Parent = p
		if c.accum != nil {
			if err := c.accum.Append(proc, int(a.User), a.Time); err != nil {
				// Keep tail and accum consistent: drop the event again.
				c.events = c.events[:len(c.events)-1]
				appErr = err
				break
			}
		}
		res.Parents = append(res.Parents, p)
		res.Appended++
	}
	// A mid-batch validation error keeps the valid prefix, so the prefix is
	// what must be logged. Logging happens under c.mu: the per-cascade WAL
	// record order is exactly apply order, which is what replay relies on.
	if res.Appended > 0 && s.logger != nil {
		lsn, lerr := s.logger(id, c.events[start:start+res.Appended])
		if lerr != nil {
			// Nothing may be acknowledged that the log did not accept: drop
			// the batch and force a tail replay on next touch so the
			// accumulator never diverges from the truncated tail.
			c.events = c.events[:start]
			c.accum = nil
			c.version = -1
			res.Appended = 0
			res.Parents = nil
			res.Events = start
			return res, lerr
		}
		res.LSN = lsn
	}
	s.events.Add(int64(res.Appended))
	res.Events = len(c.events)
	return res, appErr
}

// State pins cascade id against the given snapshot and returns its
// continuation state finalized at horizon together with a copy of the event
// tail (horizon 0 defaults to the last event's time). The returned sequence
// is detached — callers may hand it to predict while appends continue — and
// the state is bit-identical to a full HistoryState rebuild over the same
// tail. A nil state with a nil error means the model has no fast-path state
// (non-exponential bank); predict falls back to its own path.
func (s *Store) State(model *core.Model, proc *hawkes.Process, version int64, id string, horizon float64) (*hawkes.ContState, *timeline.Sequence, error) {
	c, err := s.touch(id, false)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.syncLocked(model, proc, version, s.rebuilds); err != nil {
		return nil, nil, err
	}
	if len(c.events) == 0 {
		return nil, nil, &timeline.ValidationError{Index: -1, Field: "empty", Msg: "ingest: cascade holds no events"}
	}
	lastT := c.events[len(c.events)-1].Time
	if horizon == 0 {
		horizon = lastT
	}
	if math.IsNaN(horizon) || math.IsInf(horizon, 0) || horizon < lastT {
		return nil, nil, &timeline.ValidationError{Index: -1, Field: "horizon",
			Msg: fmt.Sprintf("horizon %g precedes the cascade's last event at t=%g", horizon, lastT)}
	}
	seq := &timeline.Sequence{M: model.M, Horizon: horizon,
		Activities: append([]timeline.Activity(nil), c.events...)}
	return c.accum.Finalize(horizon), seq, nil
}

// CascadeDump is one cascade's detached event tail — the portable form the
// durability layer snapshots, the refit path consumes, and Restore rebuilds
// from. Events carry their running MAP parents.
type CascadeDump struct {
	ID     string              `json:"id"`
	Events []timeline.Activity `json:"events"`
}

// snapshot returns the live cascades in LRU order, most recently touched
// first.
func (s *Store) snapshot() []*cascade {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live.Values()
}

// Dump copies every non-empty cascade's tail, most recently touched first —
// the order Restore needs to recreate the LRU state exactly. Parents are
// whatever version they were last attributed under; Restore rebinds
// lazily, so that staleness is invisible after a round trip.
func (s *Store) Dump() []CascadeDump {
	var out []CascadeDump
	for _, c := range s.snapshot() {
		c.mu.Lock()
		if len(c.events) > 0 {
			out = append(out, CascadeDump{ID: c.id, Events: append([]timeline.Activity(nil), c.events...)})
		}
		c.mu.Unlock()
	}
	return out
}

// DumpSynced copies every non-empty cascade's tail with parents freshly
// attributed under the given snapshot, sorted by cascade ID. This is the
// refit path's raw material: unlike an LRU-ordered dump, it is a pure
// function of the stored events and the model version — untouched by which
// cascades predicts happened to read recently — so a refit recomputed from
// a WAL marker is bit-identical to the live one.
func (s *Store) DumpSynced(model *core.Model, proc *hawkes.Process, version int64) ([]CascadeDump, error) {
	var out []CascadeDump
	for _, c := range s.snapshot() {
		c.mu.Lock()
		if _, err := c.syncLocked(model, proc, version, s.rebuilds); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		if len(c.events) > 0 {
			out = append(out, CascadeDump{ID: c.id, Events: append([]timeline.Activity(nil), c.events...)})
		}
		c.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Restore replaces the store's contents with the dumped cascades (as
// produced by Dump: most recently touched first). Accumulators and parents
// are left version-unbound and rebuilt from the tails on each cascade's
// next touch — the same lazy path a hot-reload takes — so restored state is
// bit-identical to having appended the same events live. A malformed dump
// (an empty or duplicate id) is refused whole, leaving the store as it was.
// A dump longer than MaxCascades (the cap was lowered across a restart)
// restores its newest MaxCascades cascades; the rest are remembered as
// evicted, so State answers ErrEvicted for them.
func (s *Store) Restore(dumps []CascadeDump) error {
	seen := make(map[string]struct{}, len(dumps))
	for i, d := range dumps {
		if d.ID == "" {
			return fmt.Errorf("ingest: restore: dump %d has an empty cascade id", i)
		}
		if _, dup := seen[d.ID]; dup {
			return fmt.Errorf("ingest: restore: duplicate cascade id %q", d.ID)
		}
		seen[d.ID] = struct{}{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live.Clear()
	s.evicted = map[string]struct{}{}
	if limit := s.cfg.MaxCascades; limit > 0 && len(dumps) > limit {
		for _, d := range dumps[limit:] {
			s.rememberEvictedLocked(d.ID)
		}
		dumps = dumps[:limit]
	}
	total := 0
	for i := len(dumps) - 1; i >= 0; i-- { // oldest first, so each Put recreates the order
		d := dumps[i]
		s.live.Put(d.ID, &cascade{id: d.ID, version: -1, events: append([]timeline.Activity(nil), d.Events...)})
		total += len(d.Events)
	}
	s.cascades.Set(float64(s.live.Len()))
	s.events.Add(int64(total))
	return nil
}

// MergedDumps builds the refit sequence: the training timeline (with its
// inferred parents embedded) merged with the dumped cascade tails (with
// their running MAP parents), normalized through timeline.Merge so parent
// links survive the interleave. It is a pure function of its arguments —
// the live refit and the WAL-replay recompute both call it, which is what
// makes a recovered model bit-identical to the installed one. Returns nil
// when no dump holds events.
func MergedDumps(train *timeline.Sequence, parents []timeline.ActivityID, dumps []CascadeDump) *timeline.Sequence {
	var tails []*timeline.Sequence
	for _, d := range dumps {
		if n := len(d.Events); n > 0 {
			tails = append(tails, &timeline.Sequence{M: train.M, Horizon: d.Events[n-1].Time,
				Activities: append([]timeline.Activity(nil), d.Events...)})
		}
	}
	if len(tails) == 0 {
		return nil
	}
	base := train.Clone()
	if len(parents) == len(base.Activities) {
		for i := range base.Activities {
			base.Activities[i].Parent = parents[i]
		}
	}
	return timeline.Merge(train.M, append([]*timeline.Sequence{base}, tails...)...)
}

// Len reports the live cascade count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live.Len()
}

// EventCount reports the total events across all live cascades.
func (s *Store) EventCount() int {
	total := 0
	for _, c := range s.snapshot() {
		c.mu.Lock()
		total += len(c.events)
		c.mu.Unlock()
	}
	return total
}

// touch looks the cascade up, moves it to the LRU front, and (when create
// is set) makes it on first reference — evicting the least recently touched
// cascade past the cap.
func (s *Store) touch(id string, create bool) (*cascade, error) {
	if id == "" {
		return nil, &timeline.ValidationError{Index: -1, Field: "empty", Msg: "ingest: cascade id must be non-empty"}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.live.Get(id); ok {
		return c, nil
	}
	if !create {
		if _, was := s.evicted[id]; was {
			return nil, fmt.Errorf("%w: %q", ErrEvicted, id)
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownCascade, id)
	}
	delete(s.evicted, id) // re-ingesting starts the cascade over
	c := &cascade{id: id, version: -1}
	s.live.Put(id, c)
	s.cascades.Set(float64(s.live.Len()))
	return c, nil
}

// rememberEvictedLocked records a cascade evicted past MaxCascades, so
// State can answer ErrEvicted for it. Caller holds s.mu.
func (s *Store) rememberEvictedLocked(id string) {
	if len(s.evicted) >= evictedMemory {
		s.evicted = map[string]struct{}{}
	}
	s.evicted[id] = struct{}{}
}

// syncLocked rebinds the cascade to the given snapshot version: on a
// version change the accumulator is rebuilt by replaying the tail and every
// parent is re-attributed under the new parameters. Rebuild failures leave
// the cascade stale and report the error (the tail is untouched, so a later
// snapshot can still rebuild).
func (c *cascade) syncLocked(model *core.Model, proc *hawkes.Process, version int64, rebuilds *obs.Counter) (bool, error) {
	if c.version == version {
		return false, nil
	}
	first := c.version < 0
	accum := proc.NewStateAccum()
	if accum != nil {
		if err := accum.AppendAll(proc, c.events); err != nil {
			return false, fmt.Errorf("ingest: rebuilding cascade %q under model version %d: %w", c.id, version, err)
		}
	}
	if len(c.events) > 0 {
		view := &timeline.Sequence{M: model.M, Horizon: c.events[len(c.events)-1].Time, Activities: c.events}
		for k := range c.events {
			// Scoring event k reads only events before it, so re-attributing
			// in place over the shared slice is the batch pass exactly.
			p, err := model.MAPParent(view, k)
			if err != nil {
				return false, fmt.Errorf("ingest: re-attributing cascade %q: %w", c.id, err)
			}
			c.events[k].Parent = p
		}
	}
	c.accum = accum
	c.version = version
	if !first {
		rebuilds.Inc()
	}
	return !first, nil
}
