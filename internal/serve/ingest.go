package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"time"

	"chassis/internal/ingest"
	"chassis/internal/timeline"
)

// This file is the streaming front door: POST /v1/ingest appends validated
// live events to per-cascade state (internal/ingest), POST /admin/refit
// runs the incremental EM refresh over everything ingested so far, and the
// periodic refit loop (Config.RefitEvery) automates the latter. Ingest
// shares the prediction dispatcher, so the same bounded queue applies
// backpressure to appends and forecasts alike — a flooded ingest path sheds
// with the same typed 429/503 envelope instead of starving predictions.

// maxIngestEvents caps one ingest request's batch (independent of the
// per-cascade tail cap the store enforces).
const maxIngestEvents = 4096

// IngestRequest is the body of POST /v1/ingest.
type IngestRequest struct {
	// CascadeID names the live cascade to append to, creating it on first
	// touch. Required, non-empty.
	CascadeID string `json:"cascade_id"`
	// Events is the chronological batch to append. Events must not precede
	// the cascade's current tail.
	Events []ActivityJSON `json:"events"`
	// Repair, when set, routes the batch through the timeline Repair front
	// door first (sorting, deduplication, polarity/parent cleanup) instead
	// of rejecting dirty input with a 400 — the crawl-resilient mode.
	Repair bool `json:"repair,omitempty"`
	// TimeoutMS tightens this request's deadline below the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// IngestResponse reports one append.
type IngestResponse struct {
	// CascadeID echoes the cascade appended to.
	CascadeID string `json:"cascade_id"`
	// Events is the cascade's total event count after the append.
	Events int `json:"events"`
	// Appended counts the events this request added (after any repair).
	Appended int `json:"appended"`
	// Parents is the MAP parent attributed to each appended event — the
	// running E-step responsibility — as an index into the cascade's own
	// timeline, -1 for immigrant picks.
	Parents []timeline.ActivityID `json:"parents"`
	// Rebuilt reports that the cascade's state was replayed under a new
	// model version before appending.
	Rebuilt bool `json:"rebuilt,omitempty"`
	// Repairs summarizes what the Repair front door changed (only with
	// "repair": true and only when something changed).
	Repairs string `json:"repairs,omitempty"`
}

// decodeIngestRequest parses an ingest body (strict fields, bounded size) —
// also the fuzz target's entry point: no body may panic the decoder or
// anything downstream of it.
func decodeIngestRequest(r io.Reader) (*IngestRequest, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("decoding body: %v", err)
	}
	return &req, nil
}

// validate applies the structural constraints before the request spends a
// queue slot.
func (req *IngestRequest) validate() error {
	if req.CascadeID == "" {
		return badRequest("cascade_id must be non-empty")
	}
	if len(req.Events) == 0 {
		return badRequest("events is empty: nothing to ingest")
	}
	if len(req.Events) > maxIngestEvents {
		return badRequest("batch of %d events exceeds the %d-event cap; split the append", len(req.Events), maxIngestEvents)
	}
	if req.TimeoutMS < 0 {
		return badRequest("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	return nil
}

// eventSequence materializes the batch through the timeline Check/Repair
// front door: parse (same field rules as prediction histories), then either
// Repair dirty input into shape or reject it with the validation error.
// The returned activities are clean, chronological, and parent-free — the
// store re-attributes parents itself.
func (req *IngestRequest) eventSequence(m int) ([]timeline.Activity, string, error) {
	acts := make([]timeline.Activity, 0, len(req.Events))
	last := 0.0
	for i, a := range req.Events {
		if a.User < 0 || a.User >= m {
			return nil, "", badRequest("events[%d]: user %d outside [0,%d) for the served model", i, a.User, m)
		}
		kind := timeline.Post
		if a.Kind != "" {
			var err error
			if kind, err = timeline.ParseKind(a.Kind); err != nil {
				return nil, "", badRequest("events[%d]: %v", i, err)
			}
		}
		if !req.Repair {
			if math.IsNaN(a.Time) || math.IsInf(a.Time, 0) || a.Time < 0 {
				return nil, "", badRequest("events[%d]: time must be finite and non-negative, got %g", i, a.Time)
			}
			if math.IsNaN(a.Polarity) || math.IsInf(a.Polarity, 0) {
				return nil, "", badRequest("events[%d]: polarity must be finite", i)
			}
		}
		if a.Time > last {
			last = a.Time
		}
		acts = append(acts, timeline.Activity{
			ID: timeline.ActivityID(i), User: timeline.UserID(a.User),
			Time: a.Time, Kind: kind, Polarity: a.Polarity,
			Parent: timeline.NoParent,
		})
	}
	horizon := last
	if horizon <= 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		horizon = math.Nextafter(0, 1)
	}
	seq := &timeline.Sequence{M: m, Horizon: horizon, Activities: acts}
	repairs := ""
	if req.Repair {
		repaired, report := seq.Repair()
		seq = repaired
		if report.Changed() {
			repairs = report.String()
		}
	}
	if err := seq.Check(); err != nil {
		return nil, "", err // *timeline.ValidationError → 400
	}
	return seq.Activities, repairs, nil
}

// prepareIngest prepares POST /v1/ingest. The append rides the prediction
// dispatcher: one bounded queue applies backpressure to the whole /v1
// surface, so shed accounting partitions exactly across ingest and predict
// traffic.
func (s *Server) prepareIngest(r *http.Request, snap *ModelSnapshot) (*v1Work, error) {
	if s.wal != nil {
		// Replay owns the store until recovery completes; afterwards, a
		// wedged or backlogged WAL sheds ingest (the event would not be
		// durable) while the read path stays up.
		if !s.walRecovered.Load() {
			return nil, ErrReplaying
		}
		if s.wal.Stalled() {
			s.metrics.Counter("serve.ingest.shed_wal").Inc()
			return nil, ErrWALStalled
		}
	}
	req, err := decodeIngestRequest(r.Body)
	if err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	acts, repairs, err := req.eventSequence(snap.M)
	if err != nil {
		return nil, err
	}
	var res *ingest.Result
	run := func(ctx context.Context, workers int) ([]byte, error) {
		// The gate's read side spans apply+log so a compaction snapshot
		// (write side) can never observe an applied-but-unlogged batch; the
		// logger only enqueues, so no disk I/O happens on the dispatcher.
		if s.wal != nil {
			s.walGate.RLock()
			defer s.walGate.RUnlock()
		}
		r0, err := s.store.Append(snap.Model, snap.Proc, snap.Version, req.CascadeID, acts)
		if err != nil {
			return nil, err
		}
		res = r0
		return json.Marshal(IngestResponse{
			CascadeID: res.Cascade, Events: res.Events, Appended: res.Appended,
			Parents: res.Parents, Rebuilt: res.Rebuilt, Repairs: repairs,
		})
	}
	// Acknowledge only durable appends: under sync=always this blocks until
	// the record's batch is fsynced (a stall sheds with a typed 503 — the
	// events are applied in memory but the client must not trust them
	// persisted). Under sync=interval/off WaitDurable returns immediately
	// and the acknowledged-durability window is the sync interval.
	after := func() error {
		if s.wal != nil && res.LSN > 0 {
			if err := s.wal.WaitDurable(res.LSN); err != nil {
				s.metrics.Counter("serve.ingest.shed_wal").Inc()
				return err
			}
		}
		s.maybeCompactWAL()
		return nil
	}
	return &v1Work{timeoutMS: req.TimeoutMS, run: run, after: after}, nil
}

// refitOnce runs one incremental EM refresh: merge the training timeline
// with every live cascade tail (running MAP parents embedded), run the
// warm-started mini-batch M-step, and CAS-install the result through the
// registry. Returns the serving snapshot afterwards, whether a new one was
// installed, and how many live events the refresh saw. A base-version move
// between pin and install surfaces as ErrReloadConflict — the caller simply
// retries against the new snapshot (the next periodic tick does).
func (s *Server) refitOnce(ctx context.Context) (snap *ModelSnapshot, installed bool, liveEvents int, err error) {
	if !s.refitBusy.CompareAndSwap(false, true) {
		return nil, false, 0, &Error{Status: http.StatusConflict, Code: "reload_conflict", Retryable: true,
			Message: "a refit is already in progress"}
	}
	defer s.refitBusy.Store(false)
	defer func() {
		if err != nil {
			s.metrics.Counter("serve.refit.errors").Inc()
		}
	}()
	if s.wal != nil && !s.walRecovered.Load() {
		// Replay is reconstructing the store and version chain; a refit now
		// would fork both.
		return nil, false, 0, ErrReplaying
	}
	base := s.reg.Current()
	if base == nil {
		return nil, false, 0, ErrNotReady
	}
	// DumpSynced, not Dump: the dumps are sorted by cascade id with parents
	// freshly attributed under base's version, so the refit input — and with
	// it the refit marker's recipe — is a pure function of store contents,
	// independent of LRU order. That purity is what lets WAL recovery
	// recompute a bit-identical model from the marker.
	dumps, err := s.store.DumpSynced(base.Model, base.Proc, base.Version)
	if err != nil {
		return nil, false, 0, err
	}
	if len(dumps) == 0 {
		return base, false, 0, nil // nothing ingested yet: no-op, not an error
	}
	refit, liveEvents, err := s.buildRefitModel(ctx, base, dumps, s.cfg.RefitPasses)
	if err != nil {
		return nil, false, liveEvents, err
	}
	if refit == nil {
		return base, false, liveEvents, nil
	}
	next, err := s.reg.Install(refit, base.Version)
	if err != nil {
		return nil, false, liveEvents, err
	}
	s.metrics.Counter("serve.refit.total").Inc()
	if s.wal != nil {
		s.logRefitMarker(base, next, dumps)
	}
	return next, true, liveEvents, nil
}

// logRefitMarker makes an installed refit crash-durable: it appends the
// self-contained recipe (base version, installed version, passes, synced
// tails) to the WAL and waits it out. The install already happened and
// cannot be unwound, so a logging failure is not an error — it just means
// a crash before the next successful marker or compaction loses this
// version (logged loudly; the stall also sheds subsequent ingests).
func (s *Server) logRefitMarker(base, next *ModelSnapshot, dumps []ingest.CascadeDump) {
	rec := walRefitJSON{BaseVersion: base.Version, Version: next.Version,
		Passes: s.cfg.RefitPasses, Tails: dumps}
	data, err := json.Marshal(rec)
	if err != nil {
		s.logf("wal: refit marker for version %d not encodable (version lost to a crash): %v", next.Version, err)
		return
	}
	s.walGate.RLock()
	lsn, err := s.wal.Append(walRecRefit, data)
	s.walGate.RUnlock()
	if err == nil {
		err = s.wal.WaitDurable(lsn)
	}
	if err != nil {
		s.logf("wal: refit marker for version %d not durable (version lost to a crash): %v", next.Version, err)
	}
	// Chain bookkeeping happens regardless: the marker describes the live
	// in-memory lineage, which future compaction snapshots must reproduce.
	s.walChain.append(base, rec)
	s.maybeCompactWAL()
}

// refitLoop drives periodic incremental refits until ctx is cancelled.
func (s *Server) refitLoop(ctx context.Context) {
	t := time.NewTicker(s.cfg.RefitEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			snap, installed, live, err := s.refitOnce(ctx)
			switch {
			case err != nil:
				s.logf("periodic refit failed (previous model keeps serving): %v", err)
			case installed:
				s.logf("incremental refit installed version %d (%d live events)", snap.Version, live)
			}
		}
	}
}

// refitJSON is the /admin/refit response.
type refitJSON struct {
	Refitted   bool  `json:"refitted"`
	Version    int64 `json:"version"`
	LiveEvents int   `json:"live_events"`
}

// handleRefit triggers one incremental refit synchronously. POST-only. A
// concurrent refit or a snapshot that moved mid-refresh is a 409
// reload_conflict (retry); no ingested events is a successful no-op.
func (s *Server) handleRefit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &Error{Status: http.StatusMethodNotAllowed, Code: "method_not_allowed",
			Message: "use POST"})
		return
	}
	snap, installed, live, err := s.refitOnce(r.Context())
	if err != nil {
		s.logf("admin refit failed (previous model keeps serving): %v", err)
		writeError(w, err)
		return
	}
	if installed {
		s.logf("incremental refit installed version %d (%d live events)", snap.Version, live)
	}
	w.Header().Set("Content-Type", "application/json")
	//nolint:errcheck // best-effort write
	json.NewEncoder(w).Encode(refitJSON{Refitted: installed, Version: snap.Version, LiveEvents: live})
}
