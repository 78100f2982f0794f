package serve

// This file is the serve layer's durability glue over internal/wal: what
// gets logged, how boot replays it, and when the log compacts.
//
// Two record types cover the server's online state:
//
//   - "ingest.append/v1": one applied append batch (cascade id + the exact
//     events the store absorbed, running MAP parents included). Logged by
//     the store's AppendLogger hook under the cascade lock, so per-cascade
//     record order is exactly apply order.
//   - "refit.install/v1": one incremental-refit install. The marker is a
//     self-contained recipe — base version, installed version, passes, and
//     the synced cascade dumps the refit consumed — because a refit model
//     cannot round-trip through the model codec (its conformity state binds
//     to the merged sequence). Replay recomputes RefitIncremental from the
//     recipe; the computation is deterministic, so the recovered model is
//     bit-identical to the installed one.
//
// Recovery invariant: after Recover, predict/influence responses for every
// live cascade_id — and the installed model version — are bit-identical to
// the uncrashed process, because replay drives the same ingest.Store append
// path and the same refit builder live traffic used. The compaction
// snapshot folds sealed segments into {refit recipes, cascade dumps}; the
// walGate RW-mutex orders it against in-flight appends (appends hold the
// read side across apply+log, compaction holds the write side across
// dump+snapshot), which guarantees every record above the snapshot's
// watermark is exactly the state the snapshot lacks.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"chassis/internal/core"
	"chassis/internal/ingest"
	"chassis/internal/timeline"
	"chassis/internal/wal"
)

// WAL record types (the version suffix tracks the payload schema).
const (
	walRecAppend = "ingest.append/v1"
	walRecRefit  = "refit.install/v1"
)

// walAppendJSON is the "ingest.append/v1" payload: the events exactly as
// the store applied them. Parents and IDs ride along but are re-derived on
// replay (the store owns them), so the record stays valid even if the
// attribution logic's inputs change shape.
type walAppendJSON struct {
	Cascade string              `json:"cascade"`
	Events  []timeline.Activity `json:"events"`
}

// walRefitJSON is the "refit.install/v1" payload: a self-contained recipe
// to recompute the installed model from the serving base.
type walRefitJSON struct {
	BaseVersion int64                `json:"base_version"`
	Version     int64                `json:"version"`
	Passes      int                  `json:"passes"`
	Tails       []ingest.CascadeDump `json:"tails"`
}

// walSnapshotJSON is the compaction snapshot payload: the refit-recipe
// chain from the file-loaded model to the current one, plus every live
// cascade tail (LRU order, most recent first, as ingest.Dump produces).
type walSnapshotJSON struct {
	Version  int64                `json:"version"`
	Refits   []walRefitJSON       `json:"refits,omitempty"`
	Cascades []ingest.CascadeDump `json:"cascades"`
}

// refitChain accumulates the refit recipes installed since the last
// file-derived snapshot — the compaction snapshot's model provenance.
type refitChain struct {
	mu   sync.Mutex
	recs []walRefitJSON
}

// append records one installed refit. A file-derived base means the chain
// restarts there: the on-disk model is the new recovery root.
func (c *refitChain) append(base *ModelSnapshot, rec walRefitJSON) {
	c.mu.Lock()
	if base.FileDerived {
		c.recs = nil
	}
	c.recs = append(c.recs, rec)
	c.mu.Unlock()
}

func (c *refitChain) snapshot() []walRefitJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]walRefitJSON(nil), c.recs...)
}

func (c *refitChain) reset() {
	c.mu.Lock()
	c.recs = nil
	c.mu.Unlock()
}

// logAppend is the ingest.AppendLogger the store calls under the cascade
// lock for every applied batch. It only encodes and enqueues — the WAL's
// writer goroutine owns the disk — so the dispatcher never blocks on I/O.
func (s *Server) logAppend(id string, acts []timeline.Activity) (int64, error) {
	data, err := json.Marshal(walAppendJSON{Cascade: id, Events: acts})
	if err != nil {
		return 0, fmt.Errorf("serve: encoding wal append record: %w", err)
	}
	return s.wal.Append(walRecAppend, data)
}

// Recover runs WAL recovery to completion (idempotent; no-op without a
// WAL): restore the compaction snapshot, replay the record tail through the
// live append/refit paths, then open the log for writing. Run spawns it so
// /readyz can answer 503 replaying meanwhile; servers mounted via Handler
// with a WAL must call it themselves before ingest traffic is accepted.
func (s *Server) Recover(ctx context.Context) error {
	if s.wal == nil {
		s.walRecovered.Store(true)
		return nil
	}
	s.recoverOnce.Do(func() { s.recoverErr = s.recoverWAL(ctx) })
	return s.recoverErr
}

// recoverWAL is the single-threaded recovery body.
func (s *Server) recoverWAL(ctx context.Context) error {
	start := time.Now()
	replayed, replayErrs := 0, 0

	if data, snapLSN := s.wal.Snapshot(); len(data) > 0 {
		var snap walSnapshotJSON
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("serve: decoding wal snapshot: %w", err)
		}
		for i := range snap.Refits {
			if err := s.applyRefitRecord(ctx, &snap.Refits[i]); err != nil {
				return fmt.Errorf("serve: replaying snapshot refit chain (version %d): %w", snap.Refits[i].Version, err)
			}
		}
		if err := s.store.Restore(snap.Cascades); err != nil {
			return fmt.Errorf("serve: restoring ingest store: %w", err)
		}
		s.logf("wal: snapshot restored %d cascades and %d refit recipes through lsn %d",
			s.store.Len(), len(snap.Refits), snapLSN)
	}

	err := s.wal.Replay(func(rec *wal.Record) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		replayed++
		switch rec.Type {
		case walRecAppend:
			var ap walAppendJSON
			if err := json.Unmarshal(rec.Data, &ap); err != nil {
				replayErrs++
				s.logf("wal: skipping undecodable append record %d: %v", rec.LSN, err)
				return nil
			}
			// The same front door live ingest used: validation, MAP parent
			// attribution, and the accumulator update all re-run, which is
			// what makes the recovered continuation state bit-identical.
			snap := s.reg.Current()
			if _, err := s.store.Append(snap.Model, snap.Proc, snap.Version, ap.Cascade, ap.Events); err != nil {
				replayErrs++
				s.logf("wal: append record %d (cascade %q) failed to re-apply: %v", rec.LSN, ap.Cascade, err)
			}
		case walRecRefit:
			var rf walRefitJSON
			if err := json.Unmarshal(rec.Data, &rf); err != nil {
				replayErrs++
				s.logf("wal: skipping undecodable refit record %d: %v", rec.LSN, err)
				return nil
			}
			if err := s.applyRefitRecord(ctx, &rf); err != nil {
				replayErrs++
				s.logf("wal: refit record %d (version %d) failed to re-apply: %v", rec.LSN, rf.Version, err)
			}
		default:
			// Forward compatibility: a newer build's record types replay as
			// no-ops rather than poisoning recovery.
			s.logf("wal: skipping record %d of unknown type %q", rec.LSN, rec.Type)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("serve: wal replay: %w", err)
	}

	// Order matters: the logger goes in before the log opens for writing,
	// and both before the recovered flag flips — handlers check the flag, so
	// no append can race the switchover.
	s.store.SetLogger(s.logAppend)
	if err := s.wal.Start(); err != nil {
		return fmt.Errorf("serve: starting wal: %w", err)
	}
	s.walRecovered.Store(true)
	elapsed := time.Since(start)
	s.metrics.Gauge("wal.replay_seconds").Set(elapsed.Seconds())
	cur := s.reg.Current()
	s.logf("wal: recovery complete in %s (%d records replayed, %d errors; %d live cascades / %d events, model version %d)",
		elapsed.Round(time.Millisecond), replayed, replayErrs, s.store.Len(), s.store.EventCount(), cur.Version)
	return nil
}

// applyRefitRecord recomputes one logged refit from its recipe and installs
// it at its recorded version — the replay twin of refitOnce's install.
func (s *Server) applyRefitRecord(ctx context.Context, rec *walRefitJSON) error {
	base := s.reg.Current()
	if base == nil {
		return ErrNotReady
	}
	if base.Version != rec.BaseVersion {
		// File reloads are not logged (the files are their own durability),
		// so a recovered chain can recompute from a different absolute base
		// version than the marker recorded. The recompute is still the
		// deterministic function of (current model, recipe tails).
		s.logf("wal: refit version %d recorded base %d, recomputing from current version %d",
			rec.Version, rec.BaseVersion, base.Version)
	}
	model, _, err := s.buildRefitModel(ctx, base, rec.Tails, rec.Passes)
	if err != nil {
		return err
	}
	if model == nil {
		return fmt.Errorf("serve: refit recipe for version %d holds no live events", rec.Version)
	}
	if _, err := s.reg.InstallVersion(model, rec.Version); err != nil {
		return err
	}
	s.walChain.append(base, *rec)
	return nil
}

// buildRefitModel is the one refit computation both the live path
// (refitOnce) and replay (applyRefitRecord) call: merge the training
// timeline with the dumped tails, repair, and run the warm-started
// incremental EM. A (nil, 0, nil) return means the dumps held no live
// events. Deterministic at any worker count — the bit-identity contract
// between a live install and its replayed recompute rests here.
func (s *Server) buildRefitModel(ctx context.Context, base *ModelSnapshot, dumps []ingest.CascadeDump, passes int) (*core.Model, int, error) {
	var parents []timeline.ActivityID
	if f := base.Model.Forest; f != nil && f.Len() == base.Train.Len() {
		parents = f.Parents()
	}
	merged := ingest.MergedDumps(base.Train, parents, dumps)
	if merged == nil {
		return nil, 0, nil
	}
	// Live tails can collide with training events or each other (same user,
	// same instant); the Repair front door dedups and re-densifies so the
	// refit's Check front door accepts the merge.
	merged, _ = merged.Repair()
	live := merged.Len() - base.Train.Len()
	if live <= 0 {
		return nil, live, nil
	}
	model, err := base.Model.RefitIncremental(ctx, merged, nil, passes)
	if err != nil {
		return nil, live, err
	}
	return model, live, nil
}

// maybeCompactWAL triggers an async compaction when enough sealed segments
// accumulated. Single-flight; failures are logged and retried on a later
// trigger (the log just keeps growing meanwhile).
func (s *Server) maybeCompactWAL() {
	if s.wal == nil || !s.walRecovered.Load() {
		return
	}
	if s.wal.SealedSegments() < s.wal.CompactAfter() {
		return
	}
	if !s.compactBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compactBusy.Store(false)
		if err := s.compactWAL(); err != nil {
			s.logf("wal compaction failed (log keeps growing, will retry): %v", err)
		}
	}()
}

// compactWAL folds everything logged so far into a snapshot. It holds the
// walGate write side, so no append can apply-and-log while the dump is
// taken: every record with an LSN above the watermark is exactly what the
// snapshot does not contain. Refit markers appended outside the gate are
// safe either way — a marker missing from the chain here has a later LSN
// and replays on top of the snapshot.
func (s *Server) compactWAL() error {
	s.walGate.Lock()
	defer s.walGate.Unlock()
	cur := s.reg.Current()
	if cur == nil {
		return ErrNotReady
	}
	lsn := s.wal.LastLSN()
	var refits []walRefitJSON
	if cur.FileDerived {
		// The serving model is the on-disk file: no recipes needed, and any
		// stale chain from before the reload no longer derives this model.
		s.walChain.reset()
	} else {
		refits = s.walChain.snapshot()
	}
	snap := walSnapshotJSON{Version: cur.Version, Refits: refits, Cascades: s.store.Dump()}
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("serve: encoding wal snapshot: %w", err)
	}
	if err := s.wal.Compact(data, lsn); err != nil {
		return err
	}
	s.logf("wal: compacted through lsn %d (%d cascades, %d refit recipes)", lsn, len(snap.Cascades), len(refits))
	return nil
}
