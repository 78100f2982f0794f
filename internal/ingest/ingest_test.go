package ingest

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	gen "chassis/internal/cascade"
	"chassis/internal/core"
	"chassis/internal/hawkes"
	"chassis/internal/obs"
	"chassis/internal/timeline"
)

// fixture fits a compact exponential-kernel model (the bank the streaming
// accumulator requires) and returns it with its process and a live tail to
// ingest: the tail of the generator's sequence, re-based as a fresh cascade.
func fixture(t *testing.T) (*core.Model, *hawkes.Process, []timeline.Activity) {
	t.Helper()
	d, err := gen.Generate(gen.Config{
		Name: "ingest", M: 10, Horizon: 600, Seed: 23,
		Graph: gen.BarabasiAlbert, GraphDegree: 2, Reciprocity: 0.5,
		Topics: 2, BaseRateLo: 0.01, BaseRateHi: 0.03,
		KernelRate: 0.8, TargetBranching: 0.5,
		ConformityWeight: 0.6, PolarityNoise: 0.15, LikeFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Fit(d.Seq, core.Config{
		Variant: core.VariantL, EMIters: 3, MStepIters: 10,
		IntegrationGrid: 48, Seed: 5, ExpKernel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := d.Seq.Len()
	tail := make([]timeline.Activity, 0, 40)
	for _, a := range d.Seq.Activities[n-40:] {
		a.Parent = timeline.NoParent
		tail = append(tail, a)
	}
	return m, m.Process(), tail
}

// TestAppendMatchesBatchRebuild is the replay oracle at the store level:
// ingesting a cascade one event per Append call yields the same state,
// parents, and finalized continuation values as one bulk Append — and as a
// from-scratch HistoryState over the same tail. Bit-identical, not within
// tolerance.
func TestAppendMatchesBatchRebuild(t *testing.T) {
	m, proc, tail := fixture(t)
	metrics := obs.NewMetrics()
	one := NewStore(Config{}, metrics)
	bulk := NewStore(Config{}, metrics)

	var parents []timeline.ActivityID
	for k := range tail {
		res, err := one.Append(m, proc, 1, "c", tail[k:k+1])
		if err != nil {
			t.Fatalf("event %d: %v", k, err)
		}
		parents = append(parents, res.Parents...)
	}
	bres, err := bulk.Append(m, proc, 1, "c", tail)
	if err != nil {
		t.Fatal(err)
	}
	if bres.Events != len(tail) || bres.Appended != len(tail) {
		t.Fatalf("bulk counts: events=%d appended=%d", bres.Events, bres.Appended)
	}
	for k := range parents {
		if parents[k] != bres.Parents[k] {
			t.Fatalf("event %d: streaming parent %d != bulk parent %d", k, parents[k], bres.Parents[k])
		}
	}
	horizon := tail[len(tail)-1].Time + 3
	stOne, seqOne, err := one.State(m, proc, 1, "c", horizon)
	if err != nil {
		t.Fatal(err)
	}
	stBulk, _, err := bulk.State(m, proc, 1, "c", horizon)
	if err != nil {
		t.Fatal(err)
	}
	if stOne == nil || stBulk == nil {
		t.Fatal("nil state for an exponential-kernel model")
	}
	for i := range stOne.R {
		if stOne.R[i] != stBulk.R[i] {
			t.Fatalf("R[%d]: one-by-one %v != bulk %v", i, stOne.R[i], stBulk.R[i])
		}
	}
	want := proc.HistoryState(seqOne)
	for i := range want.R {
		if stOne.R[i] != want.R[i] {
			t.Fatalf("R[%d]: ingested %v != full rebuild %v (not bit-identical)", i, stOne.R[i], want.R[i])
		}
	}
	// And the embedded parents equal a batch MAP pass over the same tail.
	batch, err := m.AssignParents(seqOne.StripParents(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range seqOne.Activities {
		if a.Parent != batch[k] {
			t.Fatalf("event %d: running parent %d != batch parent %d", k, a.Parent, batch[k])
		}
	}
}

// TestVersionChangeRebuilds: a new snapshot version transparently replays
// the tail, and the rebuilt state matches a store that only ever saw the
// new version.
func TestVersionChangeRebuilds(t *testing.T) {
	m, proc, tail := fixture(t)
	metrics := obs.NewMetrics()
	s := NewStore(Config{}, metrics)
	if _, err := s.Append(m, proc, 1, "c", tail[:20]); err != nil {
		t.Fatal(err)
	}
	res, err := s.Append(m, proc, 2, "c", tail[20:])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt {
		t.Error("version change did not rebuild")
	}
	if got := metrics.Counter("ingest.rebuilds").Value(); got != 1 {
		t.Errorf("rebuilds = %d, want 1", got)
	}
	fresh := NewStore(Config{}, obs.NewMetrics())
	if _, err := fresh.Append(m, proc, 2, "c", tail); err != nil {
		t.Fatal(err)
	}
	horizon := tail[len(tail)-1].Time + 1
	a, _, err := s.State(m, proc, 2, "c", horizon)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := fresh.State(m, proc, 2, "c", horizon)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.R {
		if a.R[i] != b.R[i] {
			t.Fatalf("rebuilt R[%d] = %v, fresh %v", i, a.R[i], b.R[i])
		}
	}
}

// TestAppendValidation exercises the front-door guards.
func TestAppendValidation(t *testing.T) {
	m, proc, tail := fixture(t)
	s := NewStore(Config{MaxEvents: 8}, obs.NewMetrics())
	var ve *timeline.ValidationError
	if _, err := s.Append(m, proc, 1, "", tail[:1]); !errors.As(err, &ve) {
		t.Error("empty cascade id accepted")
	}
	if _, err := s.Append(m, proc, 1, "c", nil); !errors.As(err, &ve) {
		t.Error("empty event batch accepted")
	}
	if _, err := s.Append(m, proc, 1, "c", tail[:2]); err != nil {
		t.Fatal(err)
	}
	// Out of order vs the existing tail.
	early := tail[0]
	early.Time = 0
	if _, err := s.Append(m, proc, 1, "c", []timeline.Activity{early}); !errors.As(err, &ve) {
		t.Error("out-of-order append accepted")
	}
	bad := tail[2]
	bad.User = timeline.UserID(m.M)
	if _, err := s.Append(m, proc, 1, "c", []timeline.Activity{bad}); !errors.As(err, &ve) {
		t.Error("out-of-range user accepted")
	}
	if _, err := s.Append(m, proc, 1, "c", tail[2:12]); !errors.As(err, &ve) {
		t.Error("append past the event cap accepted")
	}
	if _, _, err := s.State(m, proc, 1, "nope", 0); !errors.Is(err, ErrUnknownCascade) {
		t.Error("unknown cascade did not return ErrUnknownCascade")
	}
	if _, _, err := s.State(m, proc, 1, "c", tail[0].Time); !errors.As(err, &ve) {
		t.Error("horizon before the tail accepted")
	}
}

// TestCascadeEviction: the LRU bound holds, evictions are counted under
// ingest.cascades_evicted, and an evicted ID answers the typed ErrEvicted
// (not ErrUnknownCascade) until it is re-ingested fresh.
func TestCascadeEviction(t *testing.T) {
	m, proc, tail := fixture(t)
	metrics := obs.NewMetrics()
	s := NewStore(Config{MaxCascades: 2}, metrics)
	for i := 0; i < 4; i++ {
		if _, err := s.Append(m, proc, 1, fmt.Sprintf("c%d", i), tail[:3]); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("store holds %d cascades, cap is 2", s.Len())
	}
	if got := metrics.Counter("ingest.cascades_evicted").Value(); got != 2 {
		t.Errorf("cascades_evicted = %d, want 2", got)
	}
	if _, _, err := s.State(m, proc, 1, "c0", 0); !errors.Is(err, ErrEvicted) {
		t.Errorf("evicted cascade returned %v, want ErrEvicted", err)
	}
	if _, _, err := s.State(m, proc, 1, "never", 0); !errors.Is(err, ErrUnknownCascade) {
		t.Error("never-seen cascade did not return ErrUnknownCascade")
	}
	if s.EventCount() != 6 {
		t.Errorf("event count = %d, want 6", s.EventCount())
	}
	// Re-ingesting an evicted ID starts it over and clears the marker.
	if _, err := s.Append(m, proc, 1, "c0", tail[:1]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.State(m, proc, 1, "c0", 0); err != nil {
		t.Errorf("re-ingested cascade unresolvable: %v", err)
	}
}

// TestConcurrentAppendsDistinctCascades: parallel appends to separate
// cascades do not interfere (run under -race), and each cascade ends with
// exactly its own events and the same state a serial ingest produces.
func TestConcurrentAppendsDistinctCascades(t *testing.T) {
	m, proc, tail := fixture(t)
	s := NewStore(Config{}, obs.NewMetrics())
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("c%d", g)
			for k := range tail {
				if _, err := s.Append(m, proc, 1, id, tail[k:k+1]); err != nil {
					errs <- fmt.Errorf("%s event %d: %w", id, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	serial := NewStore(Config{}, obs.NewMetrics())
	if _, err := serial.Append(m, proc, 1, "ref", tail); err != nil {
		t.Fatal(err)
	}
	horizon := tail[len(tail)-1].Time + 2
	ref, _, err := serial.State(m, proc, 1, "ref", horizon)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		st, seq, err := s.State(m, proc, 1, fmt.Sprintf("c%d", g), horizon)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Len() != len(tail) {
			t.Fatalf("cascade c%d holds %d events, want %d", g, seq.Len(), len(tail))
		}
		for i := range ref.R {
			if st.R[i] != ref.R[i] {
				t.Fatalf("cascade c%d diverged from serial ingest at R[%d]", g, i)
			}
		}
	}
}

// TestMergedCarriesParents: the refit merge embeds both the training
// parents and the cascades' running MAP parents, normalized.
func TestMergedCarriesParents(t *testing.T) {
	m, proc, tail := fixture(t)
	s := NewStore(Config{}, obs.NewMetrics())
	if MergedDumps(&timeline.Sequence{M: m.M, Horizon: 1}, nil, s.Dump()) != nil {
		t.Fatal("empty store produced a merged sequence")
	}
	if _, err := s.Append(m, proc, 1, "c", tail); err != nil {
		t.Fatal(err)
	}
	train := &timeline.Sequence{M: m.M, Horizon: 5, Activities: []timeline.Activity{
		{ID: 0, User: 0, Time: 0.5, Parent: timeline.NoParent},
		{ID: 1, User: 1, Time: 1.5, Parent: timeline.NoParent},
	}}
	dumps, err := s.DumpSynced(m, proc, 1)
	if err != nil {
		t.Fatal(err)
	}
	merged := MergedDumps(train, []timeline.ActivityID{timeline.NoParent, 0}, dumps)
	if merged == nil {
		t.Fatal("nil merged sequence")
	}
	if merged.Len() != train.Len()+len(tail) {
		t.Fatalf("merged %d events, want %d", merged.Len(), train.Len()+len(tail))
	}
	if err := merged.Check(); err != nil {
		t.Fatalf("merged sequence invalid: %v", err)
	}
	// The supplied train parent (event 1 → event 0) survives the merge.
	if merged.Activities[1].Parent != 0 {
		t.Errorf("train parent lost in merge: %d", merged.Activities[1].Parent)
	}
	// At least one ingested event kept a non-immigrant running parent.
	nonImmigrant := 0
	for _, a := range merged.Activities[2:] {
		if a.Parent != timeline.NoParent {
			nonImmigrant++
		}
	}
	if nonImmigrant == 0 {
		t.Error("no cascade parent survived the merge")
	}
	// And the original train sequence was not mutated.
	if train.Activities[1].Parent != timeline.NoParent {
		t.Error("Merged mutated the caller's training sequence")
	}
}

// TestDumpRestoreRoundTrip: a Restore over Dump output reproduces the
// store bit-for-bit — same LRU order, same continuation state, same
// parents — because the tail is the source of truth and the caches rebuild
// lazily. This is the WAL snapshot/recovery contract at the store level.
func TestDumpRestoreRoundTrip(t *testing.T) {
	m, proc, tail := fixture(t)
	a := NewStore(Config{}, obs.NewMetrics())
	for g := 0; g < 3; g++ {
		if _, err := a.Append(m, proc, 1, fmt.Sprintf("c%d", g), tail[:10+5*g]); err != nil {
			t.Fatal(err)
		}
	}
	dumps := a.Dump()
	if len(dumps) != 3 {
		t.Fatalf("dumped %d cascades, want 3", len(dumps))
	}
	// Most recently touched first: c2 was appended last.
	if dumps[0].ID != "c2" {
		t.Fatalf("dump order: first is %q, want c2", dumps[0].ID)
	}
	b := NewStore(Config{}, obs.NewMetrics())
	if err := b.Restore(dumps); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 || b.EventCount() != a.EventCount() {
		t.Fatalf("restored %d cascades / %d events, want 3 / %d", b.Len(), b.EventCount(), a.EventCount())
	}
	horizon := tail[len(tail)-1].Time + 2
	for g := 0; g < 3; g++ {
		id := fmt.Sprintf("c%d", g)
		sa, qa, err := a.State(m, proc, 1, id, horizon)
		if err != nil {
			t.Fatal(err)
		}
		sb, qb, err := b.State(m, proc, 1, id, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if qa.Len() != qb.Len() {
			t.Fatalf("%s: restored %d events, want %d", id, qb.Len(), qa.Len())
		}
		for i := range sa.R {
			if sa.R[i] != sb.R[i] {
				t.Fatalf("%s: restored R[%d] = %v, want %v (not bit-identical)", id, i, sb.R[i], sa.R[i])
			}
		}
		for k := range qa.Activities {
			if qa.Activities[k].Parent != qb.Activities[k].Parent {
				t.Fatalf("%s event %d: restored parent %d, want %d", id, k, qb.Activities[k].Parent, qa.Activities[k].Parent)
			}
		}
	}
	if err := b.Restore([]CascadeDump{{ID: "x"}, {ID: "x"}}); err == nil {
		t.Error("duplicate cascade id accepted by Restore")
	}
}

// TestRestoreOverCap: a dump longer than MaxCascades (the cap was lowered
// across a restart) restores the newest MaxCascades cascades and remembers
// the rest as evicted, without counting them as evictions or as events. A
// duplicate id is refused even when the cap would drop its first copy, and
// a refused dump leaves the store as it was.
func TestRestoreOverCap(t *testing.T) {
	m, proc, tail := fixture(t)
	metrics := obs.NewMetrics()
	s := NewStore(Config{MaxCascades: 2}, metrics)
	dumps := []CascadeDump{ // most recently touched first, as Dump writes them
		{ID: "c3", Events: tail[:4]},
		{ID: "c2", Events: tail[:3]},
		{ID: "c1", Events: tail[:2]},
		{ID: "c0", Events: tail[:1]},
	}
	if err := s.Restore(dumps); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.EventCount() != 7 {
		t.Fatalf("restored %d cascades / %d events, want 2 / 7", s.Len(), s.EventCount())
	}
	if got := metrics.Counter("ingest.events").Value(); got != 7 {
		t.Errorf("ingest.events = %d, want 7 (live cascades only)", got)
	}
	if got := metrics.Counter("ingest.cascades_evicted").Value(); got != 0 {
		t.Errorf("cascades_evicted = %d, want 0", got)
	}
	if got := s.Dump(); len(got) != 2 || got[0].ID != "c3" || got[1].ID != "c2" {
		t.Fatalf("restored order %+v, want c3, c2", got)
	}
	for _, id := range []string{"c1", "c0"} {
		if _, _, err := s.State(m, proc, 1, id, 0); !errors.Is(err, ErrEvicted) {
			t.Errorf("%s past the cap returned %v, want ErrEvicted", id, err)
		}
	}
	if _, _, err := s.State(m, proc, 1, "c3", 0); err != nil {
		t.Errorf("restored cascade unresolvable: %v", err)
	}

	dup := []CascadeDump{{ID: "a"}, {ID: "c"}, {ID: "b"}, {ID: "a"}}
	if err := s.Restore(dup); err == nil {
		t.Error("duplicate cascade id past the cap accepted by Restore")
	}
	if s.Len() != 2 || s.EventCount() != 7 {
		t.Errorf("refused Restore changed the store: %d cascades / %d events", s.Len(), s.EventCount())
	}
}

// TestDumpSyncedPure: DumpSynced is a pure function of the stored events
// and the version — sorted by cascade ID, indifferent to which cascade was
// touched (read) last, with parents freshly attributed. Two stores holding
// the same events with different access histories must dump identically,
// or a WAL-replayed refit could diverge from the live one.
func TestDumpSyncedPure(t *testing.T) {
	m, proc, tail := fixture(t)
	a := NewStore(Config{}, obs.NewMetrics())
	b := NewStore(Config{}, obs.NewMetrics())
	for _, id := range []string{"z", "m", "a"} {
		if _, err := a.Append(m, proc, 1, id, tail[:12]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"a", "z", "m"} { // different insertion order
		if _, err := b.Append(m, proc, 1, id, tail[:12]); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a's LRU around with reads; dumps must not care.
	if _, _, err := a.State(m, proc, 1, "z", 0); err != nil {
		t.Fatal(err)
	}
	da, err := a.DumpSynced(m, proc, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.DumpSynced(m, proc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(da) != 3 || len(db) != 3 {
		t.Fatalf("dump sizes %d/%d, want 3/3", len(da), len(db))
	}
	for i, want := range []string{"a", "m", "z"} {
		if da[i].ID != want || db[i].ID != want {
			t.Fatalf("dump %d: ids %q/%q, want %q (sorted)", i, da[i].ID, db[i].ID, want)
		}
		for k := range da[i].Events {
			if da[i].Events[k] != db[i].Events[k] {
				t.Fatalf("cascade %q event %d differs across access histories", want, k)
			}
		}
	}
}

// TestAppendLoggerContract: the logger sees exactly the applied events (the
// valid prefix on a mid-batch validation error), its LSN lands in the
// Result, and a logger failure rolls the batch back so nothing
// unacknowledged-by-the-log survives in the store.
func TestAppendLoggerContract(t *testing.T) {
	m, proc, tail := fixture(t)
	metrics := obs.NewMetrics()
	s := NewStore(Config{}, metrics)
	var logged [][]timeline.Activity
	var lsn int64
	var fail error
	s.SetLogger(func(id string, acts []timeline.Activity) (int64, error) {
		if fail != nil {
			return 0, fail
		}
		logged = append(logged, append([]timeline.Activity(nil), acts...))
		lsn++
		return lsn, nil
	})

	res, err := s.Append(m, proc, 1, "c", tail[:5])
	if err != nil || res.LSN != 1 || res.Appended != 5 {
		t.Fatalf("logged append: res=%+v err=%v", res, err)
	}
	if len(logged) != 1 || len(logged[0]) != 5 {
		t.Fatalf("logger saw %d batches", len(logged))
	}

	// Mid-batch validation error: the valid prefix persists and is logged.
	batch := append([]timeline.Activity(nil), tail[5:8]...)
	batch = append(batch, timeline.Activity{User: timeline.UserID(m.M), Time: batch[2].Time + 1})
	res, err = s.Append(m, proc, 1, "c", batch)
	var ve *timeline.ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("want validation error, got %v", err)
	}
	if res.Appended != 3 || res.LSN != 2 {
		t.Fatalf("prefix append: appended=%d lsn=%d", res.Appended, res.LSN)
	}
	if len(logged) != 2 || len(logged[1]) != 3 {
		t.Fatalf("logger saw %d batches, last %d events", len(logged), len(logged[len(logged)-1]))
	}
	if got := metrics.Counter("ingest.events").Value(); got != 8 {
		t.Fatalf("ingest.events = %d, want 8", got)
	}

	// Logger failure: full rollback, nothing acked, nothing counted.
	fail = errors.New("disk on fire")
	res, err = s.Append(m, proc, 1, "c", tail[8:12])
	if err == nil || res.Appended != 0 || res.LSN != 0 {
		t.Fatalf("failed log not rolled back: res=%+v err=%v", res, err)
	}
	if got := metrics.Counter("ingest.events").Value(); got != 8 {
		t.Fatalf("ingest.events after rollback = %d, want 8", got)
	}
	// The store still serves the pre-failure tail, and a later healthy
	// append replays cleanly from it.
	fail = nil
	res, err = s.Append(m, proc, 1, "c", tail[8:12])
	if err != nil || res.Appended != 4 {
		t.Fatalf("post-rollback append: res=%+v err=%v", res, err)
	}
	_, seq, err := s.State(m, proc, 1, "c", 0)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 12 {
		t.Fatalf("cascade holds %d events, want 12", seq.Len())
	}
	// Bit-identity vs a store that never saw the rollback.
	ref := NewStore(Config{}, obs.NewMetrics())
	if _, err := ref.Append(m, proc, 1, "c", tail[:12]); err != nil {
		t.Fatal(err)
	}
	horizon := tail[11].Time + 1
	got, _, err := s.State(m, proc, 1, "c", horizon)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.State(m, proc, 1, "c", horizon)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.R {
		if got.R[i] != want.R[i] {
			t.Fatalf("post-rollback R[%d] = %v, want %v", i, got.R[i], want.R[i])
		}
	}
}
