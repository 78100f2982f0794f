package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"chassis/internal/faultinject"
	"chassis/internal/obs"
)

// openStarted opens a WAL in dir and makes it writable, failing the test on
// any error.
func openStarted(t *testing.T, cfg Config, m *obs.Metrics) *WAL {
	t.Helper()
	w, err := Open(cfg, m)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := w.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return w
}

// appendWait appends one record and waits it durable.
func appendWait(t *testing.T, w *WAL, typ string, data string) int64 {
	t.Helper()
	lsn, err := w.Append(typ, json.RawMessage(data))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatalf("WaitDurable(%d): %v", lsn, err)
	}
	return lsn
}

// collectReplay replays the log into a slice.
func collectReplay(t *testing.T, w *WAL) []*Record {
	t.Helper()
	var recs []*Record
	if err := w.Replay(func(r *Record) error {
		cp := *r
		recs = append(recs, &cp)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openStarted(t, Config{Dir: dir}, nil)
	for i := 1; i <= 5; i++ {
		lsn := appendWait(t, w, "t", fmt.Sprintf(`{"i":%d}`, i))
		if lsn != int64(i) {
			t.Fatalf("lsn %d for record %d: LSNs must be contiguous from 1", lsn, i)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	recs := collectReplay(t, w2)
	if len(recs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != int64(i+1) || r.Type != "t" {
			t.Fatalf("record %d: lsn %d type %q", i, r.LSN, r.Type)
		}
		var body struct{ I int }
		if err := json.Unmarshal(r.Data, &body); err != nil || body.I != i+1 {
			t.Fatalf("record %d payload %s (err %v)", i, r.Data, err)
		}
	}
	// LSNs continue where the crashed/restarted process left off.
	if err := w2.Start(); err != nil {
		t.Fatalf("restart Start: %v", err)
	}
	if lsn := appendWait(t, w2, "t", `{"i":6}`); lsn != 6 {
		t.Fatalf("post-restart lsn %d, want 6", lsn)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	w := openStarted(t, Config{Dir: dir}, nil)
	for i := 1; i <= 3; i++ {
		appendWait(t, w, "t", fmt.Sprintf(`{"i":%d}`, i))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d", len(segs))
	}
	// A torn write: half a frame header, then nothing.
	f, err := os.OpenFile(segs[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m := obs.NewMetrics()
	w2, err := Open(Config{Dir: dir}, m)
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if got := len(collectReplay(t, w2)); got != 3 {
		t.Fatalf("replayed %d records after torn-tail truncation, want 3", got)
	}
	if v := m.Counter("wal.torn_tail").Value(); v != 1 {
		t.Fatalf("wal.torn_tail = %d, want 1", v)
	}
	// The tail is gone from disk too, so the next recovery is clean.
	if err := w2.Start(); err != nil {
		t.Fatalf("Start after truncation: %v", err)
	}
	if lsn := appendWait(t, w2, "t", `{"i":4}`); lsn != 4 {
		t.Fatalf("post-truncation lsn %d, want 4", lsn)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestBitFlipEndsValidPrefix(t *testing.T) {
	dir := t.TempDir()
	w := openStarted(t, Config{Dir: dir}, nil)
	for i := 1; i <= 4; i++ {
		appendWait(t, w, "t", fmt.Sprintf(`{"i":%d}`, i))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit in the third frame; frames 1-2 stay intact.
	off := 0
	for i := 0; i < 2; i++ {
		n := binary.LittleEndian.Uint32(b[off : off+4])
		off += frameHeaderSize + int(n)
	}
	b[off+frameHeaderSize] ^= 0x01
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("reopen after bit flip: %v", err)
	}
	recs := collectReplay(t, w2)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want the 2 before the flip", len(recs))
	}
	if recs[len(recs)-1].LSN != 2 {
		t.Fatalf("last surviving lsn %d, want 2", recs[len(recs)-1].LSN)
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	m := obs.NewMetrics()
	// Tiny segments: every record rotates.
	w := openStarted(t, Config{Dir: dir, SegmentBytes: 1}, m)
	for i := 1; i <= 4; i++ {
		appendWait(t, w, "t", fmt.Sprintf(`{"i":%d}`, i))
	}
	if got := w.SealedSegments(); got != 4 {
		t.Fatalf("SealedSegments = %d, want 4", got)
	}
	if err := w.Compact(json.RawMessage(`{"state":"through-3"}`), 3); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// Segments holding only lsns <= 3 are gone; lsn 4's survives.
	if got := w.SealedSegments(); got != 1 {
		t.Fatalf("SealedSegments after compaction = %d, want 1", got)
	}
	appendWait(t, w, "t", `{"i":5}`)
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	data, lsn := w2.Snapshot()
	if lsn != 3 || string(data) != `{"state":"through-3"}` {
		t.Fatalf("Snapshot = (%s, %d), want the installed snapshot through lsn 3", data, lsn)
	}
	recs := collectReplay(t, w2)
	if len(recs) != 2 || recs[0].LSN != 4 || recs[1].LSN != 5 {
		t.Fatalf("replayed %v, want exactly lsns 4 and 5 above the snapshot", recs)
	}
	if v := m.Counter("wal.snapshots").Value(); v != 1 {
		t.Fatalf("wal.snapshots = %d, want 1", v)
	}
}

func TestSyncPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"off", SyncOff}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = (%v, %v)", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() round trip: %q != %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("fsync-sometimes"); err == nil {
		t.Fatal("unknown policy must error")
	}
}

func TestNonAlwaysPoliciesAckImmediately(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncInterval, SyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			w := openStarted(t, Config{Dir: t.TempDir(), Sync: pol, SyncEvery: time.Hour}, nil)
			lsn, err := w.Append("t", json.RawMessage(`{}`))
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			done := make(chan error, 1)
			go func() { done <- w.WaitDurable(lsn) }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("WaitDurable under %s: %v", pol, err)
				}
			case <-time.After(time.Second):
				t.Fatalf("WaitDurable under %s blocked; must ack immediately", pol)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

func TestAppendBeforeStartAndAfterClose(t *testing.T) {
	w, err := Open(Config{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("t", json.RawMessage(`{}`)); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("pre-Start append: %v, want ErrNotStarted", err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append("t", json.RawMessage(`{}`)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close append: %v, want ErrClosed", err)
	}
}

func TestWriteErrorWedgesSticky(t *testing.T) {
	defer faultinject.Reset()
	m := obs.NewMetrics()
	w := openStarted(t, Config{Dir: t.TempDir(), StallTimeout: 100 * time.Millisecond}, m)

	boom := errors.New("disk full")
	faultinject.WALIO = func(op, path string) error {
		if op == "write" {
			return boom
		}
		return nil
	}
	lsn, err := w.Append("t", json.RawMessage(`{}`))
	if err != nil {
		t.Fatalf("Append (enqueue only) must succeed: %v", err)
	}
	if err := w.WaitDurable(lsn); !errors.Is(err, ErrStalled) {
		t.Fatalf("WaitDurable after write error: %v, want ErrStalled", err)
	}
	if !w.Stalled() {
		t.Fatal("Stalled() must report a wedged log")
	}
	// Sticky: later appends shed immediately, even with the fault cleared.
	faultinject.Reset()
	if _, err := w.Append("t", json.RawMessage(`{}`)); !errors.Is(err, ErrStalled) {
		t.Fatalf("append on wedged log: %v, want ErrStalled", err)
	}
	if err := w.Close(); !errors.Is(err, ErrStalled) {
		t.Fatalf("Close on wedged log: %v, want the sticky ErrStalled", err)
	}
}

func TestCrashAfterAppendKeepsExactPrefix(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	w := openStarted(t, Config{Dir: dir, StallTimeout: 200 * time.Millisecond}, nil)

	const crashAt = 3
	faultinject.WALCrashAfterAppend = func(lsn int64) bool { return lsn == crashAt }
	var lsns []int64
	for i := 1; i <= 5; i++ {
		lsn, err := w.Append("t", json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)))
		if err != nil {
			break // appends after the wedge shed; that's fine
		}
		lsns = append(lsns, lsn)
	}
	// Everything through the crash point is durable; nothing after is.
	if err := w.WaitDurable(crashAt); err != nil {
		t.Fatalf("WaitDurable(%d) through the crash point: %v", crashAt, err)
	}
	if err := w.WaitDurable(crashAt + 1); !errors.Is(err, ErrStalled) {
		t.Fatalf("WaitDurable(%d) past the crash: %v, want ErrStalled", crashAt+1, err)
	}
	_ = lsns

	faultinject.Reset()
	w2, err := Open(Config{Dir: dir}, nil)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	recs := collectReplay(t, w2)
	if len(recs) != crashAt {
		t.Fatalf("recovered %d records, want exactly the %d before the crash", len(recs), crashAt)
	}
	for i, r := range recs {
		if r.LSN != int64(i+1) {
			t.Fatalf("recovered record %d has lsn %d", i, r.LSN)
		}
	}
}

func TestInjectedTornWriteRecoversPrefix(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	w := openStarted(t, Config{Dir: dir, StallTimeout: 200 * time.Millisecond}, nil)

	appendWait(t, w, "t", `{"i":1}`)
	appendWait(t, w, "t", `{"i":2}`)
	// Record 3 tears mid-frame: 5 bytes reach the disk, then the "crash".
	faultinject.WALTorn = func(lsn int64) int {
		if lsn == 3 {
			return 5
		}
		return -1
	}
	lsn, err := w.Append("t", json.RawMessage(`{"i":3}`))
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := w.WaitDurable(lsn); !errors.Is(err, ErrStalled) {
		t.Fatalf("WaitDurable on torn record: %v, want ErrStalled", err)
	}

	faultinject.Reset()
	m := obs.NewMetrics()
	w2, err := Open(Config{Dir: dir}, m)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	recs := collectReplay(t, w2)
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want the 2 whole ones before the tear", len(recs))
	}
	if v := m.Counter("wal.torn_tail").Value(); v != 1 {
		t.Fatalf("wal.torn_tail = %d, want 1", v)
	}
}

func TestBacklogShedsPastMaxBuffered(t *testing.T) {
	defer faultinject.Reset()
	// Park the writer inside its first write so the queue can only grow.
	// The writer takes the whole queue when it wakes, so the backlog is
	// built only once it is parked: a backlog it had already taken would
	// leave Stalled() nothing to report.
	gate := make(chan struct{})
	parked := make(chan struct{})
	var parkOnce sync.Once
	faultinject.WALIO = func(op, path string) error {
		if op == "write" {
			parkOnce.Do(func() { close(parked) })
			<-gate
		}
		return nil
	}
	w := openStarted(t, Config{Dir: t.TempDir(), MaxBuffered: 64, StallTimeout: 100 * time.Millisecond}, nil)
	// Runs before faultinject.Reset: the writer is released and stopped
	// before the hook it reads is cleared, even when an assertion fails.
	defer func() {
		close(gate)
		if err := w.Close(); err != nil {
			t.Errorf("Close after draining backlog: %v", err)
		}
	}()
	if _, err := w.Append("t", json.RawMessage(`{"i":0}`)); err != nil {
		t.Fatalf("first append: %v", err)
	}
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the writer never reached its first write")
	}
	var shed error
	for i := 0; i < 100; i++ {
		if _, err := w.Append("t", json.RawMessage(`{"pad":"xxxxxxxxxxxxxxxx"}`)); err != nil {
			shed = err
			break
		}
	}
	if !errors.Is(shed, ErrStalled) {
		t.Fatalf("append past MaxBuffered: %v, want ErrStalled", shed)
	}
	if !w.Stalled() {
		t.Fatal("Stalled() must report the backlog")
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	defer faultinject.Reset()
	m := obs.NewMetrics()
	// Hold the writer before its first write while we enqueue a burst; one
	// drain then commits the whole batch with a single fsync.
	gate := make(chan struct{})
	first := true
	faultinject.WALIO = func(op, path string) error {
		if op == "write" && first {
			first = false
			<-gate
		}
		return nil
	}
	w := openStarted(t, Config{Dir: t.TempDir()}, m)
	const n = 16
	var last int64
	for i := 0; i < n; i++ {
		lsn, err := w.Append("t", json.RawMessage(`{}`))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		last = lsn
	}
	close(gate)
	if err := w.WaitDurable(last); err != nil {
		t.Fatalf("WaitDurable: %v", err)
	}
	// The first record may commit alone (the writer races the burst), but the
	// remaining 15 must not each pay an fsync.
	if v := m.Counter("wal.fsyncs").Value(); v >= n {
		t.Fatalf("%d fsyncs for %d appends: group commit is not batching", v, n)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestReplayPrefixAlwaysValid(t *testing.T) {
	// Property: truncating a WAL segment at ANY byte boundary yields a log
	// that opens cleanly and replays a strict prefix of the original records
	// — torn tails are truncated, never propagated.
	dir := t.TempDir()
	w := openStarted(t, Config{Dir: dir}, nil)
	const n = 8
	for i := 1; i <= n; i++ {
		appendWait(t, w, "t", fmt.Sprintf(`{"i":%d}`, i))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	orig, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(orig); cut += 7 { // stride keeps the sweep fast
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, filepath.Base(segs[0])), orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(Config{Dir: sub}, nil)
		if err != nil {
			t.Fatalf("cut at %d: Open: %v", cut, err)
		}
		recs := collectReplay(t, w2)
		if len(recs) > n {
			t.Fatalf("cut at %d: %d records from a %d-record log", cut, len(recs), n)
		}
		for i, r := range recs {
			if r.LSN != int64(i+1) {
				t.Fatalf("cut at %d: record %d has lsn %d — not a prefix", cut, i, r.LSN)
			}
		}
	}
}
