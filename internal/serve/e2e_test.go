package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEndToEndReloadUnderLoad is the acceptance test for the serving
// subsystem: concurrent fixed-seed predictions while the model file is
// rewritten and hot-reloaded repeatedly. Run it under -race. It verifies
// that every request succeeds, that each response was served by exactly one
// model snapshot (the bytes for a fixed-seed request are a pure function of
// the version header), and that reloads actually happened mid-flight.
func TestEndToEndReloadUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Batch.Window = time.Millisecond
	})
	src := s.reg.src

	const (
		clients     = 4
		perClient   = 12
		reloadCount = 6
	)
	type sample struct {
		version string
		body    string
	}
	results := make([][]sample, clients)
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient+reloadCount)
	// Each client sends at least perClient requests and keeps sending until
	// every reload has landed, and the reloader installs the next model only
	// once a response has carried the version it just installed. So both
	// models serve requests however fast a prediction runs next to a reload.
	reloadsDone := make(chan struct{})
	var newest atomic.Int64 // highest version header a response carried

	for c := 0; c < clients; c++ {
		wg.Add(1)
		c := c
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= perClient {
					select {
					case <-reloadsDone:
						return
					default:
					}
				}
				resp, err := http.Post(ts.URL+"/v1/predict/next", "application/json",
					strings.NewReader(validNextBody))
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d request %d: status %d: %s", c, i, resp.StatusCode, body)
					return
				}
				v := resp.Header.Get(modelVersionHeader)
				if v == "" {
					errs <- fmt.Errorf("client %d request %d: missing version header", c, i)
					return
				}
				if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > newest.Load() {
					newest.Store(n)
				}
				results[c] = append(results[c], sample{version: v, body: string(body)})
			}
		}()
	}

	// Meanwhile, alternate the model file between the two fitted fixtures
	// and force reloads — every in-flight request must stay pinned to the
	// snapshot it started with.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(reloadsDone)
		blobs := [][]byte{fixModelB, fixModelA}
		for i := 0; i < reloadCount; i++ {
			if err := os.WriteFile(src.ModelPath, blobs[i%2], 0o644); err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			var rj reloadJSON
			err = json.NewDecoder(resp.Body).Decode(&rj)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reload %d: status %d, %v", i, resp.StatusCode, err)
				return
			}
			// A racing client can lower newest for a moment; the responses
			// that follow carry the current version and raise it again.
			deadline := time.Now().Add(10 * time.Second)
			for newest.Load() < rj.Version {
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("reload %d: no response carried version %d", i, rj.Version)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Same request + same seed + same version header => same bytes. Two
	// distinct bodies for one version would mean a response mixed snapshots.
	byVersion := map[string]string{}
	versions := map[string]bool{}
	for _, rs := range results {
		for _, r := range rs {
			versions[r.version] = true
			if prev, ok := byVersion[r.version]; ok && prev != r.body {
				t.Fatalf("version %s served two different bodies for one fixed-seed request:\n%s\n%s",
					r.version, prev, r.body)
			}
			byVersion[r.version] = r.body
		}
	}
	if got := s.reg.Current().Version; got != int64(reloadCount)+1 {
		t.Errorf("final model version = %d, want %d", got, reloadCount+1)
	}
	// The two alternating models must produce two distinct body families.
	bodies := map[string]bool{}
	for _, b := range byVersion {
		bodies[b] = true
	}
	if len(bodies) != 2 {
		t.Errorf("saw %d distinct bodies across versions, want 2 (model A vs model B)", len(bodies))
	}
}

// TestFixedSeedBitIdenticalAcrossReload pins the determinism contract: a
// forced reload of the same model file bumps the version header but changes
// no byte of a fixed-seed response body.
func TestFixedSeedBitIdenticalAcrossReload(t *testing.T) {
	_, ts := newTestServer(t, nil)

	fetch := func() (string, []byte) {
		resp, body := postJSON(t, ts.URL+"/v1/predict/next", validNextBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get(modelVersionHeader), body
	}
	v1, before := fetch()
	if resp, _ := postJSON(t, ts.URL+"/admin/reload", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload failed: %d", resp.StatusCode)
	}
	v2, after := fetch()
	if v1 == v2 {
		t.Fatalf("version header did not change across forced reload (%s)", v1)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("fixed-seed body changed across reload of the same file:\n%s\n%s", before, after)
	}
}

// TestRunDrainsGracefully exercises the Run lifecycle end to end: bind,
// serve live traffic, cancel the context (what SIGTERM does in
// cmd/chassis-serve), and verify in-flight requests complete, new
// connections are refused, and Run returns nil — the exit-0 path.
func TestRunDrainsGracefully(t *testing.T) {
	src := fixtureSource(t)
	ready := make(chan string, 1)
	s, err := New(Config{
		Addr:         "127.0.0.1:0",
		Source:       src,
		DrainTimeout: 10 * time.Second,
		OnReady:      func(addr string) { ready <- addr },
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx) }()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	if resp, body := getBody(t, base+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d %s", resp.StatusCode, body)
	}

	// Launch slow-ish in-flight requests (plenty of draws), then cancel
	// while they are running.
	const inflight = 3
	slowBody := `{"history":[{"user":0,"time":1.5},{"user":3,"time":2.5}],"horizon":3,"lookahead":60,"draws":1500,"seed":7}`
	started := make(chan struct{}, inflight)
	type result struct {
		status int
		err    error
	}
	resCh := make(chan result, inflight)
	for i := 0; i < inflight; i++ {
		go func() {
			req, _ := http.NewRequest(http.MethodPost, base+"/v1/predict/next", strings.NewReader(slowBody))
			req.Header.Set("Content-Type", "application/json")
			started <- struct{}{}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				resCh <- result{err: err}
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			resCh <- result{status: resp.StatusCode}
		}()
	}
	for i := 0; i < inflight; i++ {
		<-started
	}
	time.Sleep(20 * time.Millisecond) // let the requests reach the dispatcher
	cancel()

	// Every request that was in flight at cancellation must complete
	// successfully: drain flushes, it does not kill.
	for i := 0; i < inflight; i++ {
		r := <-resCh
		if r.err != nil {
			t.Errorf("in-flight request failed during drain: %v", r.err)
		} else if r.status != http.StatusOK {
			t.Errorf("in-flight request status %d during drain, want 200", r.status)
		}
	}

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v after drain, want nil (exit 0)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run did not return after context cancellation")
	}

	// The listener is gone: new connections are refused.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("listener still accepting connections after drain")
	}
}

// TestDrainRefusesNewPredictions covers the Handler-mounted drain path:
// once Drain begins, prediction and readiness endpoints answer with typed
// 503s while liveness stays 200.
func TestDrainRefusesNewPredictions(t *testing.T) {
	s, ts := newTestServer(t, nil)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict/next", validNextBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict while draining = %d %s, want 503", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("draining 503 body = %s", body)
	}
	if resp, _ := getBody(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, blob := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(blob), `"draining":true`) {
		t.Errorf("healthz while draining = %d %s, want 200 with draining:true", resp.StatusCode, blob)
	}
}

// TestRequestTimeoutReturns503 pins the deadline path: a timeout_ms far
// below what the simulation needs surfaces as a typed 503, not a hang.
func TestRequestTimeoutReturns503(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"history":[{"user":0,"time":1}],"lookahead":500,"draws":100000,"seed":1,"timeout_ms":1}`
	resp, blob := postJSON(t, ts.URL+"/v1/predict/next", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d %s, want 503 deadline_exceeded", resp.StatusCode, blob)
	}
	if !strings.Contains(string(blob), "deadline_exceeded") {
		t.Errorf("timeout error body = %s", blob)
	}
}
