package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"chassis/internal/hawkes"
	"chassis/internal/obs"
	"chassis/internal/predict"
	"chassis/internal/timeline"
)

// --- unit tests over the cache itself ---

func testAccum(n int) *hawkes.StateAccum {
	return &hawkes.StateAccum{N: n, LastTime: float64(n),
		R: []float64{1}, Last: []float64{0}, Rate: []float64{1}, Scale: []float64{1}}
}

func TestHistCacheLRUEviction(t *testing.T) {
	c := newHistCache(2, obs.NewMetrics())
	c.put(1, "a", testAccum(1))
	c.put(1, "b", testAccum(2))
	if got, covered := c.lookup(1, []string{"a"}); got == nil || got.N != 1 || covered != 1 {
		t.Fatal("a missing before eviction")
	}
	// a was just used, so inserting c evicts b (the least recently used).
	c.put(1, "c", testAccum(3))
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if got, _ := c.lookup(1, []string{"b"}); got != nil {
		t.Error("b survived eviction")
	}
	a, _ := c.lookup(1, []string{"a"})
	cc, _ := c.lookup(1, []string{"c"})
	if a == nil || cc == nil {
		t.Error("a or c evicted out of LRU order")
	}
}

func TestHistCacheVersionPurge(t *testing.T) {
	c := newHistCache(8, obs.NewMetrics())
	c.put(1, "a", testAccum(1))
	c.put(1, "b", testAccum(2))
	if got, _ := c.lookup(2, []string{"a"}); got != nil {
		t.Error("entry from version 1 served under version 2")
	}
	if c.len() != 0 {
		t.Errorf("purge left %d entries", c.len())
	}
	// And put under a stale version purges too (reload landed between the
	// handler's lookup and put).
	c.put(2, "x", testAccum(3))
	c.put(3, "y", testAccum(4))
	if got, _ := c.lookup(3, []string{"x"}); got != nil {
		t.Error("stale-version entry survived")
	}
	if got, _ := c.lookup(3, []string{"y"}); got == nil {
		t.Error("current-version entry lost")
	}
}

// TestHistCacheExtendClassification pins the three lookup outcomes and
// their counters: exact key → hit (shared pointer), proper prefix →
// extend (clone, deepest prefix wins), nothing → miss.
func TestHistCacheExtendClassification(t *testing.T) {
	m := obs.NewMetrics()
	c := newHistCache(8, m)
	stored := testAccum(1)
	c.put(1, "a", stored)

	got, covered := c.lookup(1, []string{"a"})
	if got != stored || covered != 1 {
		t.Fatalf("exact hit: got %v covered %d, want shared pointer covered 1", got, covered)
	}
	got, covered = c.lookup(1, []string{"a", "b", "c"})
	if got == nil || covered != 1 {
		t.Fatalf("extend: covered = %d, want 1", covered)
	}
	if got == stored {
		t.Fatal("extend returned the cached pointer — mutation would corrupt the cache")
	}
	got.N = 99
	if stored.N != 1 {
		t.Fatal("mutating the extend clone reached the cached accumulator")
	}
	// Deepest cached prefix wins.
	c.put(1, "b", testAccum(2))
	if _, covered = c.lookup(1, []string{"a", "b", "c"}); covered != 2 {
		t.Fatalf("deepest prefix: covered = %d, want 2", covered)
	}
	if got, covered = c.lookup(1, []string{"x", "y"}); got != nil || covered != 0 {
		t.Fatal("miss returned an accumulator")
	}
	hits := m.Counter("serve.histcache.hits").Value()
	extends := m.Counter("serve.histcache.extends").Value()
	misses := m.Counter("serve.histcache.misses").Value()
	if hits != 1 || extends != 2 || misses != 1 {
		t.Errorf("hits=%d extends=%d misses=%d, want 1, 2, 1", hits, extends, misses)
	}
}

func TestHistCacheNilSafety(t *testing.T) {
	var c *histCache // disabled cache: every call is a no-op
	if got, _ := c.lookup(1, []string{"a"}); got != nil {
		t.Error("nil cache returned an accumulator")
	}
	c.put(1, "a", testAccum(1))
	if c.len() != 0 {
		t.Error("nil cache stored an entry")
	}
	real := newHistCache(4, obs.NewMetrics())
	real.put(1, "a", nil) // nil accums (non-exp models) are never stored
	if real.len() != 0 {
		t.Error("nil accumulator was cached")
	}
	if got, _ := real.lookup(1, nil); got != nil {
		t.Error("empty key set returned an accumulator")
	}
	if newHistCache(-1, obs.NewMetrics()) != nil {
		t.Error("negative capacity did not disable the cache")
	}
}

func TestPrefixDigests(t *testing.T) {
	base := func() *timeline.Sequence {
		return &timeline.Sequence{M: 4, Horizon: 10, Activities: []timeline.Activity{
			{ID: 0, User: 1, Time: 1.5, Kind: timeline.Post, Polarity: 0.25, Parent: timeline.NoParent},
			{ID: 1, User: 2, Time: 3, Kind: timeline.Comment, Parent: timeline.NoParent},
		}}
	}
	a, b := prefixDigests(base()), prefixDigests(base())
	if len(a) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatal("equal sequences digest differently")
	}
	// The chaining property the extend path rests on: a sequence that
	// extends another shares its prefix keys exactly.
	prefix := base()
	prefix.Activities = prefix.Activities[:1]
	if p := prefixDigests(prefix); p[0] != a[0] {
		t.Fatal("prefix sequence does not share the full sequence's prefix key")
	}
	// The horizon deliberately does not participate: the accumulator is
	// horizon-free, so one entry serves every forecast horizon.
	h := base()
	h.Horizon = 11
	if got := prefixDigests(h); got[1] != a[1] {
		t.Error("horizon perturbed the digest — hit rate loses horizon sharing")
	}
	mutations := map[string]func(*timeline.Sequence){
		"m":        func(s *timeline.Sequence) { s.M = 5 },
		"user":     func(s *timeline.Sequence) { s.Activities[0].User = 3 },
		"time":     func(s *timeline.Sequence) { s.Activities[1].Time = 3.0000001 },
		"kind":     func(s *timeline.Sequence) { s.Activities[1].Kind = timeline.Like },
		"polarity": func(s *timeline.Sequence) { s.Activities[0].Polarity = -0.25 },
	}
	seen := map[string]string{a[1]: "base"}
	for name, mutate := range mutations {
		s := base()
		mutate(s)
		fp := prefixDigests(s)[1]
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutation %q collides with %q", name, prev)
		}
		seen[fp] = name
	}
}

// --- serve-level cache correctness ---

// cachedServer builds a test server over the given model bytes with the
// given cache capacity. The model is installed before New loads, so the
// served snapshot is version 1 of exactly those bytes.
func cachedServer(t *testing.T, model []byte, capEntries int) (*Server, *httptest.Server) {
	t.Helper()
	src := fixtureSource(t)
	if model != nil {
		if err := os.WriteFile(src.ModelPath, model, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{Source: src, HistoryCache: capEntries, Buildinfo: "chassis test-build"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// TestCacheBitIdenticalResponses is the cache's core contract across both
// kernel banks: for every endpoint, responses from a caching server —
// first request (miss), repeat request (hit) — are byte-identical to a
// cache-disabled server over the same model.
func TestCacheBitIdenticalResponses(t *testing.T) {
	requests := map[string]string{
		"/v1/predict/next":   validNextBody,
		"/v1/predict/counts": `{"history":[{"user":1,"time":2},{"user":0,"time":2.5}],"window":25,"draws":30,"seed":7}`,
		"/v1/influence":      `{"history":[{"user":0,"time":1},{"user":1,"time":1.2},{"user":2,"time":2.6}],"horizon":5}`,
	}
	for _, tc := range []struct {
		name  string
		model []byte
	}{
		{"exp-bank", fixExpA},
		{"discrete-bank", fixModelA},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cachedS, cached := cachedServer(t, tc.model, 0)
			_, uncached := cachedServer(t, tc.model, -1)
			for path, body := range requests {
				resp, miss := postJSON(t, cached.URL+path, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s miss: status %d: %s", path, resp.StatusCode, miss)
				}
				resp, hit := postJSON(t, cached.URL+path, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s hit: status %d: %s", path, resp.StatusCode, hit)
				}
				resp, plain := postJSON(t, uncached.URL+path, body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s uncached: status %d: %s", path, resp.StatusCode, plain)
				}
				if !bytes.Equal(miss, hit) {
					t.Errorf("%s: hit differs from miss:\n%s\n%s", path, hit, miss)
				}
				if !bytes.Equal(miss, plain) {
					t.Errorf("%s: cached differs from uncached:\n%s\n%s", path, miss, plain)
				}
			}
			// Exponential models populate the cache; Discrete ones cannot.
			wantEntries := cachedS.cache.len() > 0
			if tc.name == "discrete-bank" {
				wantEntries = cachedS.cache.len() == 0
			}
			if !wantEntries {
				t.Errorf("cache entries = %d after %s requests", cachedS.cache.len(), tc.name)
			}
		})
	}
}

// TestCacheHitsRecorded: repeat requests over an exp model actually hit.
func TestCacheHitsRecorded(t *testing.T) {
	s, ts := cachedServer(t, fixExpA, 0)
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/predict/next", validNextBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	hits := s.metrics.Counter("serve.histcache.hits").Value()
	misses := s.metrics.Counter("serve.histcache.misses").Value()
	if misses != 1 || hits != 2 {
		t.Errorf("hits=%d misses=%d, want 2 and 1", hits, misses)
	}
}

// TestCacheExtendBitIdentical is the incremental-cache contract at the API
// boundary: a request whose history extends a previously served one is
// classified as an extend (suffix absorbed into a clone of the cached
// prefix state), and its response is byte-identical to a cache-disabled
// server rebuilding from scratch.
func TestCacheExtendBitIdentical(t *testing.T) {
	prefixBody := `{"history":[{"user":1,"time":2},{"user":0,"time":2.5}],"lookahead":15,"draws":25,"seed":11}`
	extendedBody := `{"history":[{"user":1,"time":2},{"user":0,"time":2.5},{"user":2,"time":3.25}],"lookahead":15,"draws":25,"seed":11}`
	s, ts := cachedServer(t, fixExpA, 0)
	_, uncached := cachedServer(t, fixExpA, -1)
	if resp, body := postJSON(t, ts.URL+"/v1/predict/next", prefixBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("prefix request: status %d: %s", resp.StatusCode, body)
	}
	resp, got := postJSON(t, ts.URL+"/v1/predict/next", extendedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("extended request: status %d: %s", resp.StatusCode, got)
	}
	if ext := s.metrics.Counter("serve.histcache.extends").Value(); ext != 1 {
		t.Errorf("extends = %d, want 1", ext)
	}
	resp, want := postJSON(t, uncached.URL+"/v1/predict/next", extendedBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncached request: status %d: %s", resp.StatusCode, want)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("extended response differs from uncached rebuild:\n%s\n%s", got, want)
	}
	// Both prefix and extended entries are now cached; re-asking either is
	// an exact hit.
	postJSON(t, ts.URL+"/v1/predict/next", prefixBody)
	postJSON(t, ts.URL+"/v1/predict/next", extendedBody)
	if hits := s.metrics.Counter("serve.histcache.hits").Value(); hits != 2 {
		t.Errorf("hits after re-asks = %d, want 2", hits)
	}
}

// TestCacheEvictionUnderCap: distinct histories beyond the cap evict in
// LRU order and the server keeps answering correctly.
func TestCacheEvictionUnderCap(t *testing.T) {
	s, ts := cachedServer(t, fixExpA, 2)
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"history":[{"user":%d,"time":1.5}],"horizon":3,"lookahead":20,"draws":20,"seed":4}`, i%5)
		resp, blob := postJSON(t, ts.URL+"/v1/predict/next", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, blob)
		}
	}
	if got := s.cache.len(); got != 2 {
		t.Errorf("cache holds %d entries, cap is 2", got)
	}
	if ev := s.metrics.Counter("serve.histcache.evictions").Value(); ev != 3 {
		t.Errorf("evictions = %d, want 3", ev)
	}
}

// TestCacheInvalidatedOnReload: a hot reload with changed model bytes must
// purge the cache — and the post-reload response must match a fresh server
// over the new model byte for byte.
func TestCacheInvalidatedOnReload(t *testing.T) {
	s, ts := cachedServer(t, fixExpA, 0)
	resp, before := postJSON(t, ts.URL+"/v1/predict/next", validNextBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-reload: status %d: %s", resp.StatusCode, before)
	}
	if s.cache.len() == 0 {
		t.Fatal("no cache entry before reload")
	}
	if err := os.WriteFile(s.reg.src.ModelPath, fixExpB, 0o644); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts.URL+"/admin/reload", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	resp, after := postJSON(t, ts.URL+"/v1/predict/next", validNextBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reload: status %d: %s", resp.StatusCode, after)
	}
	if bytes.Equal(before, after) {
		t.Error("response unchanged across a model swap — stale state suspected")
	}
	_, fresh := cachedServer(t, fixExpB, 0)
	resp, want := postJSON(t, fresh.URL+"/v1/predict/next", validNextBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server: status %d: %s", resp.StatusCode, want)
	}
	if !bytes.Equal(after, want) {
		t.Errorf("post-reload response differs from a fresh server over the same model:\n%s\n%s", after, want)
	}
	if purges := s.metrics.Counter("serve.histcache.purges").Value(); purges < 1 {
		t.Errorf("purges = %d, want >= 1", purges)
	}
}

// --- /v1/influence endpoint + race e2e ---

func TestInfluenceEndpointMatchesLibraryBytes(t *testing.T) {
	s, ts := newTestServer(t, nil)
	body := `{"history":[{"user":0,"time":1},{"user":1,"time":1.4},{"user":0,"time":2.2}],"horizon":4}`
	resp, got := postJSON(t, ts.URL+"/v1/influence", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if v := resp.Header.Get(modelVersionHeader); v != "1" {
		t.Errorf("model version header = %q, want 1", v)
	}
	snap := s.Registry().Current()
	var req PredictRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	hist, err := req.historySequence(snap.M)
	if err != nil {
		t.Fatal(err)
	}
	scores, err := predict.Influence(snap.Proc, hist, predict.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := predict.EncodeInfluence(scores)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("API bytes diverge from library encoding:\n api %q\n lib %q", got, want)
	}
	// Deterministic: a repeat request returns the same bytes.
	_, again := postJSON(t, ts.URL+"/v1/influence", body)
	if !bytes.Equal(got, again) {
		t.Errorf("influence response not deterministic:\n%q\n%q", got, again)
	}
}

func TestInfluenceValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"empty history": {`{"history":[],"horizon":5}`, http.StatusBadRequest},
		"bad user":      {`{"history":[{"user":99,"time":1}]}`, http.StatusBadRequest},
		"unknown field": {`{"histroy":[]}`, http.StatusBadRequest},
	} {
		resp, body := postJSON(t, ts.URL+"/v1/influence", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d: %s", name, resp.StatusCode, tc.want, body)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/influence")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", resp.StatusCode)
	}
}

// TestInfluenceAndPredictUnderReloads is the mixed-endpoint race test: run
// it under -race. Concurrent /v1/influence and /v1/predict/next traffic
// while the model alternates between the two exp fixtures; every response
// must carry a version header, and for each version the fixed-request
// bytes must be unique per endpoint — a response mixing snapshots would
// produce a third body family for one version.
func TestInfluenceAndPredictUnderReloads(t *testing.T) {
	s, ts := cachedServer(t, fixExpA, 0)
	src := s.reg.src

	const (
		clients   = 4
		perClient = 10
		reloads   = 5
	)
	influenceBody := `{"history":[{"user":0,"time":1},{"user":1,"time":1.4},{"user":2,"time":2.2}],"horizon":4}`
	type sample struct{ endpoint, version, body string }
	samples := make([][]sample, clients)
	errs := make(chan error, clients*perClient+reloads)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				path, body := "/v1/influence", influenceBody
				if (c+i)%2 == 0 {
					path, body = "/v1/predict/next", validNextBody
				}
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				blob, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("client %d %s: status %d: %s", c, path, resp.StatusCode, blob)
					return
				}
				v := resp.Header.Get(modelVersionHeader)
				if v == "" {
					errs <- fmt.Errorf("client %d %s: missing version header", c, path)
					return
				}
				samples[c] = append(samples[c], sample{endpoint: path, version: v, body: string(blob)})
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		blobs := [][]byte{fixExpB, fixExpA}
		for i := 0; i < reloads; i++ {
			if err := os.WriteFile(src.ModelPath, blobs[i%2], 0o644); err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("reload %d: status %d", i, resp.StatusCode)
				return
			}
			time.Sleep(2 * time.Millisecond)
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
	// (endpoint, version) → body must be a function: every response comes
	// from exactly one snapshot.
	byKey := map[string]string{}
	for _, rs := range samples {
		for _, r := range rs {
			k := r.endpoint + "@" + r.version
			if prev, ok := byKey[k]; ok && prev != r.body {
				t.Fatalf("%s served two bodies for one version:\n%s\n%s", k, prev, r.body)
			}
			byKey[k] = r.body
		}
	}
}
