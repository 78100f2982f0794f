package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chassis/internal/cascade"
	"chassis/internal/core"
	"chassis/internal/dataio"
	"chassis/internal/predict"
)

// The fixture is one tiny corpus plus two distinct fitted models (different
// fit seeds, so genuinely different parameters) serialized once and shared
// by every test; each test writes the bytes into its own temp dir. TestMain
// builds it before any test runs, so a test may read the model bytes
// directly — in a table, say — whatever order the tests run in.
var (
	fixData              []byte
	fixModelA, fixModelB []byte
	// fixExpA/B are ExpKernel fits of the same corpus: their processes
	// qualify for the exponential fast path, so the history-state cache
	// has something to store (the nonparametric A/B models do not).
	fixExpA, fixExpB []byte
	fixErr           error
)

func TestMain(m *testing.M) {
	buildFixture()
	os.Exit(m.Run())
}

func buildFixture() {
	d, err := cascade.Generate(cascade.Config{
		Name: "serve-fixture", M: 8, Horizon: 400, Seed: 7,
		Graph: cascade.BarabasiAlbert, GraphDegree: 2, Reciprocity: 0.5,
		Topics: 2, BaseRateLo: 0.01, BaseRateHi: 0.03,
		KernelRate: 0.8, TargetBranching: 0.5,
		ConformityWeight: 0.7, PolarityNoise: 0.15, LikeFraction: 0.2,
	})
	if err != nil {
		fixErr = err
		return
	}
	var db bytes.Buffer
	if fixErr = dataio.WriteDataset(&db, d); fixErr != nil {
		return
	}
	fixData = db.Bytes()
	for i, seed := range []int64{3, 11} {
		m, err := core.Fit(d.Seq, core.Config{
			Variant: core.VariantLHP, EMIters: 2, MStepIters: 8,
			IntegrationGrid: 32, Seed: seed,
		})
		if err != nil {
			fixErr = err
			return
		}
		var mb bytes.Buffer
		if fixErr = m.Save(&mb); fixErr != nil {
			return
		}
		if i == 0 {
			fixModelA = mb.Bytes()
		} else {
			fixModelB = mb.Bytes()
		}
	}
	if bytes.Equal(fixModelA, fixModelB) {
		fixErr = io.ErrUnexpectedEOF // two fit seeds must yield distinct models
	}
	for i, seed := range []int64{5, 13} {
		m, err := core.Fit(d.Seq, core.Config{
			Variant: core.VariantLHP, EMIters: 2, MStepIters: 8,
			IntegrationGrid: 32, Seed: seed, ExpKernel: true,
		})
		if err != nil {
			fixErr = err
			return
		}
		var mb bytes.Buffer
		if fixErr = m.Save(&mb); fixErr != nil {
			return
		}
		if i == 0 {
			fixExpA = mb.Bytes()
		} else {
			fixExpB = mb.Bytes()
		}
	}
	if bytes.Equal(fixExpA, fixExpB) {
		fixErr = io.ErrUnexpectedEOF
	}
}

// expFixtureSource is fixtureSource with the ExpKernel model installed.
func expFixtureSource(t *testing.T) Source {
	t.Helper()
	src := fixtureSource(t)
	if err := os.WriteFile(src.ModelPath, fixExpA, 0o644); err != nil {
		t.Fatal(err)
	}
	return src
}

// fixtureSource writes the fixture files into a fresh temp dir and returns
// a Source over them (Split 0: the models were fitted on the full corpus).
func fixtureSource(t *testing.T) Source {
	t.Helper()
	if fixErr != nil {
		t.Fatalf("building fixture: %v", fixErr)
	}
	dir := t.TempDir()
	src := Source{
		ModelPath: filepath.Join(dir, "model.json"),
		DataPath:  filepath.Join(dir, "data.json"),
	}
	if err := os.WriteFile(src.ModelPath, fixModelA, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(src.DataPath, fixData, 0o644); err != nil {
		t.Fatal(err)
	}
	return src
}

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Source:    fixtureSource(t),
		Buildinfo: "chassis test-build",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

// validNextBody is a well-formed fixed-seed /v1/predict/next request.
const validNextBody = `{"history":[{"user":0,"time":1.5,"kind":"post"},{"user":3,"time":2.5,"kind":"retweet"}],"horizon":3,"lookahead":40,"draws":60,"seed":42}`

func TestHealthzCarriesBuildAndModelVersion(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, blob := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		Status       string `json:"status"`
		Build        string `json:"build"`
		ModelVersion int64  `json:"model_version"`
		Draining     bool   `json:"draining"`
	}
	if err := json.Unmarshal(blob, &h); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, blob)
	}
	if h.Status != "ok" || h.Build != "chassis test-build" || h.ModelVersion != 1 || h.Draining {
		t.Errorf("unexpected healthz payload: %+v", h)
	}
}

func TestReadyzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, blob := getBody(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK || string(blob) != "ready\n" {
		t.Fatalf("readyz = %d %q", resp.StatusCode, blob)
	}
	// Issue one prediction so the serve.* instruments exist, then scrape.
	if resp, _ := postJSON(t, ts.URL+"/v1/predict/next", validNextBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	resp, blob = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	out := string(blob)
	for _, want := range []string{
		"chassis_serve_reload_total 1",
		"chassis_serve_model_version 1",
		"chassis_serve_next_requests 1",
		"chassis_serve_next_latency_count 1",
		"chassis_serve_dispatch_batches",
		"chassis_mem_heap_inuse_bytes",
		"chassis_mem_peak_rss_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestPredictNextMatchesLibraryBytes(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/predict/next", validNextBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(modelVersionHeader); got != "1" {
		t.Errorf("model version header = %q, want 1", got)
	}
	// The API must emit the exact bytes the shared schema produces for the
	// same (model, request, seed) — the CLI's -json path uses the same
	// encoder, so this also pins CLI/API byte-compatibility.
	snap := s.Registry().Current()
	var req PredictRequest
	if err := json.Unmarshal([]byte(validNextBody), &req); err != nil {
		t.Fatal(err)
	}
	hist, err := req.historySequence(snap.M)
	if err != nil {
		t.Fatal(err)
	}
	n, err := predict.Next(snap.Proc, hist, predict.Options{
		Lookahead: req.Lookahead, Draws: req.Draws, Seed: req.Seed, Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := predict.EncodeNext(n)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("API bytes diverge from library encoding:\n api %q\n lib %q", body, want)
	}
}

func TestPredictCountsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, nil)
	resp, body := postJSON(t, ts.URL+"/v1/predict/counts",
		`{"history":[{"user":1,"time":2}],"window":30,"draws":40,"seed":9}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var fc predict.CountForecastJSON
	if err := json.Unmarshal(body, &fc); err != nil {
		t.Fatalf("counts not JSON: %v\n%s", err, body)
	}
	if len(fc.PerUser) != s.Registry().Current().M {
		t.Errorf("per_user has %d entries, want M=%d", len(fc.PerUser), s.Registry().Current().M)
	}
}

func TestPredictValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name, body string
	}{
		{"empty request", `{}`},
		{"no conditioning info", `{"lookahead":5,"history":[]}`},
		{"zero lookahead", `{"history":[{"user":0,"time":1}],"lookahead":0}`},
		{"negative lookahead", `{"history":[{"user":0,"time":1}],"lookahead":-2}`},
		{"negative draws", `{"history":[{"user":0,"time":1}],"lookahead":5,"draws":-1}`},
		{"user out of range", `{"history":[{"user":99,"time":1}],"lookahead":5}`},
		{"negative time", `{"history":[{"user":0,"time":-1}],"lookahead":5}`},
		{"out of order", `{"history":[{"user":0,"time":5},{"user":1,"time":1}],"lookahead":5}`},
		{"bad kind", `{"history":[{"user":0,"time":1,"kind":"superlike"}],"lookahead":5}`},
		{"horizon before last event", `{"history":[{"user":0,"time":5}],"horizon":2,"lookahead":5}`},
		{"unknown field", `{"history":[{"user":0,"time":1}],"lookahed":5}`},
		{"not json", `lookahead=5`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/predict/next", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, body)
			}
			var env struct {
				Error *Error `json:"error"`
			}
			if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
				t.Fatalf("error envelope not JSON: %v\n%s", err, body)
			}
			if env.Error.Code != "invalid_request" {
				t.Errorf("code = %q, want invalid_request", env.Error.Code)
			}
		})
	}

	// Window-specific validation on the counts endpoint.
	resp, _ := postJSON(t, ts.URL+"/v1/predict/counts", `{"history":[{"user":0,"time":1}],"window":0}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("counts window=0 status %d, want 400", resp.StatusCode)
	}

	// Wrong method.
	getResp, _ := getBody(t, ts.URL+"/v1/predict/next")
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET predict status %d, want 405", getResp.StatusCode)
	}
}

func TestAdminReload(t *testing.T) {
	s, ts := newTestServer(t, nil)

	// GET is refused.
	resp, _ := getBody(t, ts.URL+"/admin/reload")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload status %d, want 405", resp.StatusCode)
	}

	// Forced reload of the same files bumps the version.
	resp, body := postJSON(t, ts.URL+"/admin/reload", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d: %s", resp.StatusCode, body)
	}
	var rj reloadJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatal(err)
	}
	if !rj.Reloaded || rj.Version != 2 {
		t.Fatalf("forced reload = %+v, want reloaded v2", rj)
	}

	// Unforced reload with unchanged files is a no-op.
	resp, body = postJSON(t, ts.URL+"/admin/reload?force=0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatal(err)
	}
	if rj.Reloaded || rj.Version != 2 {
		t.Fatalf("no-op reload = %+v, want not-reloaded v2", rj)
	}

	// A corrupt model file fails the reload and keeps the old snapshot.
	if err := os.WriteFile(s.reg.src.ModelPath, []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, body = postJSON(t, ts.URL+"/admin/reload", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("broken reload status %d: %s", resp.StatusCode, body)
	}
	var env struct {
		Error *Error `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil || env.Error.Code != "reload_failed" {
		t.Fatalf("broken reload envelope: %s", body)
	}
	if got := s.Registry().Current().Version; got != 2 {
		t.Errorf("version after failed reload = %d, want 2 (previous model serving)", got)
	}
	// And predictions still work against the retained snapshot.
	resp, body = postJSON(t, ts.URL+"/v1/predict/next", validNextBody)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("predict after failed reload: %d %s", resp.StatusCode, body)
	}
}

func TestNewFailsFastOnBrokenSource(t *testing.T) {
	dir := t.TempDir()
	src := Source{ModelPath: filepath.Join(dir, "missing.json"), DataPath: filepath.Join(dir, "missing2.json")}
	if _, err := New(Config{Source: src}); err == nil {
		t.Fatal("New must fail when the model files are unreadable")
	}
}
