package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"chassis/internal/obs"
	"chassis/internal/timeline"
)

// errEnvelope mirrors the versioned error schema for decoding in tests.
type errEnvelope struct {
	Error *Error `json:"error"`
}

// wantAPIError asserts a response carries the versioned envelope with the
// given status and code.
func wantAPIError(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d: %s", resp.StatusCode, status, body)
	}
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error == nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	if env.Error.Schema != APIErrorSchema {
		t.Errorf("schema %q, want %q", env.Error.Schema, APIErrorSchema)
	}
	if env.Error.Code != code {
		t.Errorf("code %q, want %q: %s", env.Error.Code, code, body)
	}
}

// ingestEvents is a deterministic 10-event stream over the fixture's 8
// users, used by the ingest e2e tests.
func ingestEvents() []ActivityJSON {
	evs := make([]ActivityJSON, 10)
	for i := range evs {
		evs[i] = ActivityJSON{
			User: (i * 3) % 8, Time: 1 + float64(i)*1.7,
			Kind: "post", Polarity: float64(i%3-1) * 0.4,
		}
	}
	evs[3].Kind = "retweet"
	evs[7].Kind = "comment"
	return evs
}

func ingestBody(t *testing.T, id string, evs []ActivityJSON, repair bool) string {
	t.Helper()
	b, err := json.Marshal(IngestRequest{CascadeID: id, Events: evs, Repair: repair})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestIngestEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	url := ts.URL + "/v1/ingest"

	resp, body := getBody(t, url)
	wantAPIError(t, resp, body, http.StatusMethodNotAllowed, "method_not_allowed")

	resp, body = postJSON(t, url, `{broken`)
	wantAPIError(t, resp, body, http.StatusBadRequest, "invalid_request")

	resp, body = postJSON(t, url, `{"cascade_id":"c","events":[{"user":0,"time":1}],"lookahed":5}`)
	wantAPIError(t, resp, body, http.StatusBadRequest, "invalid_request")

	resp, body = postJSON(t, url, `{"cascade_id":"","events":[{"user":0,"time":1}]}`)
	wantAPIError(t, resp, body, http.StatusBadRequest, "invalid_request")

	resp, body = postJSON(t, url, `{"cascade_id":"c","events":[]}`)
	wantAPIError(t, resp, body, http.StatusBadRequest, "invalid_request")

	resp, body = postJSON(t, url, `{"cascade_id":"c","events":[{"user":99,"time":1}]}`)
	wantAPIError(t, resp, body, http.StatusBadRequest, "invalid_request")

	resp, body = postJSON(t, url, `{"cascade_id":"c","events":[{"user":0,"time":5},{"user":1,"time":1}]}`)
	wantAPIError(t, resp, body, http.StatusBadRequest, "invalid_request")

	// The same dirty batch routed through the Repair front door succeeds,
	// reporting what was fixed.
	resp, body = postJSON(t, url, `{"cascade_id":"c","events":[{"user":0,"time":5},{"user":1,"time":1}],"repair":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair ingest status %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Appended != 2 || ir.Events != 2 || ir.Repairs == "" {
		t.Fatalf("repair ingest = %+v, want 2 appended with a repair report", ir)
	}

	// Appending before the cascade's tail is a validation failure.
	resp, body = postJSON(t, url, `{"cascade_id":"c","events":[{"user":0,"time":2}]}`)
	wantAPIError(t, resp, body, http.StatusBadRequest, "invalid_request")

	// Predicting against an unknown cascade is a 404 with its own code.
	resp, body = postJSON(t, ts.URL+"/v1/predict/next", `{"cascade_id":"nope","lookahead":10,"draws":5,"seed":1}`)
	wantAPIError(t, resp, body, http.StatusNotFound, "cascade_not_found")
	resp, body = postJSON(t, ts.URL+"/v1/influence", `{"cascade_id":"nope"}`)
	wantAPIError(t, resp, body, http.StatusNotFound, "cascade_not_found")

	// Inline history and cascade_id are mutually exclusive.
	resp, body = postJSON(t, ts.URL+"/v1/predict/next",
		`{"cascade_id":"c","history":[{"user":0,"time":1}],"lookahead":10}`)
	wantAPIError(t, resp, body, http.StatusBadRequest, "invalid_request")
}

// TestIngestPredictMatchesInlineHistory is the serve-level replay oracle:
// a cascade ingested event by event, the same cascade ingested as one
// batch, and the equivalent inline-history request must all produce
// byte-identical forecasts — at every worker count.
func TestIngestPredictMatchesInlineHistory(t *testing.T) {
	evs := ingestEvents()
	histJSON, err := json.Marshal(evs)
	if err != nil {
		t.Fatal(err)
	}
	predictCascade := `{"cascade_id":"live","lookahead":40,"draws":60,"seed":42}`
	predictInline := fmt.Sprintf(`{"history":%s,"lookahead":40,"draws":60,"seed":42}`, histJSON)
	inflCascade := `{"cascade_id":"live"}`
	inflInline := fmt.Sprintf(`{"history":%s}`, histJSON)

	var wantPredict, wantInfl []byte
	for _, workers := range []int{1, 2, 8} {
		_, tsA := newTestServer(t, func(c *Config) {
			c.Source = expFixtureSource(t)
			c.Batch.Workers = workers
		})
		_, tsB := newTestServer(t, func(c *Config) {
			c.Source = expFixtureSource(t)
			c.Batch.Workers = workers
		})

		// Server A ingests one event at a time; server B takes one batch.
		var parentsA []int
		for i, e := range evs {
			resp, body := postJSON(t, tsA.URL+"/v1/ingest", ingestBody(t, "live", []ActivityJSON{e}, false))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("per-event ingest %d: %d %s", i, resp.StatusCode, body)
			}
			var ir IngestResponse
			if err := json.Unmarshal(body, &ir); err != nil {
				t.Fatal(err)
			}
			if ir.Appended != 1 || ir.Events != i+1 {
				t.Fatalf("per-event ingest %d = %+v", i, ir)
			}
			for _, p := range ir.Parents {
				parentsA = append(parentsA, int(p))
			}
		}
		resp, body := postJSON(t, tsB.URL+"/v1/ingest", ingestBody(t, "live", evs, false))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch ingest: %d %s", resp.StatusCode, body)
		}
		var irB IngestResponse
		if err := json.Unmarshal(body, &irB); err != nil {
			t.Fatal(err)
		}
		if irB.Appended != len(evs) {
			t.Fatalf("batch ingest = %+v", irB)
		}
		// Streaming parent attribution equals the batch attribution.
		if len(parentsA) != len(irB.Parents) {
			t.Fatalf("parents: per-event %d vs batch %d", len(parentsA), len(irB.Parents))
		}
		for i := range parentsA {
			if parentsA[i] != int(irB.Parents[i]) {
				t.Errorf("parents[%d]: per-event %d vs batch %d", i, parentsA[i], irB.Parents[i])
			}
		}

		for _, c := range []struct {
			name, url, body string
			want            *[]byte
		}{
			{"cascade predict A", tsA.URL + "/v1/predict/next", predictCascade, &wantPredict},
			{"cascade predict B", tsB.URL + "/v1/predict/next", predictCascade, &wantPredict},
			{"inline predict A", tsA.URL + "/v1/predict/next", predictInline, &wantPredict},
			{"cascade influence A", tsA.URL + "/v1/influence", inflCascade, &wantInfl},
			{"inline influence B", tsB.URL + "/v1/influence", inflInline, &wantInfl},
		} {
			resp, body := postJSON(t, c.url, c.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("workers=%d %s: %d %s", workers, c.name, resp.StatusCode, body)
			}
			if *c.want == nil {
				*c.want = body
			} else if !bytes.Equal(body, *c.want) {
				t.Errorf("workers=%d %s diverges:\n got %s\nwant %s", workers, c.name, body, *c.want)
			}
		}
		tsA.Close()
		tsB.Close()
	}
}

// TestIngestRefitInstallsNewVersion drives the full streaming loop: ingest
// live events, trigger the incremental refit, and verify the refreshed
// model serves under a bumped version while the CAS install refuses stale
// bases.
func TestIngestRefitInstallsNewVersion(t *testing.T) {
	s, ts := newTestServer(t, func(c *Config) {
		c.Source = expFixtureSource(t)
		c.RefitPasses = 2
	})

	// No ingested events: the refit is a successful no-op.
	resp, body := postJSON(t, ts.URL+"/admin/refit", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty refit: %d %s", resp.StatusCode, body)
	}
	var rj refitJSON
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatal(err)
	}
	if rj.Refitted || rj.Version != 1 || rj.LiveEvents != 0 {
		t.Fatalf("empty refit = %+v, want no-op at v1", rj)
	}

	resp, body = postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, "c0", ingestEvents(), false))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}

	resp, body = postJSON(t, ts.URL+"/admin/refit", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("refit: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rj); err != nil {
		t.Fatal(err)
	}
	if !rj.Refitted || rj.Version != 2 || rj.LiveEvents < 10 {
		t.Fatalf("refit = %+v, want installed v2 with >= 10 live events", rj)
	}
	if got := s.Registry().Current().Version; got != 2 {
		t.Fatalf("registry version %d, want 2", got)
	}

	// The refit model serves, stamping the new version; the cascade's state
	// was rebuilt under it.
	resp, body = postJSON(t, ts.URL+"/v1/predict/next", `{"cascade_id":"c0","lookahead":40,"draws":30,"seed":7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after refit: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(modelVersionHeader); got != "2" {
		t.Errorf("model version header %q, want 2", got)
	}

	// The file watcher's unforced reload is a no-op: the source files did
	// not change, so the refit model keeps serving.
	resp, body = postJSON(t, ts.URL+"/admin/reload?force=0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unforced reload: %d %s", resp.StatusCode, body)
	}
	var lj reloadJSON
	if err := json.Unmarshal(body, &lj); err != nil {
		t.Fatal(err)
	}
	if lj.Reloaded || lj.Version != 2 {
		t.Fatalf("unforced reload after install = %+v, want no-op at v2", lj)
	}

	// Installing against a stale base version is refused — the CAS.
	snap := s.Registry().Current()
	if _, err := s.Registry().Install(snap.Model, snap.Version-1); !errors.Is(err, ErrReloadConflict) {
		t.Fatalf("stale install error = %v, want ErrReloadConflict", err)
	}

	// A refit racing another refit is a 409 in the same envelope.
	s.refitBusy.Store(true)
	resp, body = postJSON(t, ts.URL+"/admin/refit", "")
	wantAPIError(t, resp, body, http.StatusConflict, "reload_conflict")
	s.refitBusy.Store(false)
}

// TestIngestPanicAnswers500: a panic inside the ingest work is a server
// fault, not a client error. That one request answers 500 internal and
// counts as an ingest error, and the server keeps serving.
func TestIngestPanicAnswers500(t *testing.T) {
	metrics := obs.NewMetrics()
	s, ts := newTestServer(t, func(c *Config) { c.Metrics = metrics })
	s.store.SetLogger(func(string, []timeline.Activity) (int64, error) { panic("injected") })

	resp, body := postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, "c", ingestEvents(), false))
	wantAPIError(t, resp, body, http.StatusInternalServerError, "internal")
	if v := metrics.Counter("serve.ingest.errors").Value(); v != 1 {
		t.Errorf("serve.ingest.errors = %d, want 1", v)
	}
	resp, body = postJSON(t, ts.URL+"/v1/predict/next", validNextBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after an ingest panic: %d %s", resp.StatusCode, body)
	}
}

// TestIngestConcurrentE2E exercises the whole /v1 surface at once under the
// race detector: concurrent per-cascade appends, inline and cascade-primed
// forecasts, forced reloads, and incremental refits. Appends must all land
// (backpressure errors aside), and every cascade must end fully queryable.
func TestIngestConcurrentE2E(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Source = expFixtureSource(t)
		c.Batch.Workers = 4
		c.RefitPasses = 1
		c.Metrics = obs.NewMetrics()
	})

	const cascades = 4
	const perCascade = 12
	var wg sync.WaitGroup

	// Writers: one goroutine per cascade, appending event by event.
	for c := 0; c < cascades; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCascade; i++ {
				ev := []ActivityJSON{{User: (c + i) % 8, Time: 1 + float64(i)*0.9, Kind: "post"}}
				body := ingestBody(t, fmt.Sprintf("c%d", c), ev, false)
				for {
					resp, blob := postJSON(t, ts.URL+"/v1/ingest", body)
					if resp.StatusCode == http.StatusOK {
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests {
						continue // shed under load: retry until it lands
					}
					t.Errorf("ingest c%d[%d]: %d %s", c, i, resp.StatusCode, blob)
					return
				}
			}
		}(c)
	}
	// Readers: inline histories and cascade-primed forecasts (the cascade
	// may not exist yet — 404 is a legitimate race outcome).
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, blob := postJSON(t, ts.URL+"/v1/predict/next", validNextBody)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("inline predict: %d %s", resp.StatusCode, blob)
				}
				resp, blob = postJSON(t, ts.URL+"/v1/predict/next",
					fmt.Sprintf(`{"cascade_id":"c%d","lookahead":20,"draws":10,"seed":%d}`, i%cascades, i))
				switch resp.StatusCode {
				case http.StatusOK, http.StatusNotFound, http.StatusTooManyRequests:
				default:
					t.Errorf("cascade predict: %d %s", resp.StatusCode, blob)
				}
			}
		}(r)
	}
	// Reloads and refits churn the model version while everything runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			resp, blob := postJSON(t, ts.URL+"/admin/reload", "")
			if resp.StatusCode != http.StatusOK {
				t.Errorf("reload: %d %s", resp.StatusCode, blob)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			resp, blob := postJSON(t, ts.URL+"/admin/refit", "")
			switch resp.StatusCode {
			case http.StatusOK, http.StatusConflict:
			default:
				t.Errorf("refit: %d %s", resp.StatusCode, blob)
			}
		}
	}()
	wg.Wait()

	// Every cascade landed all its events and serves forecasts.
	for c := 0; c < cascades; c++ {
		resp, blob := postJSON(t, ts.URL+"/v1/predict/next",
			fmt.Sprintf(`{"cascade_id":"c%d","lookahead":20,"draws":10,"seed":1}`, c))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("final predict c%d: %d %s", c, resp.StatusCode, blob)
		}
		// The tail is full: appending one more event reports the total.
		ev := []ActivityJSON{{User: 0, Time: 100, Kind: "post"}}
		resp, blob = postJSON(t, ts.URL+"/v1/ingest", ingestBody(t, fmt.Sprintf("c%d", c), ev, false))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("final ingest c%d: %d %s", c, resp.StatusCode, blob)
			continue
		}
		var ir IngestResponse
		if err := json.Unmarshal(blob, &ir); err != nil {
			t.Fatal(err)
		}
		if ir.Events != perCascade+1 {
			t.Errorf("c%d events = %d, want %d", c, ir.Events, perCascade+1)
		}
	}

	// The metrics surface accounts the traffic.
	resp, blob := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(blob), "chassis_serve_ingest_requests") {
		t.Errorf("metrics missing ingest counters: %s", blob)
	}
}
