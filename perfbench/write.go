package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"chassis/internal/cascade"
	"chassis/internal/ingest"
	"chassis/internal/predict"
	"chassis/internal/serve"
	"chassis/internal/timeline"
	"chassis/internal/wal"
)

// serve-write sizes. The fixed log is what recover_s replays and what every
// rate phase starts from: 64 cascades × 16 batches × 8 events, written before
// any rate phase so its records are a function of the seed alone, and large
// enough that replay, not process start, dominates the restart.
const (
	liveCascades  = 64
	logBatches    = 16
	logBatchSize  = 8
	readEvery     = 5 // every fifth rate-phase request reads a cascade
	recoverStarts = 5 // restarts over the fixed log; recover_s is their median
	layerAppends  = 4 // in-process appends per cascade in the traced layer timing
	// storeCap mirrors ingest.Config's default MaxCascades: the live set must
	// stay below it so no cascade is evicted mid-run.
	storeCap = 1024
)

// liveEvents is how many events each live cascade needs in a run of seconds:
// the fixed log, then the most appends one phase can send it, since every
// phase starts again from the fixed log.
func liveEvents(seconds float64) int {
	// The highest probe: the staircase starts half a rung under the ladder's
	// top and climbs at most a quarter rung a step.
	top := writeRefRate * math.Pow(ladderFactor, ladderSteps-0.5+float64(stairSteps-1)/4)
	arrivals := math.Max(writeRefRate*seconds*refShare, top*seconds*probeShare)
	appends := int(math.Ceil(arrivals*(readEvery-1)/readEvery/liveCascades)) + 1
	return logBatches*logBatchSize + max(appends, layerAppends)
}

// ingestCorpus is the serve-write input: per cascade, one chronological
// stream of events, the first logBatches·logBatchSize of which form the
// fixed log and the rest feed the rate phases one event per request.
type ingestCorpus struct {
	events [][]timeline.Activity
}

// newIngestCorpus cuts the live cascades out of the generator the served
// model's corpus came from: cfg, that corpus's configuration, run on past
// its horizon. The events after the horizon continue the same diffusion
// (follower graph, traits, base rates and conformity dynamics) and are split
// chronologically into cascades consecutive windows of perCascade events.
func newIngestCorpus(cfg cascade.Config, cascades, perCascade int) (*ingestCorpus, error) {
	after := cfg.Horizon
	need := cascades * perCascade
	ext := after
	for try := 0; try < 4; try++ {
		cfg.Horizon = after + ext
		ds, err := cascade.Generate(cfg)
		if err != nil {
			return nil, err
		}
		acts := ds.Seq.Activities
		live := acts[sort.Search(len(acts), func(i int) bool { return acts[i].Time > after }):]
		if len(live) >= need {
			c := &ingestCorpus{events: make([][]timeline.Activity, cascades)}
			for k := range c.events {
				c.events[k] = live[k*perCascade : (k+1)*perCascade]
			}
			return c, nil
		}
		// Size the next horizon from the event rate this one showed.
		ext *= math.Max(2, 1.25*float64(need)/math.Max(1, float64(len(live))))
	}
	return nil, fmt.Errorf("the generator made too few events past t=%g for %d cascades of %d", after, cascades, perCascade)
}

func cascadeID(k int) string { return fmt.Sprintf("live-%02d", k) }

// batch returns events [from, from+n) of cascade k as the server turns an
// ingest request into activities: IDs numbered within the batch, no parent.
func (c *ingestCorpus) batch(k, from, n int) []timeline.Activity {
	acts := make([]timeline.Activity, n)
	for i, a := range c.events[k][from : from+n] {
		acts[i] = timeline.Activity{ID: timeline.ActivityID(i), User: a.User, Time: a.Time,
			Kind: a.Kind, Polarity: a.Polarity, Parent: timeline.NoParent}
	}
	return acts
}

// appendBody is the ingest request carrying events [from, from+n) of
// cascade k.
func (c *ingestCorpus) appendBody(k, from, n int) []byte {
	evs := make([]serve.ActivityJSON, n)
	for i, a := range c.events[k][from : from+n] {
		evs[i] = serve.ActivityJSON{User: int(a.User), Time: a.Time, Kind: a.Kind.String(), Polarity: a.Polarity}
	}
	b, _ := json.Marshal(serve.IngestRequest{CascadeID: cascadeID(k), Events: evs})
	return b
}

// appender hands out one phase's appends: the j-th append goes to cascade j
// mod cascades, carrying that cascade's next unsent event. A cascade's lock
// is held from taking its event until the request returns, so two
// connections never race two appends of one cascade.
type appender struct {
	corpus *ingestCorpus
	mu     sync.Mutex
	nextJ  int
	locks  []sync.Mutex
	pos    []int // next event index per cascade
}

func newAppender(c *ingestCorpus, start int) *appender {
	a := &appender{corpus: c, locks: make([]sync.Mutex, len(c.events)), pos: make([]int, len(c.events))}
	for k := range a.pos {
		a.pos[k] = start
	}
	return a
}

// take reserves the next append; release must be called once it returns.
func (a *appender) take() (k int, body []byte, err error) {
	a.mu.Lock()
	k = a.nextJ % len(a.pos)
	a.nextJ++
	a.mu.Unlock()
	a.locks[k].Lock()
	i := a.pos[k]
	if i >= len(a.corpus.events[k]) {
		a.locks[k].Unlock()
		return k, nil, fmt.Errorf("cascade %d ran out of pre-generated events", k)
	}
	a.pos[k]++
	return k, a.corpus.appendBody(k, i, 1), nil
}

func (a *appender) release(k int) { a.locks[k].Unlock() }

// writeCall is request i of a rate phase: every readEvery-th a cascade_id
// forecast, the rest appends, whose bodies the appender makes at send time.
func writeCall(i int) call {
	if i%readEvery == readEvery-1 {
		return call{"/v1/predict/next", readBody((i / readEvery) % liveCascades)}
	}
	return call{"/v1/ingest", nil}
}

// writePhases runs each serve-write rate phase on its own server, recovered
// from a fresh copy of the fixed log. The reference phase and every probe of
// the rate search so append to cascades of the same length, whatever ran
// before them.
type writePhases struct {
	e       *env
	client  *http.Client
	corpus  *ingestCorpus
	frozen  string                       // the fixed log
	args    func(walDir string) []string // server arguments over a WAL directory
	runs    int
	scrapes []series // each phase server's /metrics, read before it stops
}

func (w *writePhases) run(rate float64, n int, drop bool) ([]outcome, error) {
	dir := filepath.Join(w.e.dir, fmt.Sprintf("wal-phase-%d", w.runs))
	w.runs++
	if err := copyDir(w.frozen, dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	srv, _, err := startServer(w.e.serveBin, w.args(dir), w.client)
	if err != nil {
		return nil, err
	}
	app := newAppender(w.corpus, logBatches*logBatchSize)
	var appendErr error
	var mu sync.Mutex
	l := &loop{client: w.client, base: srv.base, conns: maxConns(), limit: latencyLimit}
	l.sendFn = func(i int, c call) (int, []byte, error) {
		if c.body != nil {
			return post(w.client, srv.base+c.path, c.body)
		}
		k, body, err := app.take()
		if err != nil {
			mu.Lock()
			appendErr = err
			mu.Unlock()
			return 0, nil, err
		}
		defer app.release(k)
		return post(w.client, srv.base+c.path, body)
	}
	outs := l.run(rate, n, drop, writeCall, nil)
	m, err := scrape(w.client, srv.base)
	if stopErr := srv.stop(); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping server: %v (%s)", stopErr, srv.tail())
	}
	if err == nil {
		err = appendErr
	}
	if err != nil {
		return nil, err
	}
	w.scrapes = append(w.scrapes, m)
	return outs, nil
}

// readBody is the fixed-seed cascade_id forecast used for reads and for the
// recovery check.
func readBody(k int) []byte {
	b, _ := json.Marshal(serve.PredictRequest{CascadeID: cascadeID(k), Lookahead: forecastSpan, Draws: forecastDraws, Seed: 7})
	return b
}

func influenceBody(k int) []byte {
	b, _ := json.Marshal(serve.PredictRequest{CascadeID: cascadeID(k)})
	return b
}

// writeFixedLog ingests the fixed log, one connection per half of the
// cascades, and returns each cascade's acknowledged event count.
func writeFixedLog(client *http.Client, base string, c *ingestCorpus, r *report) []int {
	acked := make([]int, len(c.events))
	var wg sync.WaitGroup
	var mu sync.Mutex
	conns := maxConns()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < logBatches; b++ {
				for k := w; k < len(c.events); k += conns {
					status, body, err := post(client, base+"/v1/ingest", c.appendBody(k, b*logBatchSize, logBatchSize))
					var resp serve.IngestResponse
					if err == nil && status == http.StatusOK {
						err = json.Unmarshal(body, &resp)
					}
					mu.Lock()
					r.attempted++
					switch {
					case err != nil || status != http.StatusOK:
						r.fail("fixed-log append to %s: status %d, err %v", cascadeID(k), status, err)
					case resp.Events != (b+1)*logBatchSize:
						r.fail("fixed-log append to %s: cascade holds %d events, want %d", cascadeID(k), resp.Events, (b+1)*logBatchSize)
					default:
						acked[k] = resp.Events
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return acked
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

func runServeWrite(e *env, r *report) error {
	fx, err := buildFixture(e, r)
	if err != nil {
		return err
	}
	corpus, err := newIngestCorpus(cascade.FacebookLike(serveScale, e.seed), liveCascades, liveEvents(e.seconds))
	if err != nil {
		return err
	}
	client := newClient()
	walArgs := func(dir string) []string { return append(fx.serverArgs(), "-wal-dir", dir, "-wal-sync", "always") }

	// Set-up: start over an empty WAL, serveStarts times.
	srv, setup, err := startServers(e, client, func(i int) []string {
		return walArgs(filepath.Join(e.dir, fmt.Sprintf("wal-setup-%d", i)))
	})
	if err != nil {
		return err
	}
	r.set("setup_s", median(setup), len(setup))
	fixedDir := filepath.Join(e.dir, fmt.Sprintf("wal-setup-%d", serveStarts-1))

	// The fixed log, then the forecast the recovered server must repeat.
	acked := writeFixedLog(client, srv.base, corpus, r)
	status, before, err := post(client, srv.base+"/v1/predict/next", readBody(0))
	r.attempted++
	if err != nil || status != http.StatusOK {
		r.fail("pre-crash forecast: status %d, err %v", status, err)
	}
	srv.kill()
	frozen := filepath.Join(e.dir, "wal-fixed")
	if err := copyDir(fixedDir, frozen); err != nil {
		return err
	}

	w := &writePhases{e: e, client: client, corpus: corpus, frozen: frozen, args: walArgs}
	st, _, err := referencePhase(w.run, r, writeRefRate, int(writeRefRate*e.seconds*refShare))
	if err != nil {
		return err
	}
	s, err := searchPhase(w.run, r, writeRefRate, st.onTime, e.seconds)
	if err != nil {
		return err
	}
	reportRates(e, r, st, s)
	// Each phase ran on its own server; the workload's peak is the highest.
	peak := 0.0
	for _, m := range w.scrapes {
		p, err := m.need("chassis_mem_peak_rss_bytes")
		if err != nil {
			return err
		}
		peak = max(peak, p)
	}
	r.attempted++
	r.set("peak_rss_bytes", peak, len(w.scrapes))
	if e.traced {
		m := sum(w.scrapes)
		if err := serverLayers(r, m, "ingest", "next"); err != nil {
			return err
		}
		appends, err := m.need("chassis_wal_appends")
		if err != nil {
			return err
		}
		fsyncs, err := m.need("chassis_wal_fsyncs")
		if err != nil {
			return err
		}
		r.set("wal.fsyncs_per_append", fsyncs/appends, int(appends))
	}

	// Recovery: kill -9 is behind us; restart over fresh copies of the fixed
	// log and check what every restart serves.
	var recover []float64
	for i := 0; i < recoverStarts; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("wal-recover-%d", i))
		if err := copyDir(frozen, dir); err != nil {
			return err
		}
		rs, secs, err := startServer(e.serveBin, walArgs(dir), client)
		if err != nil {
			return err
		}
		recover = append(recover, secs)
		checkRecovered(client, rs.base, acked, before, r)
		if e.traced && i == recoverStarts-1 {
			err = replayLayers(r, client, rs.base)
		}
		if stopErr := rs.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("stopping recovered server: %v (%s)", stopErr, rs.tail())
		}
		if err != nil {
			return err
		}
	}
	r.set("recover_s", median(recover), len(recover))
	if e.traced {
		size, err := dirBytes(frozen)
		if err != nil {
			return err
		}
		r.set("wal.bytes_per_event", float64(size)/float64(liveCascades*logBatches*logBatchSize), 1)
		return writeLayers(e, r, fx, corpus)
	}
	return nil
}

// replayLayers reads the replay figures off a server recovered from the
// fixed log.
func replayLayers(r *report, client *http.Client, base string) error {
	m, err := scrape(client, base)
	if err != nil {
		return err
	}
	secs, err := m.need("chassis_wal_replay_seconds")
	if err != nil {
		return err
	}
	records, err := m.need("chassis_wal_replayed_records")
	if err != nil {
		return err
	}
	r.set("wal.replay_s", secs, 1)
	r.set("wal.replayed_records", records, 1)
	return nil
}

// checkRecovered verifies a restarted server: every cascade holds its
// acknowledged events, and the fixed-seed forecast repeats its bytes.
func checkRecovered(client *http.Client, base string, acked []int, before []byte, r *report) {
	for k, want := range acked {
		status, body, err := post(client, base+"/v1/influence", influenceBody(k))
		var got predict.InfluenceJSON
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &got)
		}
		r.attempted++
		if err != nil || status != http.StatusOK || got.Events != want {
			r.fail("recovered %s: status %d, %d events, want %d (err %v)", cascadeID(k), status, got.Events, want, err)
		}
	}
	status, after, err := post(client, base+"/v1/predict/next", readBody(0))
	r.attempted++
	if err != nil || status != http.StatusOK || !bytes.Equal(before, after) {
		r.fail("recovered forecast differs from the pre-crash one (status %d, err %v)", status, err)
	}
}

// writeLayers times, in process, the layer calls a write request makes: the
// store append, the cascade forecast, and a durable WAL append.
func writeLayers(e *env, r *report, fx *fixture, c *ingestCorpus) error {
	tr := e.tr
	store := ingest.NewStore(ingest.Config{}, nil)
	fixed := logBatches * logBatchSize
	for k := range c.events {
		if _, err := store.Append(fx.model, fx.proc, 1, cascadeID(k), c.batch(k, 0, fixed)); err != nil {
			return err
		}
	}
	for j := 0; j < layerAppends*liveCascades; j++ {
		k := j % liveCascades
		acts := c.batch(k, fixed+j/liveCascades, 1)
		var err error
		tr.do("ingest.append", 0, func() { _, err = store.Append(fx.model, fx.proc, 1, cascadeID(k), acts) })
		r.attempted++
		if err != nil {
			r.fail("in-process append: %v", err)
		}
	}
	for k := 0; k < 16; k++ {
		var err error
		tr.do("predict.cascade_next", 0, func() {
			st, hist, e2 := store.State(fx.model, fx.proc, 1, cascadeID(k), 0)
			if e2 != nil {
				err = e2
				return
			}
			_, err = predict.Next(fx.proc, hist, predict.Options{Lookahead: forecastSpan, Draws: forecastDraws, Seed: 7, HistState: st})
		})
		r.attempted++
		if err != nil {
			r.fail("in-process cascade forecast: %v", err)
		}
	}

	log, err := wal.Open(wal.Config{Dir: filepath.Join(e.dir, "wal-layer"), Sync: wal.SyncAlways}, nil)
	if err != nil {
		return err
	}
	if err := log.Start(); err != nil {
		log.Close()
		return err
	}
	for j := 0; j < 200; j++ {
		k := j % liveCascades
		payload, _ := json.Marshal(map[string]any{"cascade": cascadeID(k), "events": c.batch(k, j/liveCascades, 1)})
		tr.do("wal.durable_append", 0, func() {
			var lsn int64
			if lsn, err = log.Append("ingest.append/v1", payload); err == nil {
				err = log.WaitDurable(lsn)
			}
		})
		r.attempted++
		if err != nil {
			r.fail("durable WAL append: %v", err)
		}
	}
	if err := log.Close(); err != nil {
		return err
	}
	spans := tr.snapshot()
	for metric, name := range map[string]string{
		"ingest.append_ms":        "ingest.append",
		"predict.cascade_next_ms": "predict.cascade_next",
		"wal.durable_append_ms":   "wal.durable_append",
	} {
		d := layerTimes(spans, name)
		r.set(metric, 1000*median(d), len(d))
	}
	fmt.Println("wal.* figures are this machine's: fsync latency depends on the disk and its cache")
	return nil
}
