package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"chassis/internal/cascade"
	"chassis/internal/core"
	"chassis/internal/dataio"
	"chassis/internal/hawkes"
	"chassis/internal/loadgen"
	"chassis/internal/predict"
	"chassis/internal/serve"
	"chassis/internal/timeline"
)

// Serve workload constants. The reference rates sit near a quarter of each
// mix's knee on a 2-CPU machine (about 500 rps for reads, 550 for writes), so
// p50/p99 there measure service time, not queueing; max_rps measures the
// knee itself against latencyLimit. Forecasts look 3 time units ahead with 8
// draws, which keeps a request's cost, and so the knee, from swinging with
// the seed's fitted branching.
const (
	serveScale    = 2   // chassis-sim SF scale of the serving corpus
	serveSplit    = 0.7 // training share the served model is fitted on
	serveStarts   = 11  // server starts per run; setup_s is their median
	latencyLimit  = 0.1
	readRefRate   = 120.0
	writeRefRate  = 120.0
	warmupSeconds = 1.0
	// A run spends refShare of its --seconds at the reference rate and
	// probeShare on each rate-search probe. The first probeWarm share of a
	// probe's arrivals settles the queue and is not scored.
	refShare     = 0.4
	probeShare   = 0.08
	probeWarm    = 0.25
	ladderFactor = 1.5
	ladderSteps  = 8
	stairSteps   = 8
	bodyChecks   = 12 // serve-read responses compared byte for byte
	// forecastSpan and forecastDraws shape every forecast request.
	forecastSpan  = 3.0
	forecastDraws = 8
)

// endpointPath maps a corpus endpoint to its URL path.
var endpointPath = map[loadgen.Endpoint]string{
	loadgen.EndpointNext:      "/v1/predict/next",
	loadgen.EndpointCounts:    "/v1/predict/counts",
	loadgen.EndpointInfluence: "/v1/influence",
}

// fixture is the serving corpus and the model fitted on it, on disk as the
// server reads them and loaded in process the way the server loads them.
type fixture struct {
	dataPath, modelPath string
	test                *timeline.Sequence
	model               *core.Model
	proc                *hawkes.Process
}

// buildFixture generates a chassis-sim SF corpus from seed and fits
// CHASSIS-L with the exponential kernel on its training share, as
// `chassis-fit -expkernel -split 0.7` does.
func buildFixture(e *env, r *report) (*fixture, error) {
	ds, err := cascade.Generate(cascade.FacebookLike(serveScale, e.seed))
	if err != nil {
		return nil, err
	}
	train, test, err := ds.Seq.Split(serveSplit)
	if err != nil {
		return nil, err
	}
	m, err := core.FitContext(context.Background(), train, core.Config{
		Variant: core.VariantL, EMIters: 10, Seed: e.seed, ExpKernel: true, UseObservedTrees: true,
	})
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		dataPath:  filepath.Join(e.dir, "data.json"),
		modelPath: filepath.Join(e.dir, "model.json"),
		test:      test,
	}
	if err := dataio.SaveDataset(fx.dataPath, ds); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	if err := os.WriteFile(fx.modelPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	// Load back through the files, as the server does; traced runs time the
	// two steps of that load serveStarts times.
	loads := 1
	if e.traced {
		loads = serveStarts
	}
	for i := 0; i < loads; i++ {
		var loaded *cascade.Dataset
		e.tr.do("dataio.read_dataset", 0, func() { loaded, err = dataio.LoadDataset(fx.dataPath) })
		if err != nil {
			return nil, err
		}
		train, _, err := loaded.Seq.Split(serveSplit)
		if err != nil {
			return nil, err
		}
		e.tr.do("core.load_model", 0, func() { fx.model, err = core.LoadModel(bytes.NewReader(buf.Bytes()), train) })
		if err != nil {
			return nil, err
		}
	}
	fx.proc = fx.model.Process()
	if e.traced {
		spans := e.tr.snapshot()
		for metric, name := range map[string]string{"dataio.read_dataset_s": "dataio.read_dataset", "core.load_model_s": "core.load_model"} {
			d := layerTimes(spans, name)
			r.set(metric, median(d), len(d))
		}
	}
	return fx, nil
}

func (fx *fixture) serverArgs() []string {
	return []string{"-model", fx.modelPath, "-data", fx.dataPath, "-split", strconv.FormatFloat(serveSplit, 'g', -1, 64)}
}

func newClient() *http.Client {
	n := maxConns()
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, MaxIdleConns: n,
			DisableCompression: true,
		},
	}
}

// startServers starts the server serveStarts times, stopping all but the
// last, and returns it with the start-to-ready times. mkArgs gives each
// start its arguments.
func startServers(e *env, client *http.Client, mkArgs func(i int) []string) (*server, []float64, error) {
	var times []float64
	for i := 0; i < serveStarts; i++ {
		srv, secs, err := startServer(e.serveBin, mkArgs(i), client)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, secs)
		if i == serveStarts-1 {
			return srv, times, nil
		}
		if err := srv.stop(); err != nil {
			return nil, nil, fmt.Errorf("stopping server: %v (%s)", err, srv.tail())
		}
	}
	return nil, nil, nil
}

// phase runs one open-loop phase of n requests due at rate; drop marks a
// rate probe, which may drop requests already over the limit.
type phase func(rate float64, n int, drop bool) ([]outcome, error)

// maxLateMs is the generator lateness p99 above which a phase measured the
// client rather than the server: half the latency limit.
const maxLateMs = 1000 * latencyLimit / 2

// lateTries is how many times a rate probe runs before a generator that
// keeps falling behind fails it.
const lateTries = 3

// warmup is how many of a reference phase's n requests settle the server
// before scoring starts: warmupSeconds of arrivals, at most half the phase.
func warmup(rate float64, n int) int {
	return min(int(rate*warmupSeconds), n/2)
}

// phaseStats summarizes a reference-rate phase.
type phaseStats struct {
	p50, tail, tailP float64 // ms
	samples          int
	lateP99          float64 // ms
	onTime           float64 // share of the scored requests within the limit
}

// referencePhase runs the fixed-rate phase of n requests: warm-up first, then
// the scored arrivals. It counts every request as attempted and every non-200
// one as failed, and returns the latency summary of the scored part.
func referencePhase(run phase, r *report, rate float64, n int) (phaseStats, []outcome, error) {
	outs, err := run(rate, n, false)
	if err != nil {
		return phaseStats{}, nil, err
	}
	warm := warmup(rate, n)
	var lat []float64
	for i, o := range outs {
		r.attempted++
		if o.status != http.StatusOK {
			r.fail("reference request %d: status %d", i, o.status)
			continue
		}
		if i >= warm {
			lat = append(lat, 1000*o.latency())
		}
	}
	st := phaseStats{samples: len(lat), onTime: onTime(outs[warm:], latencyLimit), lateP99: lateP99(outs[warm:])}
	s := sortedCopy(lat)
	st.p50 = nearestRank(s, 50)
	p, ok := tailPercentile(len(s))
	if !ok {
		p = 100
	}
	st.tailP = p
	st.tail = nearestRank(s, p)
	if st.lateP99 > maxLateMs {
		r.fail("the load generator ran %.3g ms late at p99 in the reference phase, over half the latency limit: the phase does not count", st.lateP99)
	}
	fmt.Printf("reference phase: generator lateness p99 %.3g ms, %.4g%% on time within %g ms\n", st.lateP99, 100*st.onTime, 1000*latencyLimit)
	return st, outs, nil
}

// search is the outcome of the max_rps search.
type search struct {
	maxRPS    float64
	probes    int     // probes the search counted, ladder retries included
	reruns    int     // probes run again because the generator ran late
	worstLate float64 // ms: the highest generator lateness p99 of any probe
}

// searchPhase measures max_rps, starting from the reference phase's rate
// and on-time share. Latency runs from the scheduled send, and near the knee
// the generator shares the CPUs with a saturated server, so a probe during
// which the generator itself ran more than maxLateMs late at p99 measured
// the client: it runs again, and after lateTries late runs it counts as a
// failed operation.
func searchPhase(run phase, r *report, start, fStart, seconds float64) (search, error) {
	var s search
	var err error
	probe := func(rate float64) float64 {
		n := int(rate * seconds * probeShare)
		for try := 1; err == nil; try++ {
			var outs []outcome
			if outs, err = run(rate, n, true); err != nil {
				break
			}
			r.attempted += n
			scored := outs[int(probeWarm*float64(n)):]
			late := lateP99(scored)
			s.worstLate = max(s.worstLate, late)
			if late > maxLateMs && try < lateTries {
				s.reruns++
				continue
			}
			if late > maxLateMs {
				r.fail("probe at %.4g rps: the load generator ran %.3g ms late at p99 in %d runs", rate, late, lateTries)
			}
			f := onTime(scored, latencyLimit)
			fmt.Printf("probe %.4g rps: %.4g%% on time, generator lateness p99 %.3g ms\n", rate, 100*f, late)
			return f
		}
		return 0
	}
	s.maxRPS, s.probes = rateSearch(start, fStart, ladderFactor, ladderSteps, probe)
	return s, err
}

// reportRates records the reference-phase latency and the max_rps search,
// with the generator lateness of each.
func reportRates(e *env, r *report, st phaseStats, s search) {
	r.set("p50_ms", st.p50, st.samples)
	r.set("p99_ms", st.tail, st.samples)
	r.set("max_rps", s.maxRPS, s.probes)
	r.set("throughput_per_s", s.maxRPS, s.probes)
	if st.tailP != 99 {
		fmt.Printf("p99_ms reports the p%g: %d samples leave fewer than %d beyond the p99\n", st.tailP, st.samples, minBeyond)
	}
	fmt.Printf("max_rps %.4g over %d probes (%d more re-run for generator lateness); worst probe generator lateness p99 %.3g ms\n",
		s.maxRPS, s.probes, s.reruns, s.worstLate)
	if e.traced {
		r.set("driver.late_p99_ms", max(st.lateP99, s.worstLate), s.probes+1)
	}
}

// serverLayers records the per-layer metrics read off the server's
// /metrics; endpoints are the ones the workload sends. Every series read
// must be present.
func serverLayers(r *report, m series, endpoints ...string) error {
	for _, ep := range endpoints {
		n, err := m.need("chassis_serve_" + ep + "_latency_count")
		if err != nil {
			return err
		}
		total, err := m.need("chassis_serve_" + ep + "_latency_seconds_total")
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("the server timed no %s requests", ep)
		}
		r.set("serve.handler_ms."+ep, 1000*total/n, int(n))
	}
	batches, err := m.need("chassis_serve_dispatch_batches")
	if err != nil {
		return err
	}
	batched, err := m.need("chassis_serve_dispatch_batched_requests")
	if err != nil {
		return err
	}
	r.set("serve.batch_mean", batched/batches, int(batches))
	// The dispatcher creates a rejection counter on its first rejection, so
	// an absent one counts none; the batch series above show the dispatcher
	// exports under these names.
	r.set("serve.rejected", m["chassis_serve_dispatch_rejected_full"]+m["chassis_serve_dispatch_rejected_draining"], 1)
	var looks, hits float64
	for _, c := range []string{"hits", "extends", "misses"} {
		v, err := m.need("chassis_serve_histcache_" + c)
		if err != nil {
			return err
		}
		looks += v
		if c == "hits" {
			hits = v
		}
	}
	if looks > 0 {
		r.set("serve.histcache_hit_ratio", hits/looks, int(looks))
	} else {
		r.zero("serve.histcache_hit_ratio", "no request consulted the history cache")
	}
	return nil
}

// predictHistory rebuilds the history a predict request conditions on,
// exactly as the server does.
func predictHistory(req *serve.PredictRequest, m int) (*timeline.Sequence, error) {
	seq := &timeline.Sequence{M: m, Horizon: req.Horizon}
	var last float64
	for i, a := range req.History {
		kind := timeline.Post
		if a.Kind != "" {
			var err error
			if kind, err = timeline.ParseKind(a.Kind); err != nil {
				return nil, err
			}
		}
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(i), User: timeline.UserID(a.User),
			Time: a.Time, Kind: kind, Polarity: a.Polarity, Parent: timeline.NoParent,
		})
		last = a.Time
	}
	if seq.Horizon == 0 {
		seq.Horizon = last
	}
	return seq, nil
}

// expectedBody computes in process the bytes the server must return for a
// read request; st, when non-nil, is the history's continuation state.
func expectedBody(proc *hawkes.Process, ep loadgen.Endpoint, req *serve.PredictRequest, hist *timeline.Sequence, st *hawkes.ContState) ([]byte, error) {
	switch ep {
	case loadgen.EndpointNext:
		n, err := predict.Next(proc, hist, predict.Options{Lookahead: req.Lookahead, Draws: req.Draws, Seed: req.Seed, HistState: st})
		if err != nil {
			return nil, err
		}
		return predict.EncodeNext(n)
	case loadgen.EndpointCounts:
		c, err := predict.Counts(proc, hist, predict.Options{Window: req.Window, Draws: req.Draws, Seed: req.Seed, HistState: st})
		if err != nil {
			return nil, err
		}
		return predict.EncodeCounts(c)
	case loadgen.EndpointInfluence:
		s, err := predict.Influence(proc, hist, predict.Options{})
		if err != nil {
			return nil, err
		}
		return predict.EncodeInfluence(s)
	}
	return nil, fmt.Errorf("no read endpoint %q", ep)
}

// readCorpus is the serve-read request mix: loadgen's next/counts/influence
// split over 32 history prefixes of the held-out cascade, fewer than the
// server's 256 history-cache entries, so prefixes repeat and extend cached
// ones.
func readCorpus(fx *fixture, seed int64) ([]loadgen.Request, error) {
	return loadgen.BuildCorpus(fx.test, loadgen.CorpusConfig{
		Requests: 512, Histories: 32, MaxHistory: 96, Draws: forecastDraws,
		Lookahead: forecastSpan, Window: forecastSpan, Seed: seed,
	})
}

// histGap is how many requests earlier a checked request's history must
// have been sent: at the reference rate that is 80 ms, far longer than one
// request takes, so the earlier request has filled the history cache.
const histGap = 10

// checkedRequests picks the serve-read responses compared byte for byte
// among a reference phase's n requests: bodyChecks requests spread evenly
// over the scored part, each moved forward to the first request of its
// turn's endpoint (next, counts and influence in rotation) whose history
// was sent at least histGap requests earlier. The next and counts checks so
// compare responses served from the history cache.
func checkedRequests(reqs []loadgen.Request, warm, n int) (map[int]bool, error) {
	hist := make([]string, len(reqs))
	for i, q := range reqs {
		var req serve.PredictRequest
		if err := json.Unmarshal(q.Body, &req); err != nil {
			return nil, err
		}
		b, err := json.Marshal(req.History)
		if err != nil {
			return nil, err
		}
		hist[i] = string(b)
	}
	first := map[string]int{} // history → the first request sending it
	for i := n - 1; i >= 0; i-- {
		first[hist[i%len(reqs)]] = i
	}
	turns := []loadgen.Endpoint{loadgen.EndpointNext, loadgen.EndpointCounts, loadgen.EndpointInfluence}
	step := (n - warm) / bodyChecks
	out := map[int]bool{}
	for j := 0; j < bodyChecks; j++ {
		for i := warm + j*step; i < n; i++ {
			q := i % len(reqs)
			if !out[i] && reqs[q].Endpoint == turns[j%len(turns)] && first[hist[q]] <= i-histGap {
				out[i] = true
				break
			}
		}
	}
	if len(out) < bodyChecks {
		return nil, fmt.Errorf("only %d of %d checked requests repeat an earlier history", len(out), bodyChecks)
	}
	return out, nil
}

func runServeRead(e *env, r *report) error {
	fx, err := buildFixture(e, r)
	if err != nil {
		return err
	}
	reqs, err := readCorpus(fx, e.seed)
	if err != nil {
		return err
	}
	n := int(readRefRate * e.seconds * refShare)
	checked, err := checkedRequests(reqs, warmup(readRefRate, n), n)
	if err != nil {
		return err
	}
	client := newClient()
	srv, setup, err := startServers(e, client, func(int) []string { return fx.serverArgs() })
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			srv.kill()
		}
	}()
	r.set("setup_s", median(setup), len(setup))

	next := func(i int) call {
		q := reqs[i%len(reqs)]
		return call{endpointPath[q.Endpoint], q.Body}
	}
	l := &loop{client: client, base: srv.base, conns: maxConns(), limit: latencyLimit}
	keep := func(i int) bool { return checked[i] }
	run := func(rate float64, n int, drop bool) ([]outcome, error) {
		return l.run(rate, n, drop, next, keep), nil
	}
	st, outs, err := referencePhase(run, r, readRefRate, n)
	if err != nil {
		return err
	}
	keep = nil
	s, err := searchPhase(run, r, readRefRate, st.onTime, e.seconds)
	if err != nil {
		return err
	}
	reportRates(e, r, st, s)

	m, err := scrape(client, srv.base)
	if err != nil {
		return err
	}
	r.attempted++
	peak, err := m.need("chassis_mem_peak_rss_bytes")
	if err != nil {
		return err
	}
	r.set("peak_rss_bytes", peak, 1)
	if e.traced {
		if err := serverLayers(r, m, "next", "counts", "influence"); err != nil {
			return err
		}
	}
	stopped = true
	if err := srv.stop(); err != nil {
		return fmt.Errorf("stopping server: %v (%s)", err, srv.tail())
	}

	// Byte-compare the checked responses with the same calls made in process.
	perEndpoint := map[loadgen.Endpoint]int{}
	for i := range outs {
		if !checked[i] {
			continue
		}
		q := reqs[i%len(reqs)]
		perEndpoint[q.Endpoint]++
		var req serve.PredictRequest
		if err := json.Unmarshal(q.Body, &req); err != nil {
			return err
		}
		hist, err := predictHistory(&req, fx.model.M)
		if err != nil {
			return err
		}
		want, err := expectedBody(fx.proc, q.Endpoint, &req, hist, nil)
		r.attempted++
		if err != nil || !bytes.Equal(want, outs[i].body) {
			r.fail("read request %d (%s): response differs from the in-process result (err %v)", i, q.Endpoint, err)
		}
	}
	fmt.Printf("%d scored responses compared byte for byte with in-process predict (%d next, %d counts, %d influence), each on a history sent at least %d requests earlier\n",
		len(checked), perEndpoint[loadgen.EndpointNext], perEndpoint[loadgen.EndpointCounts], perEndpoint[loadgen.EndpointInfluence], histGap)
	if e.traced {
		readLayers(e, r, fx, reqs)
	}
	return nil
}

// readLayers times, in process, the layer calls a read request makes.
func readLayers(e *env, r *report, fx *fixture, reqs []loadgen.Request) {
	tr := e.tr
	// Each corpus request is one trace: decode, then, for the first request
	// on each history, the continuation state a cache hit would skip, then
	// (up to predictCalls per endpoint) the predict call with that state.
	const predictCalls = 16
	states := map[int]*hawkes.ContState{}
	calls := map[loadgen.Endpoint]int{}
	for i, q := range reqs {
		root := tr.begin("serve.request", 0, i+1)
		var req serve.PredictRequest
		var hist *timeline.Sequence
		var err error
		tr.do("serve.decode", root, func() {
			dec := json.NewDecoder(bytes.NewReader(q.Body))
			dec.DisallowUnknownFields() // as the server decodes
			err = dec.Decode(&req)
		})
		if err == nil {
			hist, err = predictHistory(&req, fx.model.M)
		}
		if err != nil {
			tr.end(root)
			r.fail("corpus body %d: %v", i, err)
			return
		}
		n := hist.Len()
		if _, ok := states[n]; !ok {
			tr.do("hawkes.history_state", root, func() { states[n] = fx.proc.HistoryState(hist) })
		}
		if calls[q.Endpoint] < predictCalls {
			calls[q.Endpoint]++
			tr.do("predict."+string(q.Endpoint), root, func() {
				_, err = expectedBody(fx.proc, q.Endpoint, &req, hist, states[n])
			})
			r.attempted++
			if err != nil {
				r.fail("in-process %s: %v", q.Endpoint, err)
			}
		}
		tr.end(root)
	}
	spans := tr.snapshot()
	set := func(metric, span string) {
		if d := layerTimes(spans, span); len(d) > 0 {
			r.set(metric, 1000*median(d), len(d))
		}
	}
	set("serve.decode_ms", "serve.decode")
	set("hawkes.history_state_ms", "hawkes.history_state")
	set("predict.next_ms", "predict.next")
	set("predict.counts_ms", "predict.counts")
	set("predict.influence_ms", "predict.influence")
}
