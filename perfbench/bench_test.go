package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"testing"

	"chassis/internal/cascade"
	"chassis/internal/loadgen"
	"chassis/internal/serve"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	s := sortedCopy(xs)
	for _, c := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10},
	} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("empty sample should give NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g, want 3", got)
	}
	if got := trimmedMean([]float64{100, 1, 3, 5, 4}); got != 4 {
		t.Errorf("trimmed mean = %g, want 4", got)
	}
	if got := trimmedMean([]float64{2, 4}); got != 3 {
		t.Errorf("trimmed mean of two = %g, want 3", got)
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{100, 90, true},
		{99, 0, false},
		{3, 0, false},
	} {
		p, ok := tailPercentile(c.n)
		if ok != c.ok || p != c.want {
			t.Errorf("n=%d: got p%g ok=%v, want p%g ok=%v", c.n, p, ok, c.want, c.ok)
			continue
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, p, beyond(c.n, p))
		}
	}
}

// saturating is a synthetic on-time curve: every request is on time up to
// capacity c; above it the backlog grows and the on-time share falls as c/r.
func saturating(c float64) func(r float64) float64 {
	return func(r float64) float64 {
		if r <= c {
			return 1
		}
		return c / r
	}
}

func TestRateSearchFindsTheKnee(t *testing.T) {
	for _, c := range []struct {
		name        string
		base, knee  float64
		maxProbes   int
		wantExactly float64
	}{
		{name: "climbs from a passing base", base: 120, knee: 300, maxProbes: 16},
		{name: "descends from a failing base", base: 900, knee: 300, maxProbes: 17},
		{name: "knee on a rung", base: 100, knee: 225, maxProbes: 16},
		{name: "never saturates", base: 100, knee: 1e9, maxProbes: ladderSteps, wantExactly: 100 * math.Pow(ladderFactor, ladderSteps)},
	} {
		t.Run(c.name, func(t *testing.T) {
			probe := saturating(c.knee)
			got, probes := rateSearch(c.base, probe(c.base), ladderFactor, ladderSteps, probe)
			if probes > c.maxProbes {
				t.Errorf("%d probes, want at most %d", probes, c.maxProbes)
			}
			if c.wantExactly != 0 {
				if math.Abs(got-c.wantExactly) > 1e-6*c.wantExactly {
					t.Errorf("got %g, want %g", got, c.wantExactly)
				}
				return
			}
			// The staircase settles into steps of a sixteenth of a rung.
			tol := math.Pow(ladderFactor, 1.0/16) - 1
			if math.Abs(got-c.knee)/c.knee > tol {
				t.Errorf("got %g, want %g within %.1f%%", got, c.knee, 100*tol)
			}
		})
	}
}

// noisyKnee is a probe whose verdict near the knee is a coin flip: a rate r
// passes with probability 1/(1+exp((r-knee)/width)), as on a shared machine.
// Probes numbered in dip fail whatever their rate, as they do while the
// machine's capacity dips.
func noisyKnee(knee, width float64, seed int64, dip func(n int) bool) func(r float64) float64 {
	rnd := rand.New(rand.NewSource(seed))
	n := 0
	return func(r float64) float64 {
		n++
		if !dip(n) && rnd.Float64() < 1/(1+math.Exp((r-knee)/width)) {
			return 1
		}
		return 0.5
	}
}

func TestRateSearchRidesOutNoiseAndDips(t *testing.T) {
	noDip := func(int) bool { return false }
	medianOf := func(knee float64, dip func(int) bool) float64 {
		var got []float64
		for seed := int64(1); seed <= 41; seed++ {
			r, _ := rateSearch(120, 1, ladderFactor, ladderSteps, noisyKnee(knee, 0.03*knee, seed, dip))
			got = append(got, r)
		}
		return median(got)
	}
	a, b := medianOf(500, noDip), medianOf(550, noDip)
	if a < 480 || a > 540 {
		t.Errorf("a noisy knee at 500 reads %g", a)
	}
	if ratio := b / a; ratio < 1.05 || ratio > 1.15 {
		t.Errorf("knees 500 and 550 read %g and %g", a, b)
	}
	// Three probes fail in a row right after the ladder, then the machine
	// recovers: the search must come back up to the knee.
	dip := func(n int) bool { return n >= 6 && n < 9 }
	if c := medianOf(500, dip); math.Abs(c-a)/a > 0.03 {
		t.Errorf("a dip of three probes moves the reading from %g to %g", a, c)
	}
}

func TestRateSearchEndsAboveEveryFailure(t *testing.T) {
	// The ladder's failing rung at 405 was a stall: every later probe passes,
	// so the staircase climbs past it and no failure is left above its
	// highest pass, which is then the result.
	n, highest := 0, 0.0
	probe := func(r float64) float64 {
		n++
		if n <= 4 && r > 400 {
			return 0
		}
		highest = math.Max(highest, r)
		return 1
	}
	got, _ := rateSearch(120, 1, ladderFactor, ladderSteps, probe)
	if got != highest || got <= 405 {
		t.Errorf("got %g, want the highest passing rate %g, above the stalled rung", got, highest)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "decode", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "predict", Start: 2, End: 5}, // overlaps decode
		{ID: 4, Parent: 3, Name: "state", Start: 2, End: 4},   // a grandchild
		{ID: 5, Parent: 1, Name: "encode", Start: 8, End: 12}, // runs past its parent
		{ID: 6, Name: "other", Start: 20, End: 21},
	}
	self := selfTimes(spans)
	for id, want := range map[int]float64{1: 4, 2: 2, 3: 1, 4: 2, 5: 4, 6: 1} {
		if math.Abs(self[id]-want) > 1e-12 {
			t.Errorf("span %d self time %g, want %g", id, self[id], want)
		}
	}
	if got := layerTimes(spans, "predict"); len(got) != 1 || got[0] != 1 {
		t.Errorf("byName self = %v", got)
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", 0, func() { ran = true })
	if !ran || tr.snapshot() != nil {
		t.Error("a nil tracer must run the call and record nothing")
	}
	tr = newTracer()
	root := tr.begin("request", 0, 7)
	tr.do("inner", root, func() {})
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Trace != 7 {
		t.Errorf("a child span must name its parent and share its trace: %+v", spans)
	}
}

func TestIngestCorpusIsChronologicalPerCascade(t *testing.T) {
	if liveCascades >= storeCap {
		t.Fatalf("%d live cascades would reach the store's cap of %d", liveCascades, storeCap)
	}
	cfg := cascade.FacebookLike(1, 3)
	c, err := newIngestCorpus(cfg, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	last := cfg.Horizon
	for k, evs := range c.events {
		if len(evs) != 40 {
			t.Fatalf("cascade %d holds %d events, want 40", k, len(evs))
		}
		// Consecutive windows of one stream past the generator's horizon.
		for i, e := range evs {
			if e.Time < last || (k == 0 && i == 0 && e.Time <= cfg.Horizon) {
				t.Fatalf("cascade %d: event %d at t=%g after t=%g", k, i, e.Time, last)
			}
			if e.User < 0 || int(e.User) >= cfg.M {
				t.Fatalf("cascade %d: user %d outside [0,%d)", k, e.User, cfg.M)
			}
			last = e.Time
		}
	}
	again, err := newIngestCorpus(cfg, 8, 40)
	if err != nil {
		t.Fatal(err)
	}
	if string(again.appendBody(5, 10, 3)) != string(c.appendBody(5, 10, 3)) {
		t.Error("the same seed must make the same corpus")
	}
}

func TestLiveEventsCoverTheLargestPhase(t *testing.T) {
	// The highest rate a search can probe: every ladder rung passes but the
	// top one, which stalls twice, and then every staircase probe passes.
	topRung := writeRefRate * math.Pow(ladderFactor, ladderSteps)
	fails, top := 0, 0.0
	rateSearch(writeRefRate, 1, ladderFactor, ladderSteps, func(r float64) float64 {
		top = math.Max(top, r)
		if r >= topRung && fails < 2 {
			fails++
			return 0
		}
		return 1
	})
	for _, secs := range []float64{1, 25, 60} {
		n := int(top * secs * probeShare) // arrivals of the highest probe
		appends := n - n/readEvery
		need := logBatches*logBatchSize + (appends+liveCascades-1)/liveCascades
		if got := liveEvents(secs); got < need || got < logBatches*logBatchSize+layerAppends {
			t.Errorf("%gs: %d events per cascade, the top probe needs %d", secs, got, need)
		}
	}
}

func TestAppenderKeepsEachCascadeInOrder(t *testing.T) {
	const start, perWorker, workers = 16, 50, 4
	c, err := newIngestCorpus(cascade.FacebookLike(1, 9), liveCascades, start+8)
	if err != nil {
		t.Fatal(err)
	}
	a := newAppender(c, start)
	var mu sync.Mutex
	sent := map[string][]float64{} // per cascade, event times in send order
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k, body, err := a.take()
				if err != nil {
					t.Error(err)
					return
				}
				var req serve.IngestRequest
				if err := json.Unmarshal(body, &req); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				sent[req.CascadeID] = append(sent[req.CascadeID], req.Events[0].Time)
				mu.Unlock()
				a.release(k)
			}
		}()
	}
	wg.Wait()
	total := 0
	for id, times := range sent {
		total += len(times)
		if !sort.Float64sAreSorted(times) {
			t.Errorf("cascade %s was sent out of order", id)
		}
	}
	if total != perWorker*workers {
		t.Errorf("sent %d appends, want %d", total, perWorker*workers)
	}
	if first := c.events[0][start].Time; sent[cascadeID(0)][0] != first {
		t.Errorf("rate-phase appends must start after the fixed log")
	}
}

func TestCheckedRequestsRepeatEarlierHistories(t *testing.T) {
	ds, err := cascade.Generate(cascade.FacebookLike(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := loadgen.BuildCorpus(ds.Seq, loadgen.CorpusConfig{Requests: 512, Histories: 32, MaxHistory: 96, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1200
	warm := warmup(readRefRate, n)
	checked, err := checkedRequests(reqs, warm, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(checked) != bodyChecks {
		t.Fatalf("%d checked requests, want %d", len(checked), bodyChecks)
	}
	perEndpoint := map[loadgen.Endpoint]int{}
	lo, hi := n, 0
	for i := range checked {
		lo, hi = min(lo, i), max(hi, i)
		q := reqs[i%len(reqs)]
		perEndpoint[q.Endpoint]++
		seen := false
		for j := 0; j <= i-histGap; j++ {
			seen = seen || string(historyOf(t, reqs[j%len(reqs)])) == string(historyOf(t, q))
		}
		if !seen {
			t.Errorf("checked request %d repeats no history sent %d requests before it", i, histGap)
		}
	}
	if lo < warm || hi < n/2 {
		t.Errorf("checked requests span [%d, %d]; want them spread over the scored part [%d, %d)", lo, hi, warm, n)
	}
	for _, ep := range []loadgen.Endpoint{loadgen.EndpointNext, loadgen.EndpointCounts, loadgen.EndpointInfluence} {
		if perEndpoint[ep] != bodyChecks/3 {
			t.Errorf("%d checked %s requests, want %d", perEndpoint[ep], ep, bodyChecks/3)
		}
	}
}

func historyOf(t *testing.T, q loadgen.Request) []byte {
	var req serve.PredictRequest
	if err := json.Unmarshal(q.Body, &req); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(req.History)
	return b
}

// latePhase is a synthetic phase: every request succeeds instantly, and the
// first lateRuns runs hand their requests over late by late seconds.
func latePhase(lateRuns int, late float64) (phase, *int) {
	runs := 0
	return func(rate float64, n int, drop bool) ([]outcome, error) {
		runs++
		outs := make([]outcome, n)
		for i := range outs {
			outs[i] = outcome{due: float64(i) / rate, done: float64(i) / rate, status: http.StatusOK}
			if runs <= lateRuns {
				outs[i].late = late
			}
		}
		return outs, nil
	}, &runs
}

func TestSearchRerunsProbesWhileTheGeneratorIsLate(t *testing.T) {
	r := newReport()
	run, runs := latePhase(1, 0.08)
	s, err := searchPhase(run, r, 100, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	if s.reruns != 1 || r.failed != 0 || *runs != s.probes+1 {
		t.Errorf("one late run: %d reruns, %d failed, %d runs for %d probes", s.reruns, r.failed, *runs, s.probes)
	}
	if s.worstLate != 80 {
		t.Errorf("worst lateness %g ms, want 80", s.worstLate)
	}

	r = newReport()
	run, _ = latePhase(1<<30, 0.08)
	if _, err := searchPhase(run, r, 100, 1, 25); err != nil {
		t.Fatal(err)
	}
	if r.failed == 0 {
		t.Error("probes that stay late must count as failed operations")
	}
}

func TestSeriesNeedRejectsAbsentSeries(t *testing.T) {
	m := series{"chassis_a": 0}
	if v, err := m.need("chassis_a"); err != nil || v != 0 {
		t.Errorf("a present zero series: %g, %v", v, err)
	}
	if _, err := m.need("chassis_b"); err == nil {
		t.Error("an absent series must be an error, not a zero")
	}
	r := newReport()
	if err := serverLayers(r, m, "next"); err == nil {
		t.Error("serverLayers must fail when the endpoint's latency series is absent")
	}
}

// TestBenchmarkJSONMatchesTheProgram pins BENCHMARK.json to the metrics and
// workloads the program reports.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s (%s) in BENCHMARK.json, %s (%s) in the program", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestIdleDeclarationsNamePerLayerMetrics(t *testing.T) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
	}
	for _, w := range workloads {
		for name := range w.idle {
			if !known[name] {
				t.Errorf("%s declares %s idle, which is no per-layer metric", w.name, name)
			}
		}
		if len(w.idle) >= len(perLayer) {
			t.Errorf("%s declares every per-layer metric idle", w.name)
		}
	}
}
