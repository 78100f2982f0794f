// Command perfbench is the repository benchmark: one seeded command that
// runs one workload against the program built from the same tree, checks its
// outputs, and prints its metrics.
//
//	perfbench -serve-bin <chassis-serve> -work <dir> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// perfbench/run.sh builds both binaries and supplies the first two flags.
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics; with --trace 1 it carries the per-layer metrics
// instead, taken from spans the benchmark records around its calls into each
// layer and from the instruments the program exposes.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// metricDef names one metric the benchmark reports.
type metricDef struct{ name, unit string }

// endToEnd is the contract set every untraced run reports. Each workload
// fills every entry from its own work: setup_s and peak_rss_bytes as the
// workload defines them, p50_ms as the median duration of the workload's
// operation (one fit call, or one request timed from its scheduled send),
// and throughput_per_s as work completed per second (events fitted per
// second of fit, or the highest request rate meeting the latency limit).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_bytes", "bytes"},
	{"p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

// perLayer is the set every traced run reports. A layer the workload
// declares idle reads 0, with the reason printed above the result line; any
// other metric the run did not measure fails the run.
var perLayer = []metricDef{
	{"colstore.open_s", "s"},
	{"colstore.materialize_s", "s"},
	{"colstore.scan_polar_s", "s"},
	{"conformity.build_s", "s"},
	{"conformity.build_alloc_bytes", "bytes"},
	{"conformity.retained_bytes", "bytes"},
	{"branching.trees", "count"},
	{"branching.max_tree_events", "count"},
	{"core.mstep_s", "s"},
	{"core.mstep_calls", "count"},
	{"core.kernels_s", "s"},
	{"core.kernels_calls", "count"},
	{"core.estep_s", "s"},
	{"core.estep_calls", "count"},
	{"core.unattributed_s", "s"},
	{"core.fit_alloc_bytes", "bytes"},
	{"core.fit_gc_cycles", "count"},
	{"dataio.read_dataset_s", "s"},
	{"core.load_model_s", "s"},
	{"serve.decode_ms", "ms"},
	{"serve.histcache_hit_ratio", "ratio"},
	{"serve.handler_ms.next", "ms"},
	{"serve.handler_ms.counts", "ms"},
	{"serve.handler_ms.influence", "ms"},
	{"serve.handler_ms.ingest", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.rejected", "count"},
	{"hawkes.history_state_ms", "ms"},
	{"predict.next_ms", "ms"},
	{"predict.counts_ms", "ms"},
	{"predict.influence_ms", "ms"},
	{"predict.cascade_next_ms", "ms"},
	{"ingest.append_ms", "ms"},
	{"wal.durable_append_ms", "ms"},
	{"wal.fsyncs_per_append", "ratio"},
	{"wal.replay_s", "s"},
	{"wal.replayed_records", "count"},
	{"wal.bytes_per_event", "bytes"},
	{"driver.late_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// table lists the metrics the workload's own work defines, printed with
	// their sample counts above the result line.
	table []metricDef
	run   func(e *env, r *report) error
	// idle maps each per-layer metric the workload does not exercise to the
	// reason. A traced run that leaves any other per-layer metric unmeasured
	// fails, so a renamed or missing instrument cannot pass as an idle layer.
	idle map[string]string
}

// fitLayers and serveLayers are the per-layer metrics only a fit, or only a
// served workload, can measure.
var (
	fitLayers = []string{
		"colstore.open_s", "colstore.materialize_s", "colstore.scan_polar_s",
		"conformity.build_s", "conformity.build_alloc_bytes", "conformity.retained_bytes",
		"branching.trees", "branching.max_tree_events",
		"core.mstep_s", "core.mstep_calls", "core.kernels_s", "core.kernels_calls",
		"core.estep_s", "core.estep_calls", "core.unattributed_s", "core.fit_alloc_bytes", "core.fit_gc_cycles",
	}
	serveLayers = []string{
		"dataio.read_dataset_s", "core.load_model_s",
		"serve.decode_ms", "serve.histcache_hit_ratio",
		"serve.handler_ms.next", "serve.handler_ms.counts", "serve.handler_ms.influence", "serve.handler_ms.ingest",
		"serve.batch_mean", "serve.rejected", "hawkes.history_state_ms",
		"predict.next_ms", "predict.counts_ms", "predict.influence_ms", "predict.cascade_next_ms",
		"ingest.append_ms", "wal.durable_append_ms", "wal.fsyncs_per_append",
		"wal.replay_s", "wal.replayed_records", "wal.bytes_per_event", "driver.late_p99_ms",
	}
)

// idle is one reason a workload leaves some per-layer metrics unmeasured.
type idle struct {
	why   string
	names []string
}

func idleSet(groups ...idle) map[string]string {
	out := map[string]string{}
	for _, g := range groups {
		for _, n := range g.names {
			out[n] = g.why
		}
	}
	return out
}

var (
	noServer = idle{"a fit workload starts no server and sends no requests", serveLayers}
	noFit    = idle{"a serve workload runs no fit", fitLayers}
	// Serve spans come from in-process calls after the rate phases, so the
	// measured requests are untraced and there is no overhead to report; a
	// fit's overhead is its traced WithMetrics fit against the untraced one.
	untraced = idle{"serve spans are recorded in process after the rate phases; the measured requests carry no tracing", []string{"trace.overhead_pct"}}
)

var workloads = []workload{
	{"fit-chassis-sharded", []metricDef{{"setup_s", "s"}, {"fit_s", "s"}, {"peak_rss_bytes", "bytes"}}, runFitChassis,
		idleSet(noServer,
			idle{"the fixed-kernel sharded fit runs no kernel update", []string{"core.kernels_s", "core.kernels_calls"}},
			idle{"the sharded fit never materializes the corpus", []string{"colstore.materialize_s"}})},
	{"fit-lhp-inmem", []metricDef{{"setup_s", "s"}, {"fit_s", "s"}, {"peak_rss_bytes", "bytes"}}, runFitLHP,
		idleSet(noServer,
			idle{"the in-memory L-HP fit builds no conformity computer", []string{"colstore.scan_polar_s", "conformity.build_s", "conformity.build_alloc_bytes", "conformity.retained_bytes"}})},
	{"serve-read", []metricDef{{"setup_s", "s"}, {"peak_rss_bytes", "bytes"}, {"p50_ms", "ms"}, {"p99_ms", "ms"}, {"max_rps", "1/s"}}, runServeRead,
		idleSet(noFit, untraced,
			idle{"serve-read sends no ingest or cascade_id traffic", []string{"serve.handler_ms.ingest", "ingest.append_ms", "predict.cascade_next_ms"}},
			idle{"serve-read runs without a WAL", []string{"wal.durable_append_ms", "wal.fsyncs_per_append", "wal.replay_s", "wal.replayed_records", "wal.bytes_per_event"}})},
	{"serve-write", []metricDef{{"setup_s", "s"}, {"peak_rss_bytes", "bytes"}, {"p50_ms", "ms"}, {"p99_ms", "ms"}, {"max_rps", "1/s"}, {"recover_s", "s"}}, runServeWrite,
		idleSet(noFit, untraced,
			idle{"serve-write sends no inline-history reads", []string{"serve.decode_ms", "hawkes.history_state_ms", "predict.next_ms", "predict.counts_ms", "predict.influence_ms"}},
			idle{"serve-write's rate phases send no counts or influence requests", []string{"serve.handler_ms.counts", "serve.handler_ms.influence"}})},
}

// env is what a workload run is given.
type env struct {
	seed     int64
	seconds  float64
	traced   bool
	tr       *tracer // nil unless traced
	dir      string  // scratch directory of this run, removed at exit
	serveBin string
	self     string // this executable, for fresh fit processes
}

// report accumulates one run's metrics, notes and operation counts.
type report struct {
	values    map[string]float64
	samples   map[string]int
	notes     map[string]string
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, samples: map[string]int{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// zero records a per-layer metric the workload does not exercise.
func (r *report) zero(name, why string) {
	r.set(name, 0, 0)
	r.notes[name] = why
}

// fail counts one failed operation and keeps its description.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == childCmd {
		os.Exit(fitChild(os.Args[2:]))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement budget of one run, in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	serveBin := fs.String("serve-bin", "", "chassis-serve binary built from the tree under test")
	work := fs.String("work", "", "directory for the run's scratch files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || *serveBin == "" || *work == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need a known -workload, -seconds > 0, -trace 0|1, -serve-bin and -work (workloads: %s)\n", workloadNames())
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir := filepath.Join(*work, fmt.Sprintf("%s-%d-%d", wl.name, *seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	e := &env{seed: *seed, seconds: *seconds, traced: *trace == 1, dir: dir, serveBin: *serveBin, self: self}
	if e.traced {
		e.tr = newTracer()
	}
	r := newReport()
	if err := wl.run(e, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if e.traced {
		path := filepath.Join(*work, fmt.Sprintf("trace-%s-%d.json", wl.name, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("spans written to %s\n", path)
	}
	line, err := result(wl, r, e.traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	fmt.Println(line)
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// result prints the human-readable lines and returns the JSON result line.
// An untraced run first prints the metrics its workload's own work defines,
// then the contract set; a traced run prints the per-layer set, with the
// reason beside each layer the workload declares idle.
func result(wl *workload, r *report, traced bool) (string, error) {
	fmt.Printf("workload %s: %d operations attempted, %d failed\n", wl.name, r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Printf("  failed: %s\n", p)
	}
	if r.attempted < 1 {
		return "", errors.New("no operation was attempted")
	}
	set := perLayer
	if !traced {
		for _, m := range wl.table {
			if _, ok := r.values[m.name]; !ok {
				return "", fmt.Errorf("workload metric %s was not measured", m.name)
			}
			printMetric(r, m)
		}
		fmt.Println("  reported as:")
		set = endToEnd
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range set {
		v, ok := r.values[m.name]
		why, idle := wl.idle[m.name]
		switch {
		case !ok && !traced:
			return "", fmt.Errorf("end-to-end metric %s was not measured", m.name)
		case !ok && !idle:
			return "", fmt.Errorf("per-layer metric %s was not measured, and %s does not declare it idle", m.name, wl.name)
		case !ok:
			r.zero(m.name, why)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return "", fmt.Errorf("metric %s is not a finite number", m.name)
		}
		metrics[m.name] = value{v, m.unit}
		printMetric(r, m)
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics}
	b, err := json.Marshal(out)
	return string(b), err
}

func printMetric(r *report, m metricDef) {
	note := ""
	if why, ok := r.notes[m.name]; ok {
		note = "  (" + why + ")"
	}
	v := strconv.FormatFloat(r.values[m.name], 'g', 6, 64)
	fmt.Printf("  %-30s %14s %-5s samples=%d%s\n", m.name, v, m.unit, r.samples[m.name], note)
}
