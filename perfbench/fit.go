package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"chassis/internal/cascade"
	"chassis/internal/colstore"
	"chassis/internal/conformity"
	"chassis/internal/core"
	"chassis/internal/obs"
	"chassis/internal/timeline"
)

// fitSpec sizes one fit workload. Both fits use the SF-100K generator rebased
// to users users over horizon; only the horizon, the fit entry point and the
// variant differ.
type fitSpec struct {
	workload string
	users    int
	horizon  float64
	sharded  bool
	cfg      core.Config
}

// secondsPerCorpus sets how many corpora a run fits: one per this many
// seconds of --seconds. Each corpus is drawn from the run's seed and fitted
// in a fresh process, and the run reports medians across them, so one
// unusually deep diffusion forest moves a run's figures less.
const secondsPerCorpus = 4

// chassisSpec: CHASSIS-L through out-of-core core.FitSharded with chassis-fit's
// sharded defaults (fixed kernel, automatic support). Shards of 1,024 events
// split each ~3,600-event corpus into several shards. 600 users keep one fit
// near 2.5 s and its peak near 0.3 GB: the conformity pair store grows faster
// than the corpus, so SF-100K's 2,000 users would peak at several GB.
var chassisSpec = fitSpec{
	workload: "fit-chassis-sharded", users: 600, horizon: 1500, sharded: true,
	cfg: core.Config{Variant: core.VariantL, EMIters: 3, FixedKernel: true, ShardEvents: 1024},
}

// lhpSpec: L-HP in memory with nonparametric kernel updates on SF-100K's
// 2,000 users over a 1.5 times longer horizon (~18k events), so the M-step
// and the spectral kernel pass do the work. One fit takes about 3 s.
var lhpSpec = fitSpec{
	workload: "fit-lhp-inmem", users: 2000, horizon: 2250,
	cfg: core.Config{Variant: core.VariantLHP, EMIters: 4},
}

func runFitChassis(e *env, r *report) error { return runFit(e, r, chassisSpec) }
func runFitLHP(e *env, r *report) error     { return runFit(e, r, lhpSpec) }

// setupReps is how many times each fit process repeats its set-up; the run
// reports the median over all of them.
const setupReps = 41

// writeFitCorpus streams one corpus into a colstore file. The stream must
// drain on its own: a corpus cut by MaxEvents would keep the preset horizon
// while its events stop early, which collapses μ and fuses the fitted forest
// into a few huge trees.
func writeFitCorpus(path string, spec fitSpec, seed int64) error {
	cfg := cascade.PaperScale(seed)
	cfg.Name = spec.workload
	cfg.M = spec.users
	cfg.Horizon = spec.horizon
	cfg.MaxEvents = 1 << 30
	w, err := colstore.Create(path, colstore.Meta{Name: cfg.Name, M: cfg.M, Horizon: cfg.Horizon})
	if err != nil {
		return err
	}
	last := 0.0
	stats, err := cascade.GenerateStream(cfg, 8192, func(batch []timeline.Activity) error {
		last = batch[len(batch)-1].Time
		return w.Append(batch)
	})
	if err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if stats.Truncated {
		return fmt.Errorf("corpus seed %d: the stream was truncated at %d events", seed, stats.Events)
	}
	if last < 0.99*cfg.Horizon {
		return fmt.Errorf("corpus seed %d: events end at t=%g, short of the horizon %g", seed, last, cfg.Horizon)
	}
	return nil
}

// childReport is what one fit process prints.
type childReport struct {
	SetupS      []float64          `json:"setup_s"`
	FitS        float64            `json:"fit_s"`
	PeakRSS     float64            `json:"peak_rss_bytes"`
	Events      int                `json:"events"`
	Fingerprint string             `json:"fingerprint"`
	Layers      map[string]float64 `json:"layers,omitempty"`
	Spans       []span             `json:"spans,omitempty"`
}

//go:embed fingerprints.json
var fingerprintsJSON []byte

// storedFingerprint returns the model fingerprint recorded for a workload's
// corpus seed, if any.
func storedFingerprint(workload string, seed int64) (string, bool) {
	var table map[string]map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &table); err != nil {
		return "", false
	}
	fp, ok := table[workload][strconv.FormatInt(seed, 10)]
	return fp, ok
}

func runFit(e *env, r *report, spec fitSpec) error {
	corpora := int(e.seconds / secondsPerCorpus)
	switch {
	case e.traced:
		corpora = 1 // one untraced and one traced fit of the same corpus
	case corpora < 1:
		corpora = 1
	}
	var setup, fitS, rss []float64
	var events, total float64
	for k := 0; k < corpora; k++ {
		seed := e.seed*100 + int64(k)
		path := filepath.Join(e.dir, fmt.Sprintf("corpus-%d.col", k))
		if err := writeFitCorpus(path, spec, seed); err != nil {
			return err
		}
		rep, err := fitProcess(e, spec, path, seed, false)
		if err != nil {
			return err
		}
		r.attempted++
		checkFingerprint(r, spec.workload, seed, rep.Fingerprint)
		setup = append(setup, rep.SetupS...)
		fitS = append(fitS, rep.FitS)
		rss = append(rss, rep.PeakRSS)
		events += float64(rep.Events)
		total += rep.FitS
		if e.traced {
			start := time.Since(e.tr.t0).Seconds()
			tr, err := fitProcess(e, spec, path, seed, true)
			if err != nil {
				return err
			}
			r.attempted++
			if tr.Fingerprint != rep.Fingerprint {
				r.fail("corpus seed %d: the traced fit's fingerprint %s differs from the untraced %s", seed, tr.Fingerprint, rep.Fingerprint)
			}
			e.tr.add(tr.Spans, start)
			for name, v := range tr.Layers {
				r.set(name, v, 1)
			}
			r.set("trace.overhead_pct", 100*(tr.FitS-rep.FitS)/rep.FitS, 1)
		}
	}
	n := len(fitS)
	r.set("setup_s", median(setup), len(setup))
	r.set("fit_s", median(fitS), n)
	r.set("p50_ms", 1000*median(fitS), n)
	// A fit process's peak lands on one of a few levels, depending on where
	// the collector runs relative to the largest allocations, and a rare
	// corpus peaks far above the rest. The trimmed mean over the run's
	// processes moves smoothly where a median would jump between levels, and
	// one outlier does not drag it.
	r.set("peak_rss_bytes", trimmedMean(rss), n)
	r.set("throughput_per_s", events/total, n)
	return nil
}

func checkFingerprint(r *report, workload string, seed int64, got string) {
	want, ok := storedFingerprint(workload, seed)
	switch {
	case !ok:
		fmt.Printf("no stored fingerprint for %s corpus seed %d: %s\n", workload, seed, got)
	case want != got:
		r.fail("corpus seed %d: model fingerprint %s, stored %s", seed, got, want)
	}
}

// fitProcess runs one fit in a fresh process, so its peak RSS is its own.
func fitProcess(e *env, spec fitSpec, corpus string, seed int64, traced bool) (*childReport, error) {
	args := []string{childCmd, "-workload", spec.workload, "-corpus", corpus, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(e.self, args...)
	dieWithParent(cmd)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("fit process for corpus seed %d: %w", seed, err)
	}
	var rep childReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("fit process for corpus seed %d: %w", seed, err)
	}
	return &rep, nil
}

const childCmd = "fit-child"

// fitChild is the body of one fit process: repeated set-up, one fit, and,
// when traced, the per-layer measurements of that fit.
func fitChild(args []string) int {
	fs := flag.NewFlagSet(childCmd, flag.ContinueOnError)
	name := fs.String("workload", "", "fit workload")
	corpus := fs.String("corpus", "", "colstore corpus")
	seed := fs.Int64("seed", 0, "fit seed")
	traced := fs.Bool("trace", false, "measure the layers too")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec fitSpec
	switch *name {
	case chassisSpec.workload:
		spec = chassisSpec
	case lhpSpec.workload:
		spec = lhpSpec
	default:
		fmt.Fprintf(os.Stderr, "perfbench %s: unknown fit workload %q\n", childCmd, *name)
		return 2
	}
	rep, err := fitOnce(spec, *corpus, *seed, *traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", childCmd, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", childCmd, err)
		return 1
	}
	return 0
}

func fitOnce(spec fitSpec, corpus string, seed int64, traced bool) (*childReport, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	rep := &childReport{}
	layers := map[string]float64{}

	// Set-up: colstore.Open for the sharded fit, Open plus Reader.Sequence
	// for the in-memory one. The last repetition's reader feeds the fit.
	var rd *colstore.Reader
	var seq *timeline.Sequence
	for i := 0; i < setupReps; i++ {
		if rd != nil {
			rd.Close()
		}
		start := time.Now()
		setup := tr.begin("setup", 0, 0)
		var err error
		tr.do("colstore.open", setup, func() { rd, err = colstore.Open(corpus) })
		if err == nil && !spec.sharded {
			tr.do("colstore.materialize", setup, func() { seq, err = rd.Sequence() })
		}
		tr.end(setup)
		if err != nil {
			return nil, err
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
	}
	defer rd.Close()
	rep.Events = rd.NumEvents()

	cfg := spec.cfg
	cfg.Seed = seed
	var opts []core.Option
	var reg *obs.Metrics
	if traced {
		reg = obs.NewMetrics()
		opts = append(opts, core.WithMetrics(reg))
	}
	var before runtime.MemStats
	if traced {
		runtime.ReadMemStats(&before)
	}
	var m *core.Model
	var err error
	start := time.Now()
	fitID := tr.begin("core.fit", 0, 0)
	if spec.sharded {
		m, err = core.FitSharded(context.Background(), rd, cfg, opts...)
	} else {
		m, err = core.FitContext(context.Background(), seq, cfg, opts...)
	}
	tr.end(fitID)
	rep.FitS = time.Since(start).Seconds()
	if err != nil {
		return nil, err
	}
	peak, ok := obs.PeakRSSBytes()
	if !ok {
		return nil, errors.New("this platform reports no peak resident set size")
	}
	rep.PeakRSS = float64(peak)
	rep.Fingerprint = m.Fingerprint()
	if !traced {
		return rep, nil
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	layers["core.fit_alloc_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
	layers["core.fit_gc_cycles"] = float64(after.NumGC - before.NumGC)
	// A phase the fit never ran has no timer; its metrics stay unmeasured,
	// which fails the run unless the workload declares that layer idle.
	timers := reg.Snapshot().Timers
	attributed := 0.0
	for _, ph := range []string{"mstep", "kernels", "estep"} {
		t, ok := timers["core."+ph]
		if !ok {
			continue
		}
		layers["core."+ph+"_s"] = t.Seconds
		layers["core."+ph+"_calls"] = float64(t.Count)
		attributed += t.Seconds
	}
	layers["core.unattributed_s"] = rep.FitS - attributed

	spans := tr.snapshot()
	layers["colstore.open_s"] = median(layerTimes(spans, "colstore.open"))
	st := m.Forest.Summarize()
	layers["branching.trees"] = float64(st.Trees)
	layers["branching.max_tree_events"] = float64(st.LargestTreeSize)

	if spec.sharded {
		if err := measureConformity(tr, rd, m, layers); err != nil {
			return nil, err
		}
	} else {
		layers["colstore.materialize_s"] = median(layerTimes(spans, "colstore.materialize"))
	}
	rep.Layers, rep.Spans = layers, tr.snapshot()
	return rep, nil
}

// measureConformity repeats, once, what the sharded fit does per conformity
// build: one ScanPolar pass over the corpus, timed on its own into three
// columns, then NewAccumulator+Append+Finalize on the fitted forest. It
// measures the scan, the build, what the build allocates and what the
// computer keeps live.
func measureConformity(tr *tracer, rd *colstore.Reader, m *core.Model, layers map[string]float64) error {
	n := rd.NumEvents()
	times := make([]float64, 0, n)
	users := make([]int, 0, n)
	polar := make([]float64, 0, n)
	var err error
	tr.do("colstore.scan_polar", 0, func() {
		err = rd.ScanPolar(0, n, func(_ int, t float64, u int, p float64) {
			times = append(times, t)
			users = append(users, u)
			polar = append(polar, p)
		})
	})
	if err != nil {
		return err
	}
	layers["colstore.scan_polar_s"] = median(layerTimes(tr.snapshot(), "colstore.scan_polar"))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var comp *conformity.Computer
	tr.do("conformity.build", 0, func() {
		acc := conformity.NewAccumulator(m.M, conformity.Options{})
		for i := range times {
			if err = acc.Append(times[i], users[i], polar[i]); err != nil {
				return
			}
		}
		comp, err = acc.Finalize(m.Forest)
	})
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	layers["conformity.build_s"] = median(layerTimes(tr.snapshot(), "conformity.build"))
	layers["conformity.build_alloc_bytes"] = float64(after.TotalAlloc - before.TotalAlloc)
	runtime.GC()
	runtime.ReadMemStats(&after)
	layers["conformity.retained_bytes"] = float64(after.HeapAlloc) - float64(before.HeapAlloc)
	// Everything live at the first reading must still be live at the second,
	// so the difference is the computer alone.
	runtime.KeepAlive(comp)
	runtime.KeepAlive(m)
	runtime.KeepAlive(times)
	runtime.KeepAlive(users)
	runtime.KeepAlive(polar)
	return nil
}
