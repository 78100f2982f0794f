// chassis-fit trains one strategy on a dataset produced by chassis-sim,
// reports training/held-out log-likelihoods and tree-inference quality, and
// optionally writes the fitted parameters as JSON.
//
// Usage:
//
//	chassis-fit -in sf.json -strategy CHASSIS-L -split 0.7 -em 10 -out model.json
//	chassis-fit -in sf.json -progress -metrics-json metrics.jsonl
//	chassis-fit -in sf.json -checkpoint-dir ckpt        # interrupt freely ...
//	chassis-fit -in sf.json -checkpoint-dir ckpt -resume  # ... and pick up here
//
// Ctrl-C cancels the fit cooperatively at the next parallel-chunk boundary;
// with -checkpoint-dir set, the last completed iteration is flushed to disk
// before the tool exits 130, and -resume continues from it bit-identically.
// -progress, -metrics-json, and -pprof surface the fit's observability layer
// (see README "Observability").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"chassis"
	"chassis/internal/cliobs"
	"chassis/internal/colstore"
	"chassis/internal/core"
	"chassis/internal/dataio"
	"chassis/internal/experiments"
	"chassis/internal/guard"
	"chassis/internal/obs"
)

// fitFlags collects the run parameters beyond the shared observability set.
type fitFlags struct {
	in, strategy  string
	dataFormat    string
	shardEvents   int
	split         float64
	em            int
	seed          int64
	workers       int
	out, savefull string
	ckptDir       string
	ckptEvery     int
	resume        bool
	repair        bool
	guard         bool
	expKernel     bool
	inferTrees    bool
}

func main() {
	var f fitFlags
	flag.StringVar(&f.in, "in", "", "input dataset (JSON or colstore from chassis-sim)")
	flag.StringVar(&f.dataFormat, "data-format", "json", "input format: json or colstore (binary columnar corpus)")
	flag.IntVar(&f.shardEvents, "shard-events", 0, "out-of-core fit: E-step shard size in events (0 = load the corpus in memory); requires -data-format colstore and a CHASSIS/HP -strategy, results are bit-identical at any setting")
	flag.StringVar(&f.strategy, "strategy", "CHASSIS-L", "strategy: "+strings.Join(experiments.AllStrategies, ", "))
	flag.Float64Var(&f.split, "split", 0.7, "training fraction (0 < f < 1, or exactly 1 to train on the whole dataset with no held-out evaluation)")
	flag.IntVar(&f.em, "em", 10, "EM iterations for the CHASSIS/HP family")
	flag.Int64Var(&f.seed, "seed", 42, "random seed")
	flag.IntVar(&f.workers, "workers", 0, "worker goroutines for the parallel fit (0 = all cores); results are identical at any setting")
	flag.StringVar(&f.out, "out", "", "optional output path for a model summary (JSON)")
	flag.StringVar(&f.savefull, "savefull", "", "optional output path for the full fitted model (CHASSIS/HP family only; reload with chassis.LoadModel)")
	flag.StringVar(&f.ckptDir, "checkpoint-dir", "", "directory for resumable fit checkpoints (CHASSIS/HP family); an interrupted fit can continue with -resume")
	flag.IntVar(&f.ckptEvery, "checkpoint-every", 1, "checkpoint stride in EM iterations")
	flag.BoolVar(&f.resume, "resume", false, "resume from the checkpoint in -checkpoint-dir (bit-identical to an uninterrupted fit)")
	flag.BoolVar(&f.repair, "repair", false, "auto-repair dirty input (sort, dedup, neutralize non-finite polarities) instead of rejecting it")
	flag.BoolVar(&f.guard, "guard", false, "enable numerical guardrails: roll back and retry with a smaller M-step on non-finite parameters, gradient explosions, or likelihood regressions")
	flag.BoolVar(&f.expKernel, "expkernel", false, "fit with a fixed parametric exponential triggering kernel instead of the nonparametric grid; the saved model then serves the exponential fast path (CHASSIS/HP family)")
	flag.BoolVar(&f.inferTrees, "infer-trees", false, "hide the dataset's connectivity from the fit, forcing diffusion-tree inference (the Table 1 setting; sharded fits always infer)")
	obsFlags := cliobs.Register(flag.CommandLine)
	version := cliobs.RegisterVersion(flag.CommandLine)
	flag.Parse()
	if cliobs.HandleVersion(os.Stdout, "chassis-fit", *version) {
		return
	}
	if f.in == "" {
		fmt.Fprintln(os.Stderr, "chassis-fit: -in is required")
		os.Exit(2)
	}
	if f.resume && f.ckptDir == "" {
		fmt.Fprintln(os.Stderr, "chassis-fit: -resume requires -checkpoint-dir")
		os.Exit(2)
	}
	if f.dataFormat != "json" && f.dataFormat != "colstore" {
		fmt.Fprintf(os.Stderr, "chassis-fit: unknown -data-format %q (want json or colstore)\n", f.dataFormat)
		os.Exit(2)
	}
	if f.shardEvents < 0 {
		fmt.Fprintln(os.Stderr, "chassis-fit: -shard-events must be >= 0")
		os.Exit(2)
	}
	if f.shardEvents > 0 && f.dataFormat != "colstore" {
		fmt.Fprintln(os.Stderr, "chassis-fit: -shard-events requires -data-format colstore (the out-of-core driver reads shards from the columnar file)")
		os.Exit(2)
	}
	sess, err := obsFlags.Start("chassis-fit")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chassis-fit:", err)
		os.Exit(1)
	}
	err = run(sess, f)
	sess.Close()
	if errors.Is(err, context.Canceled) && f.ckptDir != "" {
		fmt.Fprintf(os.Stderr, "chassis-fit: interrupted; checkpoint flushed to %s — rerun with -resume to continue\n", f.ckptDir)
	}
	os.Exit(cliobs.ExitCode(os.Stderr, "chassis-fit", err))
}

func run(sess *cliobs.Session, f fitFlags) error {
	if f.shardEvents > 0 {
		return runSharded(sess, f)
	}
	in, strategy, split, em, seed, workers := f.in, f.strategy, f.split, f.em, f.seed, f.workers
	out, savefull := f.out, f.savefull
	var ds *chassis.Dataset
	var err error
	if f.dataFormat == "colstore" {
		if f.repair {
			return errors.New("-repair applies to JSON input; colstore corpora are validated structurally on open")
		}
		ds, err = dataio.LoadDatasetColstore(in)
	} else {
		ds, err = cliobs.LoadDataset(in, f.repair)
	}
	if err != nil {
		return err
	}
	if f.ckptDir != "" {
		if err := os.MkdirAll(f.ckptDir, 0o755); err != nil {
			return err
		}
	}
	fmt.Printf("dataset %s: %d activities, %d users, horizon %.1f\n",
		ds.Name, ds.Seq.Len(), ds.Seq.M, ds.Seq.Horizon)
	// -split 1 trains on the whole dataset with no held-out evaluation — the
	// configuration whose fitted model is comparable (by fingerprint) with an
	// out-of-core -shard-events fit of the same corpus.
	train, test := ds.Seq, (*chassis.Sequence)(nil)
	if split != 1 {
		if train, test, err = ds.Seq.Split(split); err != nil {
			return err
		}
	}
	s, err := experiments.NewStrategy(strategy, experiments.FitOptions{
		EMIters: em, Workers: workers, InferTrees: f.inferTrees,
		Observer: sess.Observer, Metrics: sess.Metrics,
		CheckpointDir: f.ckptDir, CheckpointEvery: f.ckptEvery, Resume: f.resume,
		Guard: guard.Policy{Enabled: f.guard}, ExpKernel: f.expKernel,
	})
	if err != nil {
		return err
	}
	if err := s.Fit(sess.Ctx, train, seed); err != nil {
		return err
	}
	if n := sess.Snapshots(); n > 0 {
		fmt.Printf("wrote %d iteration snapshots\n", n)
	}
	if mp, ok := s.(experiments.ModelProvider); ok {
		// The same digest FitSharded prints: the end-to-end identity check in
		// CI diffs this line against the out-of-core fit's.
		fmt.Printf("%s: fitted %s\n", strategy, mp.Model().Fingerprint())
	}
	var held float64
	if test != nil {
		if held, err = s.HeldOut(test); err != nil {
			return err
		}
		fmt.Printf("%s: held-out LL = %.2f over %d test activities\n", strategy, held, test.Len())
	}

	if len(ds.Influence) > 0 {
		inf, err := s.Influence()
		if err != nil {
			return err
		}
		tau, err := chassis.RankCorr(ds.Influence, inf)
		if err != nil {
			return err
		}
		fmt.Printf("%s: RankCorr vs ground truth = %.4f\n", strategy, tau)
	}

	truth, err := chassis.GroundTruthForest(ds.Seq)
	if err == nil && truth.NumTrees() < truth.Len() {
		forest, err := s.InferForest(ds.Seq.StripParents())
		if err != nil {
			return err
		}
		score, err := chassis.CompareForests(forest, truth)
		if err != nil {
			return err
		}
		fmt.Printf("%s: diffusion-tree F1 = %.4f (%d/%d parents recovered)\n",
			strategy, score.F1, score.Correct, score.Total)
	}

	if savefull != "" {
		mp, ok := s.(experiments.ModelProvider)
		if !ok {
			return fmt.Errorf("-savefull supports the CHASSIS/HP family, not %s", strategy)
		}
		f, err := os.Create(savefull)
		if err != nil {
			return err
		}
		if err := mp.Model().Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote full model -> %s\n", savefull)
	}

	if out != "" {
		inf, err := s.Influence()
		if err != nil {
			return err
		}
		summary := &dataio.ModelSummary{
			Strategy: strategy, Dataset: ds.Name, M: ds.Seq.M,
			Influence: inf, LogLike: held, Iterations: em,
		}
		if err := dataio.SaveModel(out, summary); err != nil {
			return err
		}
		fmt.Printf("wrote model -> %s\n", out)
	}
	return nil
}

// runSharded is the out-of-core path: the corpus stays on disk and the
// E-step walks it shard-by-shard, so peak memory is bounded by the shard
// size rather than the corpus. Every CHASSIS/HP strategy — linear or
// nonlinear link, with or without conformity — fits this way (fixed or
// parametric-exponential kernel), bit-identical to the in-memory fit at any
// -workers/-shard-events setting. core.FitSharded is the only gate: a
// feature it cannot run out of core, such as -guard, fails with its typed
// *core.ShardedUnsupportedError. There is no train/test split — the whole
// corpus is training data and held-out evaluation needs an in-memory
// sequence — so the tool reports the model fingerprint and peak RSS instead
// of likelihoods.
func runSharded(sess *cliobs.Session, f fitFlags) error {
	variant, err := core.VariantByName(f.strategy)
	if err != nil {
		return fmt.Errorf("sharded fits support the CHASSIS/HP strategies: %w", err)
	}
	if f.repair {
		return errors.New("-repair applies to JSON input; colstore corpora are validated structurally on open")
	}
	rd, err := colstore.Open(f.in)
	if err != nil {
		return err
	}
	defer rd.Close()
	fmt.Printf("corpus %s: %d activities, %d users, horizon %.1f, %d blocks (%s)\n",
		rd.Meta().Name, rd.NumEvents(), rd.M(), rd.Horizon(), rd.NumBlocks(), rd.Fingerprint())
	if f.ckptDir != "" {
		if err := os.MkdirAll(f.ckptDir, 0o755); err != nil {
			return err
		}
	}
	cfg := core.Config{
		Variant: variant, EMIters: f.em, Seed: f.seed, Workers: f.workers,
		ShardEvents: f.shardEvents, FixedKernel: true, ExpKernel: f.expKernel,
		CheckpointDir: f.ckptDir, CheckpointEvery: f.ckptEvery, Resume: f.resume,
		Guard: guard.Policy{Enabled: f.guard},
	}
	var opts []core.Option
	if sess.Observer != nil {
		opts = append(opts, core.WithObserver(sess.Observer))
	}
	if sess.Metrics != nil {
		opts = append(opts, core.WithMetrics(sess.Metrics))
	}
	m, err := core.FitSharded(sess.Ctx, rd, cfg, opts...)
	if err != nil {
		return err
	}
	if n := sess.Snapshots(); n > 0 {
		fmt.Printf("wrote %d iteration snapshots\n", n)
	}
	fmt.Printf("%s sharded (shard-events %d): %d EM iterations, %s\n",
		f.strategy, f.shardEvents, m.Iterations, m.Fingerprint())
	if peak, ok := obs.PeakRSSBytes(); ok {
		fmt.Printf("peak RSS: %.1f MiB\n", float64(peak)/(1<<20))
	}
	if f.savefull != "" {
		out, err := os.Create(f.savefull)
		if err != nil {
			return err
		}
		if err := m.Save(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote full model -> %s\n", f.savefull)
	}
	if f.out != "" {
		summary := &dataio.ModelSummary{
			Strategy: f.strategy, Dataset: rd.Meta().Name, M: rd.M(),
			Mu: m.Mu, Iterations: m.Iterations,
			// The effective influence of a conformity variant averages
			// time-varying excitation over the training events, an
			// in-memory quantity, so a sharded fit has it only for the HP
			// baselines; -savefull keeps the full parameters either way.
			Influence: m.EstimatedInfluence(),
		}
		if err := dataio.SaveModel(f.out, summary); err != nil {
			return err
		}
		fmt.Printf("wrote model -> %s\n", f.out)
	}
	return nil
}
