// chassis-predict demonstrates the behaviour-prediction applications of a
// fitted CHASSIS model: next-activity forecasting and per-user future
// counts, evaluated against the held-out continuation of a dataset.
//
// Usage:
//
//	chassis-predict -in sf.json -variant CHASSIS-L -split 0.8 -draws 150
//
// Ctrl-C cancels the fit and the Monte-Carlo loops cooperatively;
// -progress, -metrics-json, and -pprof surface the fit's observability
// layer (see README "Observability").
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"chassis"
	"chassis/internal/cliobs"
	"chassis/internal/core"
)

func main() {
	var (
		in       = flag.String("in", "", "input dataset (JSON from chassis-sim)")
		variant  = flag.String("variant", "CHASSIS-L", "model variant: CHASSIS-L, CHASSIS-E, L-HP, E-HP")
		split    = flag.Float64("split", 0.8, "training fraction")
		em       = flag.Int("em", 8, "EM iterations")
		draws    = flag.Int("draws", 150, "Monte-Carlo futures per prediction")
		steps    = flag.Int("steps", 10, "next-actor predictions to score")
		seed     = flag.Int64("seed", 42, "random seed")
		workers  = flag.Int("workers", 0, "worker goroutines for the fit and the Monte-Carlo draws (0 = all cores); results are identical at any setting")
		repair   = flag.Bool("repair", false, "auto-repair dirty input (sort, dedup, neutralize non-finite polarities) instead of rejecting it")
		jsonOut  = flag.Bool("json", false, "emit the forecasts as JSON lines on stdout (the exact bytes the chassis-serve API returns) instead of the human report")
		infl     = flag.Bool("influence", false, "score per-user influence over the training history (posterior parent attribution) instead of forecasting")
		obsFlags = cliobs.Register(flag.CommandLine)
		version  = cliobs.RegisterVersion(flag.CommandLine)
	)
	flag.Parse()
	if cliobs.HandleVersion(os.Stdout, "chassis-predict", *version) {
		return
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "chassis-predict: -in is required")
		os.Exit(2)
	}
	sess, err := obsFlags.Start("chassis-predict")
	if err != nil {
		fmt.Fprintln(os.Stderr, "chassis-predict:", err)
		os.Exit(1)
	}
	err = run(sess, *in, *variant, *split, *em, *draws, *steps, *seed, *workers, *repair, *jsonOut, *infl)
	sess.Close()
	os.Exit(cliobs.ExitCode(os.Stderr, "chassis-predict", err))
}

func run(sess *cliobs.Session, in, variant string, split float64, em, draws, steps int, seed int64, workers int, repair, jsonOut, infl bool) error {
	ds, err := cliobs.LoadDataset(in, repair)
	if err != nil {
		return err
	}
	v, err := core.VariantByName(variant)
	if err != nil {
		return err
	}
	train, test, err := ds.Seq.Split(split)
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Printf("dataset %s: training on %d activities, forecasting %d\n", ds.Name, train.Len(), test.Len())
	}
	var fitOpts []chassis.FitOption
	if sess.Observer != nil {
		fitOpts = append(fitOpts, chassis.Observe(sess.Observer))
	}
	if sess.Metrics != nil {
		fitOpts = append(fitOpts, chassis.ObserveMetrics(sess.Metrics))
	}
	m, err := chassis.FitContext(sess.Ctx, train, chassis.FitConfig{
		Variant: v, EMIters: em, Seed: seed, Workers: workers,
		UseObservedTrees: true, // chassis-sim corpora expose reply links
	}, fitOpts...)
	if err != nil {
		return err
	}

	if infl {
		return runInfluence(sess, m, train, workers, jsonOut)
	}

	next, err := chassis.Predict(m, train, chassis.PredictOptions{
		Lookahead: (ds.Seq.Horizon-train.Horizon)/2 + 1,
		Draws:     draws, Seed: seed, Workers: workers, Ctx: sess.Ctx,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		// Machine mode: exactly two JSON lines on stdout (next, then
		// counts), encoded through the shared wire schema so the bytes match
		// what the chassis-serve API returns for the same model and seed.
		blob, err := chassis.EncodeNextJSON(next)
		if err != nil {
			return err
		}
		os.Stdout.Write(blob) //nolint:errcheck
		fc, err := chassis.Forecast(m, train, chassis.PredictOptions{
			Window: ds.Seq.Horizon - train.Horizon, Draws: draws,
			Seed: seed + 1, Workers: workers, Ctx: sess.Ctx,
		})
		if err != nil {
			return err
		}
		if blob, err = chassis.EncodeCountsJSON(fc); err != nil {
			return err
		}
		os.Stdout.Write(blob) //nolint:errcheck
		return nil
	}
	if next.Draws == 0 {
		fmt.Println("next activity: model predicts a quiet window")
	} else {
		fmt.Printf("next activity: user U%d at t≈%.2f (P=%.2f over %d futures)\n",
			next.User, next.ExpectedTime, next.Probability, next.Draws)
		actual := test.Activities[0]
		fmt.Printf("actually:      user U%d at t=%.2f\n", actual.User, actual.Time)
	}

	window := ds.Seq.Horizon - train.Horizon
	fc, err := chassis.Forecast(m, train, chassis.PredictOptions{
		Window: window, Draws: draws, Seed: seed + 1, Workers: workers, Ctx: sess.Ctx,
	})
	if err != nil {
		return err
	}
	actualCounts := make([]float64, ds.Seq.M)
	for _, a := range test.Activities {
		actualCounts[a.User]++
	}
	type row struct {
		user int
		pred float64
	}
	rows := make([]row, ds.Seq.M)
	for i := range rows {
		rows[i] = row{i, fc.PerUser[i]}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].pred > rows[b].pred })
	fmt.Printf("\nfuture-count forecast over window %.1f (top 5 users):\n", window)
	fmt.Printf("%6s%12s%12s\n", "user", "predicted", "actual")
	for _, r := range rows[:min(5, len(rows))] {
		fmt.Printf("%6d%12.1f%12.0f\n", r.user, r.pred, actualCounts[r.user])
	}
	var totActual float64
	for _, c := range actualCounts {
		totActual += c
	}
	fmt.Printf("total: predicted %.1f vs actual %.0f\n", fc.Total, totActual)

	acc, n, err := chassis.EvaluatePrediction(m, train, test, chassis.PredictOptions{
		Steps: steps, Draws: draws / 2, Seed: seed + 2, Workers: workers, Ctx: sess.Ctx,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nnext-actor accuracy: %.0f%% over %d sequential predictions\n", acc*100, n)
	return nil
}

// runInfluence scores per-user influence over the training history. In
// -json mode the output is one JSON line through the shared wire schema —
// byte-identical to what the chassis-serve /v1/influence endpoint returns
// for the same model and history.
func runInfluence(sess *cliobs.Session, m *chassis.Model, train *chassis.Sequence, workers int, jsonOut bool) error {
	scores, err := chassis.Influence(m, train, chassis.PredictOptions{
		Workers: workers, Ctx: sess.Ctx,
	})
	if err != nil {
		return err
	}
	if jsonOut {
		blob, err := chassis.EncodeInfluenceJSON(scores)
		if err != nil {
			return err
		}
		os.Stdout.Write(blob) //nolint:errcheck
		return nil
	}
	type row struct {
		user  int
		score float64
	}
	rows := make([]row, len(scores.PerUser))
	for i, s := range scores.PerUser {
		rows[i] = row{i, s}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].score > rows[b].score })
	fmt.Printf("influence over %d observed events (top 10 users):\n", scores.Events)
	fmt.Printf("%6s%12s\n", "user", "influence")
	for _, r := range rows[:min(10, len(rows))] {
		fmt.Printf("%6d%12.2f\n", r.user, r.score)
	}
	fmt.Printf("triggered total: %.1f, immigrant mass: %.1f (of %d events)\n",
		scores.Total(), scores.Immigrants, scores.Events)
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
