package core

import (
	"math"
	"testing"

	"chassis/internal/timeline"
)

func TestUseObservedTreesKeepsForest(t *testing.T) {
	d := smallDataset(t, 51)
	cfg := quickCfg(VariantL)
	cfg.UseObservedTrees = true
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The model's forest must be exactly the dataset's parent assignment.
	for k, a := range d.Seq.Activities {
		if m.Forest.Parent(k) != a.Parent {
			t.Fatalf("observed forest altered at %d: %v vs %v", k, m.Forest.Parent(k), a.Parent)
		}
	}
	if m.Conf == nil {
		t.Fatal("conformity computer missing")
	}
}

func TestObservedTreesBeatInferredOnTrainLL(t *testing.T) {
	d := smallDataset(t, 52)
	obs := quickCfg(VariantL)
	obs.UseObservedTrees = true
	mObs, err := Fit(d.Seq, obs)
	if err != nil {
		t.Fatal(err)
	}
	inf := quickCfg(VariantL)
	mInf, err := Fit(d.Seq, inf)
	if err != nil {
		t.Fatal(err)
	}
	llObs, err := mObs.TrainLogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	llInf, err := mInf.TrainLogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	// True trees give conformity real signal; allow a little slack for the
	// stochastic inferred path but the observed fit should not lose badly.
	if llObs < llInf-0.05*math.Abs(llInf) {
		t.Errorf("observed-tree fit LL %.1f far below inferred %.1f", llObs, llInf)
	}
}

func TestSupportHeuristic(t *testing.T) {
	// Uniform stream: q80 ≈ median, support ≈ 20×median.
	s := &timeline.Sequence{M: 1, Horizon: 1000}
	for i := 0; i < 100; i++ {
		s.Activities = append(s.Activities, timeline.Activity{
			ID: timeline.ActivityID(i), Time: float64(i) * 1.0, Parent: timeline.NoParent,
		})
	}
	got := supportHeuristic(seqColumns(s))
	if got < 15 || got > 30 {
		t.Errorf("uniform-stream support = %g, want ~20", got)
	}
	// Bursty stream: clusters of gap 0.1 separated by gap 50 — the q80
	// term must keep the support well above 20×median(=2).
	b := &timeline.Sequence{M: 1, Horizon: 5000}
	tm := 0.0
	id := 0
	for c := 0; c < 30; c++ {
		for k := 0; k < 3; k++ {
			b.Activities = append(b.Activities, timeline.Activity{
				ID: timeline.ActivityID(id), Time: tm, Parent: timeline.NoParent,
			})
			id++
			tm += 0.1
		}
		tm += 50
	}
	got = supportHeuristic(seqColumns(b))
	if got <= 2.1 {
		t.Errorf("bursty-stream support = %g, must exceed the intra-burst scale", got)
	}
	// Degenerate inputs fall back to Horizon/10.
	empty := &timeline.Sequence{M: 1, Horizon: 100}
	if got := supportHeuristic(seqColumns(empty)); got != 10 {
		t.Errorf("empty-stream support = %g, want horizon/10", got)
	}
}

func TestForestSources(t *testing.T) {
	d := smallDataset(t, 53)
	forest, err := Fit(d.Seq, func() Config {
		c := quickCfg(VariantL)
		c.UseObservedTrees = true
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	// Every user with an offspring activity must list its true parent user
	// among sources (unless crowded out by stronger pairs, which cannot
	// happen below the cap).
	counts := map[int]map[int]int{}
	for _, a := range d.Seq.Activities {
		if a.Parent == timeline.NoParent {
			continue
		}
		j := int(d.Seq.Activities[a.Parent].User)
		i := int(a.User)
		if i == j {
			continue
		}
		if counts[i] == nil {
			counts[i] = map[int]int{}
		}
		counts[i][j]++
	}
	srcSet := make([]map[int]bool, d.Seq.M)
	for i, js := range forest.params.sourceLists() {
		srcSet[i] = map[int]bool{}
		for _, j := range js {
			srcSet[i][j] = true
		}
	}
	for i, js := range counts {
		if len(js) > MaxSourcesPerDim {
			continue
		}
		for j := range js {
			if !srcSet[i][j] {
				t.Errorf("receiver %d missing true source %d", i, j)
			}
		}
	}
}

func TestHeldOutObservedTrees(t *testing.T) {
	d := smallDataset(t, 54)
	train, test, err := d.Seq.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(VariantL)
	cfg.UseObservedTrees = true
	m, err := Fit(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := m.HeldOutLogLikelihood(test)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) || math.IsInf(ll, 0) || ll >= 0 {
		t.Errorf("held-out LL = %g", ll)
	}
	if _, err := m.HeldOutLogLikelihood(&timeline.Sequence{M: 99, Horizon: 1}); err == nil {
		t.Error("dimension mismatch must fail")
	}
}
