package core

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"chassis/internal/branching"
	"chassis/internal/cascade"
	"chassis/internal/conformity"
	"chassis/internal/hawkes"
	"chassis/internal/infer"
	"chassis/internal/kernel"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

func TestVariantNames(t *testing.T) {
	cases := []struct {
		v    Variant
		want string
	}{
		{VariantL, "CHASSIS-L"}, {VariantE, "CHASSIS-E"},
		{VariantLI, "CHASSIS-LI"}, {VariantLN, "CHASSIS-LN"},
		{VariantEI, "CHASSIS-EI"}, {VariantEN, "CHASSIS-EN"},
		{VariantLHP, "L-HP"}, {VariantEHP, "E-HP"},
	}
	for _, c := range cases {
		if got := c.v.Name(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
		if got, err := VariantByName(c.want); err != nil || got != c.v {
			t.Errorf("VariantByName(%q) = %+v, %v; want %+v", c.want, got, err, c.v)
		}
	}
	for _, name := range []string{"", "ADM4", "chassis-l", "CHASSIS-X"} {
		if _, err := VariantByName(name); err == nil {
			t.Errorf("VariantByName(%q) must fail", name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Config{Variant: Variant{LinkName: "bogus"}}
	if _, err := Fit(&timeline.Sequence{M: 1, Horizon: 1}, bad); err == nil {
		t.Error("bogus link must fail")
	}
	badV := Config{Variant: Variant{LinkName: "linear", ConformityAware: true}}
	if _, err := Fit(&timeline.Sequence{M: 1, Horizon: 1}, badV); err == nil {
		t.Error("conformity-aware with no flavor must fail")
	}
	if _, err := Fit(nil, Config{Variant: VariantLHP}); err == nil {
		t.Error("nil sequence must fail")
	}
	if _, err := Fit(&timeline.Sequence{M: 1, Horizon: 1}, Config{Variant: VariantLHP}); err == nil {
		t.Error("empty sequence must fail")
	}
}

// smallDataset generates a compact conformity-aware corpus for fit tests.
func smallDataset(t testing.TB, seed int64) *cascade.Dataset {
	t.Helper()
	d, err := cascade.Generate(cascade.Config{
		Name: "unit", M: 12, Horizon: 900, Seed: seed,
		Graph: cascade.BarabasiAlbert, GraphDegree: 2, Reciprocity: 0.5,
		Topics: 2, BaseRateLo: 0.01, BaseRateHi: 0.03,
		KernelRate: 0.8, TargetBranching: 0.55,
		ConformityWeight: 0.7, PolarityNoise: 0.15, LikeFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func quickCfg(v Variant) Config {
	return Config{
		Variant: v, EMIters: 4, MStepIters: 12,
		IntegrationGrid: 64, Seed: 9,
	}
}

// buildModelForGradCheck fits nothing: it constructs a model with random
// parameters and real precomputed structures so the analytic gradient can
// be checked in isolation.
func buildModelForGradCheck(t *testing.T, v Variant, seed int64) (*Model, *dimData) {
	t.Helper()
	d := smallDataset(t, seed)
	cfg := quickCfg(v)
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	cfg.KernelSupport = d.Seq.Horizon / 20
	link, _ := cfg.Variant.Link()
	m := &Model{
		M: d.Seq.M, Variant: cfg.Variant, Horizon: d.Seq.Horizon,
		Mu:      make([]float64, d.Seq.M),
		Kernels: make([]kernel.Kernel, d.Seq.M),
		cfg:     cfg, link: link, seq: d.Seq,
	}
	ker, _ := kernel.NewExponential(0.4)
	sampled, _ := kernel.Sample(ker, cfg.KernelSupport/24, 25)
	sampled.Normalize()
	for i := range m.Kernels {
		m.Kernels[i] = sampled
	}
	sources, err := cooccurrenceSources(seqColumns(d.Seq), cfg.KernelSupport, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.initParams(seqColumns(d.Seq), sources); err != nil {
		t.Fatal(err)
	}

	work := d.Seq.StripParents()
	forest, err := m.bootstrapForest(nil, newSeqSource(work))
	if err != nil {
		t.Fatal(err)
	}
	conf, err := conformity.New(work, forest, cfg.Conformity)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a dimension with sources and events.
	dim := -1
	byUser := work.CountByUser()
	for i := 0; i < m.M; i++ {
		if len(m.params.sources(i)) > 0 && byUser[i] > 2 {
			dim = i
			break
		}
	}
	if dim < 0 {
		t.Skip("no suitable dimension")
	}
	return m, m.buildDim(seqColumns(work), conf, dim)
}

func TestObjectiveGradients(t *testing.T) {
	for _, v := range []Variant{VariantL, VariantE, VariantLHP, VariantEHP, VariantLI, VariantLN} {
		t.Run(v.Name(), func(t *testing.T) {
			m, dd := buildModelForGradCheck(t, v, 31)
			o := m.objective(dd)
			defer o.release()
			obj := o.eval
			// Random interior point away from the λ-floor kinks.
			r := rng.New(77)
			x := m.pack(dd.i)
			for i := range x {
				if i == 0 {
					if _, lin := m.link.(hawkes.LinearLink); lin {
						x[i] = r.Uniform(0.01, 0.05)
					} else {
						x[i] = r.Uniform(-4, -2)
					}
					continue
				}
				x[i] = r.Uniform(0.2, 0.8)
			}
			worst := infer.CheckGradient(x, obj, 1e-6)
			val := obj(x, nil)
			scale := 1 + math.Abs(val)
			if worst/scale > 1e-4 {
				t.Errorf("gradient check failed: worst diff %g (value %g)", worst, val)
			}
		})
	}
}

func TestFitPoissonRecoversMu(t *testing.T) {
	// Pure Poisson data, L-HP model: μ̂ should land near the truth and α≈0.
	r := rng.New(5)
	seq := &timeline.Sequence{M: 2, Horizon: 500}
	for i := 0; i < 2; i++ {
		t0 := 0.0
		for {
			t0 += r.Exp(0.08)
			if t0 > 500 {
				break
			}
			seq.Activities = append(seq.Activities, timeline.Activity{
				User: timeline.UserID(i), Time: t0, Parent: timeline.NoParent,
			})
		}
	}
	seq.Normalize()
	m, err := Fit(seq, quickCfg(VariantLHP))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if math.Abs(m.Mu[i]-0.08) > 0.035 {
			t.Errorf("Mu[%d] = %g, want ~0.08", i, m.Mu[i])
		}
	}
}

func TestFitHPRecoversExcitationStructure(t *testing.T) {
	// 2-dim Hawkes where only 0 -> 1 excitation exists (strongly).
	exc, _ := hawkes.NewConstExcitation([][]float64{{0, 0}, {0.7, 0}})
	ker, _ := kernel.NewExponential(1)
	proc := &hawkes.Process{
		M: 2, Mu: []float64{0.08, 0.02}, Exc: exc,
		Kernels: hawkes.SharedKernel{K: ker}, Link: hawkes.LinearLink{},
	}
	seq, err := proc.Simulate(rng.New(6), hawkes.SimOptions{Horizon: 800})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(VariantLHP)
	cfg.EMIters = 5
	cfg.KernelSupport = 12
	m, err := Fit(seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	alpha := mirrorOf(m).alpha
	if alpha[1][0] < 0.2 {
		t.Errorf("α[1][0] = %g, want substantially positive", alpha[1][0])
	}
	if alpha[0][1] > alpha[1][0]/2 {
		t.Errorf("α[0][1] = %g should be well below α[1][0] = %g", alpha[0][1], alpha[1][0])
	}
}

func TestFitChassisEndToEnd(t *testing.T) {
	d := smallDataset(t, 8)
	train, test, err := d.Seq.Split(0.7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(VariantL)
	cfg.TrackHistory = true
	m, err := Fit(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Iterations != cfg.EMIters {
		t.Errorf("iterations = %d, want %d", m.Iterations, cfg.EMIters)
	}
	if len(m.History) != cfg.EMIters {
		t.Fatalf("history length = %d", len(m.History))
	}
	for i, ll := range m.History {
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			t.Fatalf("history[%d] = %g", i, ll)
		}
	}
	// Stochastic EM (sampled E-steps, heuristic kernel updates) is not
	// monotone, but it must not diverge: the final training LL stays
	// within a small band of the starting one.
	first, last := m.History[0], m.History[len(m.History)-1]
	if last < first-0.02*math.Abs(first) {
		t.Errorf("EM diverged: history %v", m.History)
	}
	ll, err := m.HeldOutLogLikelihood(test)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Errorf("held-out LL = %g", ll)
	}
	inf := m.EstimatedInfluence()
	if len(inf) != m.M {
		t.Fatal("influence estimate sized wrong")
	}
	var nonzero int
	for i := range inf {
		for j := range inf[i] {
			if inf[i][j] != 0 {
				nonzero++
			}
		}
	}
	if nonzero == 0 {
		t.Error("estimated influence is identically zero")
	}
}

func TestFitExpVariantRuns(t *testing.T) {
	d := smallDataset(t, 12)
	cfg := quickCfg(VariantE)
	cfg.EMIters = 3
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := m.TrainLogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		t.Errorf("exp-variant LL = %g", ll)
	}
}

func TestEStepBeatsRandomOnSimulatedTrees(t *testing.T) {
	// Fit CHASSIS-L on generated data and compare the inferred forest's F1
	// against a bootstrap (pre-EM) forest: EM must improve tree recovery.
	d := smallDataset(t, 21)
	truth, err := branching.FromSequence(d.Seq)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg(VariantL)
	cfg.EMIters = 5
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := branching.CompareForests(m.Forest, truth)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := m.bootstrapForest(nil, newSeqSource(d.Seq.StripParents()))
	if err != nil {
		t.Fatal(err)
	}
	random, err := branching.CompareForests(boot, truth)
	if err != nil {
		t.Fatal(err)
	}
	if fitted.F1 <= random.F1 {
		t.Errorf("EM F1 %.3f should beat bootstrap F1 %.3f", fitted.F1, random.F1)
	}
	if fitted.F1 < 0.3 {
		t.Errorf("EM F1 %.3f too low", fitted.F1)
	}
}

func TestInferForestOnFreshSequence(t *testing.T) {
	d := smallDataset(t, 33)
	cfg := quickCfg(VariantL)
	cfg.EMIters = 3
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2 := smallDataset(t, 34)
	f, err := m.InferForest(d2.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if f.Len() != d2.Seq.Len() {
		t.Error("forest size mismatch")
	}
	if _, err := m.InferForest(&timeline.Sequence{M: 99, Horizon: 1}); err == nil {
		t.Error("dimension mismatch must fail")
	}
}

func TestCooccurrenceSources(t *testing.T) {
	seq := &timeline.Sequence{M: 3, Horizon: 100}
	// User 1 always acts right after user 0; user 2 far away in time.
	times := []struct {
		u int
		t float64
	}{
		{0, 1}, {1, 1.5}, {0, 10}, {1, 10.5}, {0, 20}, {1, 20.4}, {2, 90},
	}
	for _, e := range times {
		seq.Activities = append(seq.Activities, timeline.Activity{
			User: timeline.UserID(e.u), Time: e.t, Parent: timeline.NoParent,
		})
	}
	seq.Normalize()
	src, err := cooccurrenceSources(seqColumns(seq), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(src[1]) != 1 || src[1][0] != 0 {
		t.Errorf("sources[1] = %v, want [0]", src[1])
	}
	if len(src[2]) != 0 {
		t.Errorf("sources[2] = %v, want empty", src[2])
	}
}

// refCooccurrenceSources is the oracle for cooccurrenceSources: a serial
// scan over all events with one shared pruning cursor and one tally map per
// receiver.
func refCooccurrenceSources(cols *eventCols, support float64) [][]int {
	times, users := cols.times, cols.users
	counts := make([]map[int]int, cols.m)
	for i := range counts {
		counts[i] = make(map[int]int)
	}
	lo := 0
	for k := range times {
		i := int(users[k])
		t := times[k]
		for lo < len(times) && times[lo] < t-support {
			lo++
		}
		for w := lo; w < k; w++ {
			j := int(users[w])
			if j != i {
				counts[i][j]++
			}
		}
	}
	out := make([][]int, cols.m)
	for i := range out {
		type jc struct{ j, c int }
		var list []jc
		for j, c := range counts[i] {
			if c >= 2 {
				list = append(list, jc{j, c})
			}
		}
		sort.Slice(list, func(a, b int) bool {
			if list[a].c != list[b].c {
				return list[a].c > list[b].c
			}
			return list[a].j < list[b].j
		})
		if len(list) > MaxSourcesPerDim {
			list = list[:MaxSourcesPerDim]
		}
		js := make([]int, len(list))
		for idx, e := range list {
			js[idx] = e.j
		}
		sort.Ints(js)
		out[i] = js
	}
	return out
}

// TestCooccurrenceSourcesMatchesSerialScan pins the per-receiver ranking on
// the worker pool to the serial scan at Workers 1, 2 and 8. The synthetic
// corpora put many events on each integer time, so windows hold events
// simultaneous with their target (counted only when the columns hold them
// first); support 0 leaves exactly those. Hub users make receivers with more
// than MaxSourcesPerDim candidates and tied tallies, so truncation and the
// tie-break are covered too.
func TestCooccurrenceSourcesMatchesSerialScan(t *testing.T) {
	type corpus struct {
		name    string
		cols    *eventCols
		support float64
	}
	var corpora []corpus
	r := rng.New(77)
	for c, users := range []int{3, 25, 60} {
		seq := &timeline.Sequence{M: users, Horizon: 200}
		for k := 0; k < 2500; k++ {
			u := r.Intn(users)
			if r.Bernoulli(0.3) {
				u = r.Intn(min(users, 4)) // hubs
			}
			seq.Activities = append(seq.Activities, timeline.Activity{
				ID: timeline.ActivityID(k), User: timeline.UserID(u),
				Time: float64(r.Intn(200)), Parent: timeline.NoParent,
			})
		}
		sort.SliceStable(seq.Activities, func(a, b int) bool { return seq.Activities[a].Time < seq.Activities[b].Time })
		for k := range seq.Activities {
			seq.Activities[k].ID = timeline.ActivityID(k)
		}
		for _, support := range []float64{0, 0.5, 3} {
			corpora = append(corpora, corpus{fmt.Sprintf("synthetic%d/support%g", c, support), seqColumns(seq), support})
		}
	}
	d := smallDataset(t, 34)
	corpora = append(corpora, corpus{"cascade", seqColumns(d.Seq), 25})

	truncated, simultaneous := 0, 0
	for _, c := range corpora {
		want := refCooccurrenceSources(c.cols, c.support)
		for _, workers := range []int{1, 2, 8} {
			got, err := cooccurrenceSources(c.cols, c.support, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, Workers=%d: sources diverge from the serial scan\n got %v\nwant %v", c.name, workers, got, want)
			}
		}
		for _, js := range want {
			if len(js) == MaxSourcesPerDim {
				truncated++
			}
		}
		if c.support == 0 {
			for _, js := range want {
				simultaneous += len(js)
			}
		}
	}
	if truncated == 0 || simultaneous == 0 {
		t.Fatalf("the corpora stopped covering a case: %d truncated rankings, %d sources from simultaneous events", truncated, simultaneous)
	}
}

func TestHeldOutValidation(t *testing.T) {
	d := smallDataset(t, 40)
	cfg := quickCfg(VariantLHP)
	cfg.EMIters = 2
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.HeldOutLogLikelihood(nil); err == nil {
		t.Error("nil test must fail")
	}
	if _, err := m.HeldOutLogLikelihood(&timeline.Sequence{M: 12, Horizon: 1}); err == nil {
		t.Error("empty test must fail")
	}
}
