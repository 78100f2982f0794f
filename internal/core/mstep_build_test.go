package core

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"chassis/internal/branching"
	"chassis/internal/conformity"
	"chassis/internal/hawkes"
	"chassis/internal/kernel"
	"chassis/internal/timeline"
)

// sameDimData compares built dimension data with the reference's, leaving
// out the pooled backing arrays that only release reads. An empty pooled
// slice equals the reference's nil one.
func sameDimData(got, want *dimData) bool {
	g := *got
	g.flat = want.flat
	g.src, g.inv, g.psi = nilIfEmpty(g.src), nilIfEmpty(g.inv), nilIfEmpty(g.psi)
	return reflect.DeepEqual(&g, want)
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// refBuildDimData is the oracle for the M-step's one dimension builder
// (buildDim): it assembles dimension i's fitting structures with one scan of
// the whole sequence, grid windows included when needGrid. With prune, a
// conformity variant's source event is left out when its weight is zero for
// every Θ, by the rule restated through the Computer's one-shot queries:
// the informational part is off or Φᵢⱼ(t) = 0 at β = 0 (no interaction or no
// offspring of i by t) or Ψᵢⱼ(t) = 0, and the normative part is off or
// αᴺᵢⱼ(t) = 0. Without prune every source event stays: the unpruned data the
// objective tests run the reference objective on. The stored factors come
// from Pair.Factors; the reference objective checks them through
// InformationalGrad.
func (m *Model) refBuildDimData(seq *timeline.Sequence, conf *conformity.Computer, i int, needGrid, prune bool) *dimData {
	d := &dimData{i: i, T: seq.Horizon}
	ker := m.Kernels[i]
	support := ker.Support()
	v := m.Variant
	info := v.ConformityAware && v.UseInformational
	norm := v.ConformityAware && v.UseNormative

	jIdx := make(map[int32]int32, len(m.params.sources(i)))
	for idx, j := range m.params.sources(i) {
		jIdx[int32(j)] = int32(idx)
	}
	acts := seq.Activities
	srcOf := make([]int32, len(acts)) // index into d.src, or -1
	for k := range acts {
		srcOf[k] = -1
		j := int32(acts[k].User)
		idx, ok := jIdx[j]
		if !ok {
			continue
		}
		t := acts[k].Time
		e := srcEvent{j: j, jIdx: idx, t: t, kInt: ker.Integral(seq.Horizon - t)}
		if norm {
			e.aN = conf.Normative(i, int(j), t)
		}
		zeroI := !info || conf.InfluenceDegree(i, int(j), t, 0) == 0 || conf.ContextStance(i, int(j), t) == 0
		if prune && v.ConformityAware && zeroI && e.aN == 0 {
			d.dropped++
			continue
		}
		if info {
			inv, psi := conf.Pair(i, int(j)).Factors(t)
			d.inv, d.psi = append(d.inv, inv), append(d.psi, psi)
		}
		srcOf[k] = int32(len(d.src))
		d.src = append(d.src, e)
	}
	if v.ConformityAware {
		for _, j := range m.params.sources(i) {
			d.pairs = append(d.pairs, conf.Pair(i, j))
		}
	}

	// Target windows: for each event of dimension i, the preceding source
	// events inside the kernel support.
	lo := 0
	for k := range acts {
		if int(acts[k].User) != i {
			continue
		}
		t := acts[k].Time
		for lo < len(acts) && acts[lo].Time < t-support {
			lo++
		}
		var win []winEntry
		for w := lo; w < k; w++ {
			if srcOf[w] < 0 {
				continue
			}
			dt := t - acts[w].Time
			if dt <= 0 || dt > support {
				continue
			}
			if phi := ker.Eval(dt); phi > 0 {
				win = append(win, winEntry{src: srcOf[w], phi: phi})
			}
		}
		d.targets = append(d.targets, win)
	}

	if needGrid {
		g := m.cfg.IntegrationGrid
		d.gridH = seq.Horizon / float64(g)
		d.grid = make([][]winEntry, g)
		lo = 0
		for s := 0; s < g; s++ {
			ts := float64(s) * d.gridH // left endpoints
			for lo < len(acts) && acts[lo].Time < ts-support {
				lo++
			}
			var win []winEntry
			for w := lo; w < len(acts); w++ {
				if acts[w].Time >= ts {
					break
				}
				if srcOf[w] < 0 {
					continue
				}
				dt := ts - acts[w].Time
				if dt > support {
					continue
				}
				if phi := ker.Eval(dt); phi > 0 {
					win = append(win, winEntry{src: srcOf[w], phi: phi})
				}
			}
			d.grid[s] = win
		}
	}
	return d
}

// TestBatchBuilderMatchesPerDim pins the M-step's dimension builder to the
// per-dimension reference: for every dimension of every variant, the
// assembled dimData — plus its Euler grid for the nonlinear links — must be
// deep-equal: same source events (times, kInt, aN, factors), the same
// structurally zero events left out, same target and grid windows, same
// kernel evaluations in the same order. This is the load-bearing
// equivalence behind the M-step of both drivers.
func TestBatchBuilderMatchesPerDim(t *testing.T) {
	for _, v := range []Variant{VariantLHP, VariantL, VariantLI, VariantLN, VariantEHP, VariantE, VariantEI, VariantEN} {
		t.Run(v.Name(), func(t *testing.T) {
			d := smallDataset(t, 31)
			cfg := quickCfg(v)
			m, err := Fit(d.Seq, cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, linear := m.link.(hawkes.LinearLink)
			// Build the conformity state on the generator's forest: the
			// fitted one leaves the CHASSIS-E variants no pair with
			// conformity on this corpus, so every source event would be
			// left out and no window would be compared.
			work := d.Seq.StripParents()
			var conf *conformity.Computer
			if v.ConformityAware {
				forest, err := branching.FromSequence(d.Seq)
				if err != nil {
					t.Fatal(err)
				}
				if conf, err = conformity.New(work, forest, cfg.Conformity); err != nil {
					t.Fatal(err)
				}
			}
			cols := seqColumns(work)
			gridEntries, kept, dropped := 0, 0, 0
			for i := 0; i < m.M; i++ {
				got := m.buildDim(cols, conf, i)
				for _, win := range got.grid {
					gridEntries += len(win)
				}
				kept += len(got.src)
				dropped += got.dropped
				if want := m.refBuildDimData(work, conf, i, !linear, true); !sameDimData(got, want) {
					t.Fatalf("dim %d dimData diverges\n got %+v\nwant %+v", i, got, want)
				}
			}
			if !linear && gridEntries == 0 {
				t.Fatal("no grid window holds an entry")
			}
			if kept == 0 || v.ConformityAware != (dropped > 0) {
				t.Fatalf("%d source events kept and %d dropped", kept, dropped)
			}
		})
	}
}

// TestBuildDimDropsStructurallyZeroTerms pins the structural-zero rule on a
// hand-built cascade for receiver 0 with sources 1, 2 and 3:
//
//	t=10 user 1 (+0.5), root        t=45 user 3, root
//	t=15 user 3, root               t=50 user 1 (+0.5), root
//	t=20 user 0 (0), child of t=10  t=60 user 2 (+0.5), root
//	t=30 user 2 (+0.5), child of 10 t=70 user 0 (+0.5), root
//	t=40 user 0 (+0.5), child of 30
//
// Pair (0, 3) has no samples, so user 3 loses every event. Pair (0, 1)'s
// first sample is at t=20 and pair (0, 2)'s at t=40, so the source events at
// t=10 and t=30 come before them and are dropped. At t=50, Ψ₀₁ is 0 (its one
// informational sample has a zero polarity) while αᴺ₀₁ is 0.5 (the t=40
// grandchild adds an agreeing normative sample), so the event stays unless
// the variant reads only the informational part. The CHASSIS-E variants'
// grid windows, like every variant's target windows, are the unpruned
// reference's windows with the dropped events taken out.
func TestBuildDimDropsStructurallyZeroTerms(t *testing.T) {
	seq, conf, ker := zeroTermsCascade(t)
	cols := seqColumns(seq)
	for _, c := range []struct {
		v    Variant
		kept []float64 // the source event times left in d.src
	}{
		{VariantL, []float64{50, 60}},
		{VariantLI, []float64{60}},
		{VariantLN, []float64{50, 60}},
		{VariantE, []float64{50, 60}},
		{VariantEI, []float64{60}},
		{VariantEN, []float64{50, 60}},
	} {
		link, _ := c.v.Link()
		_, linear := link.(hawkes.LinearLink)
		m := zeroTermsModel(c.v, ker)
		got := m.buildDim(cols, conf, 0)
		if want := m.refBuildDimData(seq, conf, 0, !linear, true); !sameDimData(got, want) {
			t.Fatalf("%s diverges from the reference\n got %+v\nwant %+v", c.v.Name(), got, want)
		}
		var times []float64
		for _, e := range got.src {
			times = append(times, e.t)
		}
		if !reflect.DeepEqual(times, c.kept) || got.dropped != 6-len(c.kept) {
			t.Fatalf("%s keeps source events at %v and drops %d; want %v and %d", c.v.Name(), times, got.dropped, c.kept, 6-len(c.kept))
		}
		if c.v.UseInformational && c.v.UseNormative && (got.psi[0] != 0 || got.src[0].aN != 0.5) {
			t.Fatalf("%s: the t=50 event has Ψ %v and αᴺ %v; want 0 and 0.5", c.v.Name(), got.psi[0], got.src[0].aN)
		}
		// The unpruned reference's windows with the dropped events taken
		// out, re-indexed into the pruned d.src.
		full := m.refBuildDimData(seq, conf, 0, !linear, false)
		idx := map[int32]int32{}
		for e, fe := range full.src {
			if k := slices.Index(c.kept, fe.t); k >= 0 {
				idx[int32(e)] = int32(k)
			}
		}
		prune := func(wins [][]winEntry) [][]winEntry {
			out := make([][]winEntry, len(wins))
			for w, win := range wins {
				for _, en := range win {
					if k, ok := idx[en.src]; ok {
						out[w] = append(out[w], winEntry{src: k, phi: en.phi})
					}
				}
			}
			return out
		}
		wantTargets := prune(full.targets)
		if !reflect.DeepEqual(got.targets, wantTargets) {
			t.Fatalf("%s: targets %v; want %v", c.v.Name(), got.targets, wantTargets)
		}
		if linear {
			continue
		}
		wantGrid, lost := prune(full.grid), 0
		for w := range full.grid {
			lost += len(full.grid[w]) - len(wantGrid[w])
		}
		if !reflect.DeepEqual(got.grid, wantGrid) || lost == 0 {
			t.Fatalf("%s: grid %v; want %v (%d entries dropped)", c.v.Name(), got.grid, wantGrid, lost)
		}
	}
}

// zeroTermsCascade is TestBuildDimDropsStructurallyZeroTerms's cascade, its
// conformity snapshot, and a kernel with φ = 1 on [0, 100].
func zeroTermsCascade(t *testing.T) (*timeline.Sequence, *conformity.Computer, kernel.Kernel) {
	t.Helper()
	acts := []timeline.Activity{
		{User: 1, Time: 10, Polarity: 0.5, Parent: timeline.NoParent},
		{User: 3, Time: 15, Polarity: 0.5, Parent: timeline.NoParent},
		{User: 0, Time: 20, Polarity: 0, Parent: 0},
		{User: 2, Time: 30, Polarity: 0.5, Parent: 0},
		{User: 0, Time: 40, Polarity: 0.5, Parent: 3},
		{User: 3, Time: 45, Polarity: 0.5, Parent: timeline.NoParent},
		{User: 1, Time: 50, Polarity: 0.5, Parent: timeline.NoParent},
		{User: 2, Time: 60, Polarity: 0.5, Parent: timeline.NoParent},
		{User: 0, Time: 70, Polarity: 0.5, Parent: timeline.NoParent},
	}
	for k := range acts {
		acts[k].ID = timeline.ActivityID(k)
	}
	seq := &timeline.Sequence{M: 4, Horizon: 80, Activities: acts}
	forest, err := branching.FromSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	conf, err := conformity.New(seq, forest, conformity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]float64, 11)
	for k := range ones {
		ones[k] = 1
	}
	ker, err := kernel.NewDiscrete(10, ones)
	if err != nil {
		t.Fatal(err)
	}
	return seq, conf, ker
}

// zeroTermsModel is a model of variant v on zeroTermsCascade: receiver 0
// has sources 1, 2 and 3, each with γᴵ = γᴺ = 0.1 and β = 0.5, and every μ
// is 0.01.
func zeroTermsModel(v Variant, ker kernel.Kernel) *Model {
	link, _ := v.Link()
	m := &Model{
		M: 4, Variant: v, Horizon: 80,
		Mu:      []float64{0.01, 0.01, 0.01, 0.01},
		Kernels: []kernel.Kernel{ker, ker, ker, ker},
		cfg:     Config{IntegrationGrid: 8},
		link:    link,
	}
	setParams(m, [][]int{{1, 2, 3}, nil, nil, nil}, func(i, j int) (float64, float64, float64, float64) { return 0, 0.1, 0.1, 0.5 })
	return m
}

// TestValuePassRefreshesOnlyMovedSlots pins the per-slot refresh on
// receiver 0 of zeroTermsCascade under CHASSIS-L: slot 0 (user 1) and slot 1
// (user 2) keep one source event each, slot 2 (user 3) keeps none. The
// first value pass refreshes and sweeps both kept slots; moving μ refreshes
// nothing, moving a γᴺ re-weights that slot without a sweep, moving a β or
// a γᴵ refreshes that slot and sweeps only for β, and no move of slot 2
// touches it. Every call matches the reference objective bit for bit.
func TestValuePassRefreshesOnlyMovedSlots(t *testing.T) {
	seq, conf, ker := zeroTermsCascade(t)
	m := zeroTermsModel(VariantL, ker)
	d := m.buildDim(seqColumns(seq), conf, 0)
	defer d.release()
	o := m.objective(d)
	defer o.release()
	ref := m.refObjective(d, conf)
	l := m.layout()
	x := m.pack(0)
	steps := []struct {
		name              string
		p                 int // the coordinate moved, -1 for none
		refreshes, sweeps int // counted by the call
	}{
		{"first pass", -1, 2, 2},
		{"μ", 0, 0, 0},
		{"slot 1's γᴺ", l.gammaNIdx(1), 1, 0},
		{"slot 0's β", l.betaIdx(0), 1, 1},
		{"slot 0's β again", l.betaIdx(0), 1, 1},
		{"slot 1's γᴵ", l.gammaIIdx(1), 1, 0},
		{"slot 2's β", l.betaIdx(2), 0, 0},
		{"slot 2's γᴵ", l.gammaIIdx(2), 0, 0},
		{"slot 2's γᴺ", l.gammaNIdx(2), 0, 0},
		{"slot 1's β", l.betaIdx(1), 1, 1},
	}
	for _, st := range steps {
		if st.p >= 0 {
			x = slices.Clone(x)
			x[st.p] += 0.25
		}
		refreshes, sweeps := o.refreshes, o.sweeps
		if err := sameCallBits(o.eval, ref, ref, []objCall{{x, true}}); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		if got, want := [2]int{o.refreshes - refreshes, o.sweeps - sweeps}, [2]int{st.refreshes, st.sweeps}; got != want {
			t.Fatalf("moving %s refreshed and swept %v slots; want %v", st.name, got, want)
		}
	}
}

// TestGridWindowsOnGridPoints pins the grid rules on a hand-made fixture:
// horizon 640 and 64 grid points put ts at multiples of 10, and events sit
// exactly on grid points (t = 30, 40, 60) and at the horizon (t = 640). The
// kernel's support is 20 and it is zero at dt = 10, so the windows exercise
// t < ts (an event never joins the window of its own grid point),
// dt ≤ support (dt = 20 is in) and φ > 0 (dt = 10 is out). The target
// windows meet the same support edge: user 1's event at t = 60 keeps the
// source at t = 40 (dt = support) and prunes the one at t = 30.
func TestGridWindowsOnGridPoints(t *testing.T) {
	ker, err := kernel.NewDiscrete(5, []float64{1, 0, 0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if ker.Support() != 20 || ker.Eval(10) != 0 || ker.Eval(20) != 1 {
		t.Fatalf("fixture kernel: support %v, φ(10) = %v, φ(20) = %v", ker.Support(), ker.Eval(10), ker.Eval(20))
	}
	seq := &timeline.Sequence{M: 2, Horizon: 640, Activities: []timeline.Activity{
		{ID: 0, User: 0, Time: 30, Parent: timeline.NoParent},
		{ID: 1, User: 1, Time: 40, Parent: timeline.NoParent},
		{ID: 2, User: 1, Time: 60, Parent: timeline.NoParent},
		{ID: 3, User: 0, Time: 640, Parent: timeline.NoParent},
	}}
	link, _ := VariantEHP.Link()
	m := &Model{
		M: 2, Variant: VariantEHP, Horizon: 640,
		Kernels: []kernel.Kernel{ker, ker},
		cfg:     Config{IntegrationGrid: 64},
		link:    link,
	}
	setParams(m, [][]int{{0, 1}, {0, 1}}, func(i, j int) (float64, float64, float64, float64) { return 0, 0, 0, 0 })
	// Both dimensions list both users as sources, so d.src holds all four
	// events: d.src[0] (t = 30), d.src[1] (t = 40), d.src[2] (t = 60) and
	// d.src[3] (t = 640). Only the windows at ts = 50, 60 and 80 hold one
	// of them.
	want := make([][]winEntry, 64)
	want[5] = []winEntry{{src: 0, phi: 1}} // ts = 50: t = 30 at dt = support; t = 40 at φ = 0
	want[6] = []winEntry{{src: 1, phi: 1}} // ts = 60: t = 40 at dt = support
	want[8] = []winEntry{{src: 2, phi: 1}} // ts = 80: t = 60 at dt = support
	// One window per event of the dimension; only user 1's at t = 60 holds
	// a source (t = 40 at dt = support).
	wantTargets := [][][]winEntry{{nil, nil}, {nil, {{src: 1, phi: 1}}}}
	cols := seqColumns(seq)
	for i := 0; i < m.M; i++ {
		got := m.buildDim(cols, nil, i)
		if ref := m.refBuildDimData(seq, nil, i, true, true); !sameDimData(got, ref) {
			t.Fatalf("dim %d diverges from the reference\n got %+v\nwant %+v", i, got, ref)
		}
		if got.gridH != 10 || !reflect.DeepEqual(got.grid, want) {
			t.Fatalf("dim %d: gridH %v, grid %v; want 10, %v", i, got.gridH, got.grid, want)
		}
		if !reflect.DeepEqual(got.targets, wantTargets[i]) {
			t.Fatalf("dim %d: targets %v; want %v", i, got.targets, wantTargets[i])
		}
	}
}

// TestBatchedMStepMatchesPerDimOptimizer runs one M-step through the
// worker pool and the per-dimension reference builder from the same frozen
// model state and requires bit-identical parameters at Workers 1, 2 and 8;
// E-HP's Euler grid rides along.
func TestBatchedMStepMatchesPerDimOptimizer(t *testing.T) {
	for _, v := range []Variant{VariantLHP, VariantEHP} {
		t.Run(v.Name(), func(t *testing.T) {
			d := smallDataset(t, 32)
			m, err := Fit(d.Seq, quickCfg(v))
			if err != nil {
				t.Fatal(err)
			}
			_, linear := m.link.(hawkes.LinearLink)
			work := d.Seq.StripParents()

			// Reference: the per-dimension builder feeding the shared
			// optimizer.
			runPerDim := func() [][]float64 {
				snap := m.snapshotState(nil)
				defer m.restoreState(snap)
				for i := 0; i < m.M; i++ {
					dd := m.refBuildDimData(work, nil, i, !linear, true)
					m.optimizeDim(i, dd, 0.05, false)
				}
				return paramsCopy(m)
			}
			runPool := func(workers int) [][]float64 {
				old := m.cfg.Workers
				m.cfg.Workers = workers
				defer func() { m.cfg.Workers = old }()
				snap := m.snapshotState(nil)
				defer m.restoreState(snap)
				if err := m.mStep(context.Background(), seqColumns(work), nil, nil); err != nil {
					t.Fatal(err)
				}
				return paramsCopy(m)
			}

			want := runPerDim()
			for _, workers := range []int{1, 2, 8} {
				if got := runPool(workers); !reflect.DeepEqual(got, want) {
					t.Fatalf("Workers=%d: M-step parameters diverge from per-dim path", workers)
				}
			}
		})
	}
}

// paramsCopy snapshots the linear-family parameter matrices bit-exactly.
func paramsCopy(m *Model) [][]float64 {
	out := [][]float64{append([]float64(nil), m.Mu...)}
	return append(out, mirrorOf(m).alpha...)
}
