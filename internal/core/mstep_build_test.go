package core

import (
	"context"
	"reflect"
	"testing"

	"chassis/internal/conformity"
	"chassis/internal/hawkes"
	"chassis/internal/kernel"
	"chassis/internal/timeline"
)

// sameDimData compares built dimension data with the reference's, leaving
// out the pooled backing arrays that only release reads.
func sameDimData(got, want *dimData) bool {
	g := *got
	g.flat = want.flat
	return reflect.DeepEqual(&g, want)
}

// refBuildDimData is the oracle for the M-step's one dimension builder
// (buildDim): it assembles dimension i's fitting structures with one scan of
// the whole sequence, grid windows included when needGrid.
func (m *Model) refBuildDimData(seq *timeline.Sequence, conf *conformity.Computer, i int, needGrid bool) *dimData {
	d := &dimData{i: i, T: seq.Horizon}
	ker := m.Kernels[i]
	support := ker.Support()

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
		e := srcEvent{
			j: j, jIdx: idx, t: acts[k].Time,
			kInt: ker.Integral(seq.Horizon - acts[k].Time),
		}
		if m.Variant.ConformityAware && m.Variant.UseNormative {
			e.aN = conf.Normative(i, int(j), acts[k].Time)
		}
		srcOf[k] = int32(len(d.src))
		d.src = append(d.src, e)
	}
	if m.Variant.ConformityAware {
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
// deep-equal: same source events (times, kInt, aN), same target and grid
// windows, same kernel evaluations in the same order. This is the
// load-bearing equivalence behind the M-step of both drivers.
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
			// Rebuild the conformity state against the fitted forest, the
			// same inputs the fit's own M-steps saw.
			work := d.Seq.StripParents()
			var conf *conformity.Computer
			if v.ConformityAware {
				conf, err = conformity.New(work, m.Forest, cfg.Conformity)
				if err != nil {
					t.Fatal(err)
				}
			}
			cols := seqColumns(work)
			gridEntries := 0
			for i := 0; i < m.M; i++ {
				got := m.buildDim(cols, conf, i)
				for _, win := range got.grid {
					gridEntries += len(win)
				}
				if want := m.refBuildDimData(work, conf, i, !linear); !sameDimData(got, want) {
					t.Fatalf("dim %d dimData diverges\n got %+v\nwant %+v", i, got, want)
				}
			}
			if !linear && gridEntries == 0 {
				t.Fatal("no grid window holds an entry")
			}
		})
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
		if ref := m.refBuildDimData(seq, nil, i, true); !sameDimData(got, ref) {
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
					dd := m.refBuildDimData(work, nil, i, !linear)
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
