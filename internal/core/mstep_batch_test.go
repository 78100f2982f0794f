package core

import (
	"context"
	"reflect"
	"testing"

	"chassis/internal/conformity"
)

// TestBatchBuilderMatchesPerDim pins the batched streaming builder to the
// per-dimension builder: for every dimension, the assembled dimData must be
// deep-equal — same source events (times, kInt, aN), same target windows,
// same kernel evaluations in the same order. This is the load-bearing
// equivalence behind both the batched in-memory M-step and the sharded
// fit's M-step.
func TestBatchBuilderMatchesPerDim(t *testing.T) {
	for _, v := range []Variant{VariantLHP, VariantL, VariantLI, VariantLN} {
		t.Run(v.Name(), func(t *testing.T) {
			d := smallDataset(t, 31)
			cfg := quickCfg(v)
			m, err := Fit(d.Seq, cfg)
			if err != nil {
				t.Fatal(err)
			}
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
			for _, span := range []int{m.M, 5, 1} {
				old := mstepBatchDims
				mstepBatchDims = span
				defer func() { mstepBatchDims = old }()
				for lo := 0; lo < m.M; lo += span {
					hi := min(lo+span, m.M)
					got := m.buildDimDataBatch(seqColumns(work), conf, lo, hi, nil)
					for bi, g := range got {
						i := lo + bi
						want := m.buildDimData(work, conf, i, false)
						if !reflect.DeepEqual(g, want) {
							t.Fatalf("batch span %d: dim %d dimData diverges\n got %+v\nwant %+v", span, i, g, want)
						}
					}
				}
			}
		})
	}
}

// TestBatchedMStepMatchesPerDimOptimizer runs one M-step through the batched
// path and the legacy per-dimension path from the same frozen model state
// and requires bit-identical parameters, across batch sizes that force
// single- and multi-batch execution.
func TestBatchedMStepMatchesPerDimOptimizer(t *testing.T) {
	d := smallDataset(t, 32)
	cfg := quickCfg(VariantLHP)
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	work := d.Seq.StripParents()

	// Reference: the per-dimension builder feeding the shared optimizer.
	runPerDim := func() [][]float64 {
		snap := m.snapshotState(nil)
		defer m.restoreState(snap)
		for i := 0; i < m.M; i++ {
			dd := m.buildDimData(work, nil, i, false)
			m.optimizeDim(i, dd, nil, 0.05, false)
		}
		return paramsCopy(m)
	}
	runBatched := func(span int) [][]float64 {
		old := mstepBatchDims
		mstepBatchDims = span
		defer func() { mstepBatchDims = old }()
		snap := m.snapshotState(nil)
		defer m.restoreState(snap)
		if err := m.mStepBatches(context.Background(), seqColumns(work), nil, 0.05, nil); err != nil {
			t.Fatal(err)
		}
		return paramsCopy(m)
	}

	want := runPerDim()
	for _, span := range []int{1, 3, m.M, 10000} {
		got := runBatched(span)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch span %d: M-step parameters diverge from per-dim path", span)
		}
	}

	// The source-event budget is the other batch-boundary knob: force it
	// down to one event so packing degenerates to single-dim batches, and
	// to values that split mid-range, and require the same parameters.
	runBudget := func(budget int64) [][]float64 {
		old := mstepBatchSrcEvents
		mstepBatchSrcEvents = budget
		defer func() { mstepBatchSrcEvents = old }()
		snap := m.snapshotState(nil)
		defer m.restoreState(snap)
		if err := m.mStepBatches(context.Background(), seqColumns(work), nil, 0.05, nil); err != nil {
			t.Fatal(err)
		}
		return paramsCopy(m)
	}
	for _, budget := range []int64{1, 7, int64(work.Len()), 1 << 40} {
		got := runBudget(budget)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("source-event budget %d: M-step parameters diverge from per-dim path", budget)
		}
	}
}

// paramsCopy snapshots the linear-family parameter matrices bit-exactly.
func paramsCopy(m *Model) [][]float64 {
	out := [][]float64{append([]float64(nil), m.Mu...)}
	for i := range m.Alpha {
		out = append(out, append([]float64(nil), m.Alpha[i]...))
	}
	return out
}

// TestBatchScratchResets confirms a batch leaves the shared scratch clean so
// the next batch starts from the empty state.
func TestBatchScratchResets(t *testing.T) {
	d := smallDataset(t, 33)
	m, err := Fit(d.Seq, quickCfg(VariantLHP))
	if err != nil {
		t.Fatal(err)
	}
	work := d.Seq.StripParents()
	scr := newBatchScratch(m.M)
	m.buildDimDataBatch(seqColumns(work), nil, 0, m.M, scr)
	for i, s := range scr.slotOf {
		if s != -1 {
			t.Fatalf("slotOf[%d] = %d after batch; want -1", i, s)
		}
	}
	for j, refs := range scr.srcRefs {
		if len(refs) != 0 {
			t.Fatalf("srcRefs[%d] kept %d entries after batch", j, len(refs))
		}
	}
}
