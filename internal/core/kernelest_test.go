package core

import (
	"testing"

	"chassis/internal/hawkes"
	"chassis/internal/kernel"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

// TestUpdateKernelsRecoversDecayShape drives the frequency-domain estimator
// (Eqs. 7.5–7.8) directly: simulate a 2-dim Hawkes stream with a known
// fast-decay kernel, hand the model the true excitation weights, and check
// the re-estimated kernel concentrates its mass early like the truth.
func TestUpdateKernelsRecoversDecayShape(t *testing.T) {
	trueKer, err := kernel.NewExponential(1.5)
	if err != nil {
		t.Fatal(err)
	}
	exc, err := hawkes.NewConstExcitation([][]float64{{0.3, 0.4}, {0.4, 0.3}})
	if err != nil {
		t.Fatal(err)
	}
	proc := &hawkes.Process{
		M: 2, Mu: []float64{0.15, 0.15}, Exc: exc,
		Kernels: hawkes.SharedKernel{K: trueKer}, Link: hawkes.LinearLink{},
	}
	seq, err := proc.Simulate(rng.New(9), hawkes.SimOptions{Horizon: 1200})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() < 200 {
		t.Fatalf("too few events for estimation: %d", seq.Len())
	}

	cfg := quickCfg(VariantLHP)
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	cfg.KernelSupport = 8
	cfg.KernelDamping = 0 // pure estimate, no blending with the init
	link, _ := cfg.Variant.Link()
	m := &Model{
		M: 2, Variant: cfg.Variant, Horizon: seq.Horizon,
		Mu:      []float64{0.15, 0.15},
		Kernels: make([]kernel.Kernel, 2),
		cfg:     cfg, link: link, seq: seq,
	}
	// Deliberately bad starting kernel: uniform over the support.
	flat := make([]float64, 25)
	for i := range flat {
		flat[i] = 1
	}
	fk, err := kernel.NewDiscrete(cfg.KernelSupport/24, flat)
	if err != nil {
		t.Fatal(err)
	}
	fk.Normalize()
	m.Kernels[0], m.Kernels[1] = fk, fk
	alpha := [][]float64{{0.3, 0.4}, {0.4, 0.3}}
	setParams(m, nil, func(i, j int) (float64, float64, float64, float64) { return alpha[i][j], 0, 0, 0 })

	m.updateKernels(nil, seqColumns(seq), nil)

	for i := 0; i < 2; i++ {
		est, ok := m.Kernels[i].(*kernel.Discrete)
		if !ok {
			t.Fatalf("kernel %d not re-estimated", i)
		}
		// The true kernel has ~95% of its mass before t=2 (rate 1.5); a
		// uniform kernel over support 8 has 25%. The (noisy, regularized)
		// spectral estimate must have moved decisively toward front-loaded.
		head := est.Integral(2) / est.Mass()
		if head < 0.4 {
			t.Errorf("dim %d: estimated head mass %.2f, want front-loaded (> 0.4)", i, head)
		}
	}
}

// TestUpdateKernelsDegenerateInputsAreSafe exercises the guard paths: too
// few events and zero excitation must leave kernels untouched.
func TestUpdateKernelsDegenerateInputsAreSafe(t *testing.T) {
	cfg := quickCfg(VariantLHP)
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	cfg.KernelSupport = 5
	link, _ := cfg.Variant.Link()
	seq := &timeline.Sequence{M: 1, Horizon: 100}
	seq.Activities = []timeline.Activity{
		{ID: 0, Time: 1, Parent: timeline.NoParent},
		{ID: 1, Time: 2, Parent: timeline.NoParent},
	}
	init, _ := kernel.NewExponential(1)
	sampled, _ := kernel.Sample(init, 0.2, 26)
	m := &Model{
		M: 1, Variant: cfg.Variant, Horizon: 100,
		Mu:      []float64{0.02},
		Kernels: []kernel.Kernel{sampled},
		cfg:     cfg, link: link, seq: seq,
	}
	setParams(m, nil, func(i, j int) (float64, float64, float64, float64) { return 0, 0, 0, 0 })
	before := m.Kernels[0]
	m.updateKernels(nil, seqColumns(seq), nil) // 2 events: below the signal threshold
	if m.Kernels[0] != before {
		t.Error("kernel must be untouched with too few events")
	}
}
