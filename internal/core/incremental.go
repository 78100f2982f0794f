package core

import (
	"context"
	"fmt"
	"math"

	"chassis/internal/branching"
	"chassis/internal/conformity"
	"chassis/internal/kernel"
	"chassis/internal/timeline"
)

// This file is the incremental EM mode the streaming-ingestion subsystem
// drives: per-event MAP parent attribution (the running E-step
// responsibility of a freshly ingested event) and a warm-started mini-batch
// M-step that refreshes the fitted parameters from accumulated events. Both
// are deterministic — no RNG draws, chunk-free per-event scoring, and the
// M-step's per-dimension fan-out writes disjoint slots — so the incremental
// path is bit-identical at any worker count, and the full batch fit remains
// the oracle it is compared against.

// MAPParent scores the triggering distribution of event k of seq under the
// fitted parameters and returns its MAP parent (timeline.NoParent for an
// immigrant pick). The scoring is the E-step's own scorer (scoreParents) in
// MAP mode: candidates inside the kernel support are weighted by the
// Papangelou intensity drop F(g) − F(g − c_e) (with the same Laplace
// smoothing), the immigrant option by F(μᵢ), and argmaxFirst breaks ties as
// the E-step does. Conformity features are read from the model's
// training-time state (m.Conf) — the same convention every serving-time
// evaluation (Process, HistoryState, prediction) uses — so attribution of a
// live cascade needs no conformity rebuild per event.
//
// Deterministic and side-effect-free: unlike the EM's internal E-steps it
// advances no RNG stream and mutates nothing, so scoring the same (seq, k)
// twice — or scoring events one at a time as they stream in versus in one
// pass over the suffix — yields identical assignments.
func (m *Model) MAPParent(seq *timeline.Sequence, k int) (timeline.ActivityID, error) {
	if seq.M != m.M {
		return timeline.NoParent, fmt.Errorf("core: sequence has %d dimensions, model has %d", seq.M, m.M)
	}
	if k < 0 || k >= seq.Len() {
		return timeline.NoParent, fmt.Errorf("core: event index %d outside [0,%d)", k, seq.Len())
	}
	ak := &seq.Activities[k]
	i := int(ak.User)
	if i < 0 || i >= m.M {
		return timeline.NoParent, fmt.Errorf("core: event %d has user %d outside [0,%d)", k, i, m.M)
	}
	smoothing := m.cfg.EStepSmoothing
	if smoothing <= 0 {
		smoothing = 0.02 // Config.fill's default, for zero-value models
	}
	ps := newParentScores()
	defer ps.release()
	lo := windowStart(seq, ak.Time-m.Kernels[i].Support())
	m.scoreParents(seq.Activities, 0, lo, k, excitation{m: m, conf: m.Conf}, smoothing, &ps)
	if pick := argmaxFirst(ps.weights); pick > 0 {
		return timeline.ActivityID(ps.cands[pick-1]), nil
	}
	return timeline.NoParent, nil
}

// AssignParents runs MAPParent over events [from, seq.Len()), returning one
// assignment per scored event. The per-event scorings are independent reads,
// so batch assignment equals event-by-event assignment exactly — the replay
// identity the ingest store's running responsibilities are tested against.
func (m *Model) AssignParents(seq *timeline.Sequence, from int) ([]timeline.ActivityID, error) {
	if from < 0 {
		from = 0
	}
	out := make([]timeline.ActivityID, 0, seq.Len()-from)
	for k := from; k < seq.Len(); k++ {
		p, err := m.MAPParent(seq, k)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// RefitIncremental is the mini-batch M-step of the incremental EM mode: it
// returns a NEW model whose parameters are refreshed against seq — typically
// the training sequence merged with ingested live events — under the parent
// assignments accumulated by the running E-step (MAPParent at append time).
// The receiver is never mutated; serving code keeps the old model pinned
// until the new one installs atomically.
//
// parents supplies one assignment per event; nil reads the assignments
// embedded in seq (Activity.Parent — the form a Repair-merged stream
// carries). passes bounds the projected-gradient iterations per dimension
// (≤ 0 selects 5): a bounded warm-started refresh, not a full refit — the
// batch Fit stays the deterministic oracle. Kernels are kept fixed
// (streaming refreshes are parametric updates; the nonparametric kernel
// estimator needs full batch passes).
//
// Deterministic: given equal (receiver parameters, seq, parents, passes) the
// returned model is bit-identical at any Workers setting — the M-step fans
// dimensions over the pool but each dimension's optimization reads only
// frozen state.
func (m *Model) RefitIncremental(ctx context.Context, seq *timeline.Sequence, parents []timeline.ActivityID, passes int) (*Model, error) {
	if seq == nil || seq.M != m.M {
		return nil, fmt.Errorf("core: refit sequence must have M=%d dimensions", m.M)
	}
	if err := seq.Check(); err != nil {
		return nil, fmt.Errorf("core: refit sequence: %w", err)
	}
	if parents == nil {
		parents = seq.GroundTruthParents()
	}
	if len(parents) != seq.Len() {
		return nil, fmt.Errorf("core: %d parent assignments for %d events", len(parents), seq.Len())
	}
	forest, err := branching.FromParents(parents)
	if err != nil {
		return nil, fmt.Errorf("core: refit parents: %w", err)
	}
	if passes <= 0 {
		passes = 5
	}

	out := m.cloneForRefit()
	work := seq.StripParents()
	out.seq = work
	out.Horizon = seq.Horizon
	out.Forest = forest
	out.cfg.MStepIters = passes
	var conf *conformity.Computer
	if m.Variant.ConformityAware {
		conf, err = conformity.NewOn(work, forest, out.cfg.Conformity, out.reads)
		if err != nil {
			return nil, fmt.Errorf("core: refit conformity: %w", err)
		}
	}
	out.Conf = conf
	if err := out.mStep(ctx, seqColumns(work), conf, nil); err != nil {
		return nil, err
	}
	for i := range out.Mu {
		if math.IsNaN(out.Mu[i]) || math.IsInf(out.Mu[i], 0) {
			return nil, fmt.Errorf("core: refit produced non-finite mu[%d]", i)
		}
	}
	out.Iterations = m.Iterations + 1
	return out, nil
}

// cloneForRefit deep-copies every field the M-step writes (and shares the
// frozen ones), so a refit can run while the original keeps serving.
func (m *Model) cloneForRefit() *Model {
	out := &Model{
		M: m.M, Variant: m.Variant, Horizon: m.Horizon,
		Mu:         append([]float64(nil), m.Mu...),
		params:     m.params.clone(),
		Kernels:    append([]kernel.Kernel(nil), m.Kernels...),
		Iterations: m.Iterations,
		cfg:        m.cfg, link: m.link,
		estepCalls: m.estepCalls, stepScale: m.stepScale,
		muLo: m.muLo, muHi: m.muHi,
		reads: m.reads,
	}
	return out
}
