package core

import (
	"context"
	"math"
	"testing"

	"chassis/internal/timeline"
)

// fitIncrementalFixture fits a compact conformity-aware model for the
// incremental-mode tests.
func fitIncrementalFixture(t *testing.T) (*Model, *timeline.Sequence) {
	t.Helper()
	d := smallDataset(t, 17)
	m, err := Fit(d.Seq, quickCfg(VariantL))
	if err != nil {
		t.Fatal(err)
	}
	return m, d.Seq
}

// TestMAPParentStreamingEqualsBatch is the E-step replay identity: scoring
// events one at a time as a cascade grows assigns exactly the parents a
// one-pass batch assignment over the full sequence does, because each
// event's triggering distribution reads only its own past.
func TestMAPParentStreamingEqualsBatch(t *testing.T) {
	m, seq := fitIncrementalFixture(t)
	from := seq.Len() - 25
	batch, err := m.AssignParents(seq, from)
	if err != nil {
		t.Fatal(err)
	}
	for k := from; k < seq.Len(); k++ {
		// The streaming view: only events up to k exist yet.
		prefix := &timeline.Sequence{M: seq.M, Horizon: seq.Activities[k].Time,
			Activities: seq.Activities[:k+1]}
		got, err := m.MAPParent(prefix, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != batch[k-from] {
			t.Fatalf("event %d: streaming parent %d != batch parent %d", k, got, batch[k-from])
		}
	}
	// Assignments must point strictly backwards.
	for idx, p := range batch {
		if p != timeline.NoParent && int(p) >= from+idx {
			t.Fatalf("assignment %d points forward (parent %d)", idx, p)
		}
	}
}

// TestMAPParentMatchesMAPEStep pins the contract MAPParent's comment
// claims: under one conformity snapshot (m.Conf), assigning every event its
// MAP parent equals a MAP E-step pass with no previous forest. The two share
// scoreParents and argmaxFirst but keep their own window starts — the
// E-step's chunks slide one against the largest kernel support, MAPParent
// searches against the event's own — so this also checks that both see the
// same candidates. Both E-step weight rules are covered.
func TestMAPParentMatchesMAPEStep(t *testing.T) {
	forceSmallChunks(t, 48)
	rules := []string{"papangelou", "linear-ratio"}
	linked := make([]int, len(rules)) // events given a parent, per rule
	for _, v := range []Variant{VariantL, VariantE, VariantLHP, VariantEHP, VariantLI, VariantEN} {
		for ri, rule := range rules {
			t.Run(v.Name()+"/"+rule, func(t *testing.T) {
				for _, seed := range []int64{17, 41, 52} {
					d := smallDataset(t, seed)
					cfg := quickCfg(v)
					cfg.LinearRatioEStep = ri == 1
					m, err := Fit(d.Seq, cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := m.eStepMode(context.Background(), newSeqSource(d.Seq.StripParents()), m.Conf, true, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					got, err := m.AssignParents(d.Seq, 0)
					if err != nil {
						t.Fatal(err)
					}
					for k, p := range got {
						if p != want.Parent(k) {
							t.Fatalf("seed %d: event %d: MAPParent %d, MAP E-step %d", seed, k, p, want.Parent(k))
						}
						if p != timeline.NoParent {
							linked[ri]++
						}
					}
				}
			})
		}
	}
	// The exp-link conformity fits link nothing under the Papangelou rule
	// on these corpora; the linear-link ones must, so neither rule's
	// comparison is vacuous.
	for ri, rule := range rules {
		if linked[ri] == 0 {
			t.Errorf("%s: no event got a parent, the comparison is vacuous", rule)
		}
	}
}

// TestMAPParentDeterministic pins that repeated scoring is identical and
// advances no hidden state (the in-fit E-steps bump an RNG counter; the
// incremental scorer must not).
func TestMAPParentDeterministic(t *testing.T) {
	m, seq := fitIncrementalFixture(t)
	k := seq.Len() - 1
	a, err := m.MAPParent(seq, k)
	if err != nil {
		t.Fatal(err)
	}
	calls := m.estepCalls
	b, _ := m.MAPParent(seq, k)
	if a != b {
		t.Fatal("repeated MAPParent diverged")
	}
	if m.estepCalls != calls {
		t.Fatal("MAPParent advanced the E-step RNG counter")
	}
}

// TestRefitIncrementalDeterministicAcrossWorkers pins the acceptance
// criterion: the mini-batch refresh is bit-identical at Workers 1, 2, and 8.
func TestRefitIncrementalDeterministicAcrossWorkers(t *testing.T) {
	m, seq := fitIncrementalFixture(t)
	var ref *Model
	for _, workers := range []int{1, 2, 8} {
		m.SetWorkers(workers)
		got, err := m.RefitIncremental(context.Background(), seq, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = got
			continue
		}
		g, r := mirrorOf(got), mirrorOf(ref)
		for i := 0; i < m.M; i++ {
			if got.Mu[i] != ref.Mu[i] {
				t.Fatalf("workers=%d: Mu[%d] = %v != %v", workers, i, got.Mu[i], ref.Mu[i])
			}
			for j := 0; j < m.M; j++ {
				if g.gammaI[i][j] != r.gammaI[i][j] || g.gammaN[i][j] != r.gammaN[i][j] || g.beta[i][j] != r.beta[i][j] {
					t.Fatalf("workers=%d: conformity params diverge at (%d,%d)", workers, i, j)
				}
			}
		}
	}
}

// TestRefitIncrementalLeavesReceiverUntouched: the refit returns a new
// model; the serving model's parameters must not move while it is pinned by
// in-flight requests.
func TestRefitIncrementalLeavesReceiverUntouched(t *testing.T) {
	m, seq := fitIncrementalFixture(t)
	muBefore := append([]float64(nil), m.Mu...)
	giBefore := mirrorOf(m).gammaI[0]
	out, err := m.RefitIncremental(context.Background(), seq, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range muBefore {
		if m.Mu[i] != muBefore[i] {
			t.Fatal("refit mutated the receiver's Mu")
		}
	}
	giAfter := mirrorOf(m).gammaI[0]
	for j := range giBefore {
		if giAfter[j] != giBefore[j] {
			t.Fatal("refit mutated the receiver's GammaI")
		}
	}
	if out == m {
		t.Fatal("refit returned the receiver")
	}
	for i := range out.Mu {
		if math.IsNaN(out.Mu[i]) || math.IsInf(out.Mu[i], 0) {
			t.Fatal("refit produced non-finite mu")
		}
	}
	if out.Iterations != m.Iterations+1 {
		t.Fatalf("refit iterations %d, want %d", out.Iterations, m.Iterations+1)
	}
	// The refitted model must still be simulable (the registry installs its
	// Process).
	if err := out.Process().Validate(); err != nil {
		t.Fatalf("refitted model not simulable: %v", err)
	}
}

// TestRefitIncrementalRepeatedIsIdentical: a pure function of its inputs.
func TestRefitIncrementalRepeatedIsIdentical(t *testing.T) {
	m, seq := fitIncrementalFixture(t)
	a, err := m.RefitIncremental(context.Background(), seq, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.RefitIncremental(context.Background(), seq, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Mu {
		if a.Mu[i] != b.Mu[i] {
			t.Fatal("repeated refit diverged")
		}
	}
}

// TestRefitIncrementalValidation exercises the front door.
func TestRefitIncrementalValidation(t *testing.T) {
	m, seq := fitIncrementalFixture(t)
	if _, err := m.RefitIncremental(context.Background(), nil, nil, 3); err == nil {
		t.Error("nil sequence accepted")
	}
	wrongM := &timeline.Sequence{M: m.M + 1, Horizon: 10}
	if _, err := m.RefitIncremental(context.Background(), wrongM, nil, 3); err == nil {
		t.Error("dimension mismatch accepted")
	}
	short := make([]timeline.ActivityID, 3)
	if _, err := m.RefitIncremental(context.Background(), seq, short, 3); err == nil {
		t.Error("short parent vector accepted")
	}
	if _, err := m.MAPParent(seq, seq.Len()); err == nil {
		t.Error("out-of-range event index accepted")
	}
}
