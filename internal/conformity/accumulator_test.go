package conformity

import (
	"errors"
	"math"
	"testing"

	"chassis/internal/branching"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

// randomSeq builds a random polarity-annotated cascade sequence plus its
// observed forest, the fixture for streamed-vs-in-memory identity checks.
func randomSeq(seed int64, n, m int) (*timeline.Sequence, *branching.Forest, error) {
	r := rng.New(seed)
	np := timeline.NoParent
	seq := &timeline.Sequence{M: m, Horizon: float64(n) + 2}
	for i := 0; i < n; i++ {
		parent := np
		if i > 0 && r.Bernoulli(0.75) {
			parent = timeline.ActivityID(r.Intn(i))
		}
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(i), User: timeline.UserID(r.Intn(m)),
			Time: float64(i) + r.Float64()*0.5, Polarity: r.Uniform(-1, 1),
			Parent: parent,
		})
	}
	f, err := branching.FromSequence(seq)
	return seq, f, err
}

// TestAccumulatorMatchesNew: streaming the same events through an
// Accumulator and finalizing against the same forest must produce a
// Computer that answers every query bit-identically to New — the identity
// the out-of-core sharded fit's fingerprint contract rests on.
func TestAccumulatorMatchesNew(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seq, f, err := randomSeq(seed, 90, 6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(seq, f, Options{})
		if err != nil {
			t.Fatal(err)
		}
		acc := NewAccumulator(seq.M, Options{})
		for k := range seq.Activities {
			a := &seq.Activities[k]
			if err := acc.Append(a.Time, int(a.User), a.Polarity); err != nil {
				t.Fatal(err)
			}
		}
		if acc.Len() != seq.Len() {
			t.Fatalf("accumulator holds %d events, appended %d", acc.Len(), seq.Len())
		}
		got, err := acc.Finalize(f)
		if err != nil {
			t.Fatal(err)
		}

		wantPairs, gotPairs := want.ActivePairs(), got.ActivePairs()
		if len(wantPairs) != len(gotPairs) {
			t.Fatalf("seed %d: %d active pairs streamed, %d in-memory", seed, len(gotPairs), len(wantPairs))
		}
		for idx := range wantPairs {
			if wantPairs[idx] != gotPairs[idx] {
				t.Fatalf("seed %d: pair %d differs: %+v vs %+v", seed, idx, gotPairs[idx], wantPairs[idx])
			}
		}
		r := rng.New(seed + 1000)
		for trial := 0; trial < 200; trial++ {
			i, j := r.Intn(seq.M), r.Intn(seq.M)
			tm := r.Uniform(0, seq.Horizon)
			beta := r.Uniform(0.01, 20)
			ga, gd := got.InformationalGrad(i, j, tm, beta)
			wa, wd := want.InformationalGrad(i, j, tm, beta)
			for name, pair := range map[string][2]float64{
				"informational":  {ga, wa},
				"dBeta":          {gd, wd},
				"normative":      {got.Normative(i, j, tm), want.Normative(i, j, tm)},
				"context-stance": {got.ContextStance(i, j, tm), want.ContextStance(i, j, tm)},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("seed %d: %s(%d,%d,%g) = %g streamed, %g in-memory",
						seed, name, i, j, tm, pair[0], pair[1])
				}
			}
			if got.InteractionCount(i, j) != want.InteractionCount(i, j) {
				t.Fatalf("seed %d: InteractionCount(%d,%d) differs", seed, i, j)
			}
		}
	}
}

// TestAccumulatorOutOfOrder: a time regression must surface as
// *OutOfOrderError, not silently desynchronize the columns from the forest.
func TestAccumulatorOutOfOrder(t *testing.T) {
	acc := NewAccumulator(2, Options{})
	if err := acc.Append(1, 0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := acc.Append(1, 1, -0.5); err != nil {
		t.Fatalf("duplicate timestamp must be legal: %v", err)
	}
	err := acc.Append(0.5, 0, 0.1)
	var oe *OutOfOrderError
	if !errors.As(err, &oe) {
		t.Fatalf("out-of-order append returned %v, want *OutOfOrderError", err)
	}
	if oe.Index != 2 || oe.Time != 0.5 || oe.Prev != 1 {
		t.Fatalf("error fields %+v, want index 2, t=0.5, prev=1", oe)
	}
	if acc.Len() != 2 {
		t.Fatalf("rejected append must not grow the columns: len %d", acc.Len())
	}
}

// TestFinalizeRejectsOutOfRangeUser: a user id outside [0, m), as a child or
// only as a parent, is an input error from the build rather than a panic.
func TestFinalizeRejectsOutOfRangeUser(t *testing.T) {
	f, err := branching.FromParents32([]int32{-1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, users := range [][2]int{{0, 2}, {2, 0}, {-1, 1}} {
		acc := NewAccumulator(2, Options{})
		for k, u := range users {
			if err := acc.Append(float64(k), u, 0.5); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := acc.Finalize(f); err == nil {
			t.Errorf("users %v over 2 users: Finalize succeeded, want an error", users)
		}
	}
}

// TestFinalizeOnRejectsBadReadSet: a read set with the wrong number of rows,
// an id outside [0, m) or a row out of ascending order is an input error
// from both read-set entries.
func TestFinalizeOnRejectsBadReadSet(t *testing.T) {
	seq, f, err := randomSeq(3, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, reads := range [][][]int{{{1}, {0}}, {{1}, {0, 3}, {}}, {{}, {-1}, {}}, {{2, 1}, {}, {}}, {{}, {0, 0}, {}}} {
		if _, err := NewOn(seq, f, Options{}, reads); err == nil {
			t.Errorf("NewOn with read set %v succeeded, want an error", reads)
		}
		acc := NewAccumulator(seq.M, Options{})
		for _, a := range seq.Activities {
			if err := acc.Append(a.Time, int(a.User), a.Polarity); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := acc.FinalizeOn(f, reads); err == nil {
			t.Errorf("FinalizeOn with read set %v succeeded, want an error", reads)
		}
	}
}
