package branching

import (
	"math/rand"
	"testing"
	"testing/quick"

	"chassis/internal/timeline"
)

// buildForest wires the canonical test forest:
//
//	0 ── 1 ── 3
//	 \    └── 4 ── 6
//	  └─ 2
//	5 ── 7          (second tree)
func buildForest(t *testing.T) *Forest {
	t.Helper()
	np := timeline.NoParent
	f, err := FromParents([]timeline.ActivityID{np, 0, 0, 1, 1, np, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFromParentsValidation(t *testing.T) {
	np := timeline.NoParent
	if _, err := FromParents([]timeline.ActivityID{np, 5}); err == nil {
		t.Error("out-of-range parent must fail")
	}
	if _, err := FromParents([]timeline.ActivityID{1, np}); err == nil {
		t.Error("forward parent must fail")
	}
	if _, err := FromParents([]timeline.ActivityID{0, np}); err == nil {
		t.Error("self/forward parent must fail")
	}
	empty, err := FromParents(nil)
	if err != nil || empty.Len() != 0 || empty.NumTrees() != 0 {
		t.Error("empty forest must build")
	}
}

func TestBasicAccessors(t *testing.T) {
	f := buildForest(t)
	if f.Len() != 8 {
		t.Fatalf("Len = %d", f.Len())
	}
	if f.NumTrees() != 2 {
		t.Fatalf("NumTrees = %d", f.NumTrees())
	}
	if got := f.Roots(); len(got) != 2 || got[0] != 0 || got[1] != 5 {
		t.Errorf("Roots = %v", got)
	}
	if !f.IsImmigrant(0) || f.IsImmigrant(3) {
		t.Error("immigrant flags wrong")
	}
	if f.Parent(3) != 1 || f.Parent(0) != timeline.NoParent {
		t.Error("Parent wrong")
	}
	if got := f.Children(1); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Errorf("Children(1) = %v", got)
	}
	if f.Depth(0) != 0 || f.Depth(3) != 2 || f.Depth(6) != 3 {
		t.Error("depths wrong")
	}
	if f.TreeID(6) != f.TreeID(2) || f.TreeID(7) == f.TreeID(0) {
		t.Error("tree IDs wrong")
	}
	if !f.SameTree(3, 6) || f.SameTree(3, 7) {
		t.Error("SameTree wrong")
	}
	var tree []int
	for i := 0; i < f.Len(); i++ {
		if f.TreeID(i) == f.TreeID(5) {
			tree = append(tree, i)
		}
	}
	if len(tree) != 2 || tree[0] != 5 || tree[1] != 7 {
		t.Errorf("tree of node 5 = %v", tree)
	}
	ps := f.Parents()
	ps[0] = 7
	if f.Parent(0) != timeline.NoParent {
		t.Error("Parents must return a copy")
	}
}

func TestAncestryAndLCA(t *testing.T) {
	f := buildForest(t)
	cases := []struct {
		a, b int
		lca  int
	}{
		{3, 4, 1}, {3, 6, 1}, {2, 6, 0}, {0, 6, 0},
		{1, 1, 1}, {4, 6, 4}, {3, 2, 0},
	}
	for _, c := range cases {
		if got := f.LCA(c.a, c.b); got != c.lca {
			t.Errorf("LCA(%d,%d) = %d, want %d", c.a, c.b, got, c.lca)
		}
		if got := f.LCA(c.b, c.a); got != c.lca {
			t.Errorf("LCA(%d,%d) symmetric = %d, want %d", c.b, c.a, got, c.lca)
		}
	}
	if f.LCA(3, 7) != -1 {
		t.Error("cross-tree LCA must be -1")
	}
	if !f.IsAncestor(0, 6) || !f.IsAncestor(1, 3) || !f.IsAncestor(4, 4) {
		t.Error("IsAncestor misses true ancestors")
	}
	if f.IsAncestor(3, 4) || f.IsAncestor(6, 4) || f.IsAncestor(5, 6) {
		t.Error("IsAncestor accepts non-ancestors")
	}
}

func TestPathToRoot(t *testing.T) {
	f := buildForest(t)
	got := f.PathToRoot(6)
	want := []int{6, 4, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("PathToRoot = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PathToRoot = %v, want %v", got, want)
		}
	}
	if p := f.PathToRoot(5); len(p) != 1 || p[0] != 5 {
		t.Errorf("root path = %v", p)
	}
}

func TestOffspringCountByUser(t *testing.T) {
	f := buildForest(t)
	seq := &timeline.Sequence{M: 3, Horizon: 10}
	users := []timeline.UserID{0, 1, 2, 0, 1, 2, 0, 1}
	for i, u := range users {
		seq.Activities = append(seq.Activities, timeline.Activity{
			ID: timeline.ActivityID(i), User: u, Time: float64(i), Parent: f.Parent(i),
		})
	}
	counts := f.OffspringCountByUser(seq)
	// Offspring nodes: 1,2,3,4,6,7 with users 1,2,0,1,0,1.
	if counts[0] != 2 || counts[1] != 3 || counts[2] != 1 {
		t.Errorf("offspring counts = %v", counts)
	}
}

func TestSummarize(t *testing.T) {
	f := buildForest(t)
	s := f.Summarize()
	if s.Nodes != 8 || s.Trees != 2 || s.Immigrants != 2 {
		t.Errorf("Stats basics wrong: %+v", s)
	}
	if s.MaxDepth != 3 || s.LargestTreeSize != 6 || s.MeanTreeSize != 4 {
		t.Errorf("Stats shape wrong: %+v", s)
	}
}

func TestCompareForests(t *testing.T) {
	truth := buildForest(t)
	same, err := CompareForests(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if same.F1 != 1 || same.Correct != 8 {
		t.Errorf("self comparison = %+v", same)
	}
	np := timeline.NoParent
	// Flip two assignments: node 3's parent to 2, node 7 to immigrant.
	inf, err := FromParents([]timeline.ActivityID{np, 0, 0, 2, 1, np, 4, np})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := CompareForests(inf, truth)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Correct != 6 || sc.Total != 8 {
		t.Errorf("Correct/Total = %d/%d", sc.Correct, sc.Total)
	}
	if sc.F1 != 0.75 {
		t.Errorf("F1 = %g, want 0.75", sc.F1)
	}
	if _, err := CompareForests(inf, &Forest{}); err == nil {
		t.Error("size mismatch must fail")
	}
}

func TestCompareEdges(t *testing.T) {
	truth := buildForest(t)
	np := timeline.NoParent
	// Inferred: node 1 correct, node 2 wrong parent, node 3 called
	// immigrant (missed edge), others correct.
	inf, err := FromParents([]timeline.ActivityID{np, 0, 1, np, 1, np, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := CompareEdges(inf, truth)
	if err != nil {
		t.Fatal(err)
	}
	// True edges: 6 (nodes 1,2,3,4,6,7). Inferred edges: 5 (1,2,4,6,7).
	// Hits: 1,4,6,7 = 4.
	if sc.Correct != 4 {
		t.Errorf("edge hits = %d, want 4", sc.Correct)
	}
	if sc.Precision != 4.0/5.0 || sc.Recall != 4.0/6.0 {
		t.Errorf("P/R = %g/%g", sc.Precision, sc.Recall)
	}
	empty, _ := FromParents(nil)
	if _, err := CompareEdges(empty, truth); err == nil {
		t.Error("size mismatch must fail")
	}
}

// Property: for random forests, LCA(a,b) is an ancestor of both, and its
// depth is maximal among common ancestors found by brute force.
func TestLCAProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60) + 2
		parents := make([]timeline.ActivityID, n)
		for i := range parents {
			if i == 0 || r.Intn(4) == 0 {
				parents[i] = timeline.NoParent
			} else {
				parents[i] = timeline.ActivityID(r.Intn(i))
			}
		}
		forest, err := FromParents(parents)
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			a, b := r.Intn(n), r.Intn(n)
			got := forest.LCA(a, b)
			// Brute force: intersect ancestor paths.
			pa := forest.PathToRoot(a)
			inA := map[int]bool{}
			for _, x := range pa {
				inA[x] = true
			}
			want := -1
			for _, x := range forest.PathToRoot(b) {
				if inA[x] {
					want = x
					break
				}
			}
			if got != want {
				return false
			}
			if got >= 0 && (!forest.IsAncestor(got, a) || !forest.IsAncestor(got, b)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: depths are consistent with parent links and tree IDs are
// constant along paths.
func TestForestInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(80) + 1
		parents := make([]timeline.ActivityID, n)
		for i := range parents {
			if i == 0 || r.Intn(3) == 0 {
				parents[i] = timeline.NoParent
			} else {
				parents[i] = timeline.ActivityID(r.Intn(i))
			}
		}
		forest, err := FromParents(parents)
		if err != nil {
			return false
		}
		immigrants := 0
		for i := 0; i < n; i++ {
			if forest.IsImmigrant(i) {
				immigrants++
				if forest.Depth(i) != 0 {
					return false
				}
				continue
			}
			p := int(forest.Parent(i))
			if forest.Depth(i) != forest.Depth(p)+1 {
				return false
			}
			if forest.TreeID(i) != forest.TreeID(p) {
				return false
			}
		}
		return immigrants == forest.NumTrees()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
