// Package branching represents the branching structure of a Hawkes process
// — equivalently, the collection of diffusion trees (Section 3.2/3.3 of the
// paper). A Forest assigns every activity either a parent activity or
// immigrant status; connected components are the diffusion trees
// (informational cascades). The package provides the tree operations
// conformity extraction needs (ancestor paths, lowest common ancestors) and
// the edge-set F1 metric used in Table 1.
package branching

import (
	"fmt"
	"math/bits"

	"chassis/internal/stats"
	"chassis/internal/timeline"
)

// Forest is an immutable branching structure over n activities. Parents are
// stored compactly as int32 (any negative value marks an immigrant; the
// canonical sentinel is -1, matching timeline.NoParent), which halves the
// resident size of streamed parent assignments — the only per-event state an
// out-of-core E-step keeps across the whole corpus.
type Forest struct {
	parents  []int32
	children [][]int32
	roots    []int32
	depth    []int32
	treeID   []int32 // root-component index per node
	up       [][]int32
	maxLog   int
}

// FromParents builds a forest from a parent assignment (NoParent marks
// immigrants). Parents must have smaller indices than their children —
// the chronological property every valid branching structure satisfies.
func FromParents(parents []timeline.ActivityID) (*Forest, error) {
	compact := make([]int32, len(parents))
	for i, p := range parents {
		if p == timeline.NoParent {
			compact[i] = -1
		} else {
			compact[i] = int32(p)
		}
	}
	return FromParents32(compact)
}

// FromParents32 is FromParents over the compact int32 representation the
// streamed (sharded) E-step fills: -1 marks immigrants. The slice is adopted,
// not copied — the forest owns it afterwards (it also backs the level-0 LCA
// lifting table), so the caller must not mutate it. Use FromParents when the
// buffer is reused.
func FromParents32(parents []int32) (*Forest, error) {
	n := len(parents)
	f := &Forest{
		parents:  parents,
		children: make([][]int32, n),
		depth:    make([]int32, n),
		treeID:   make([]int32, n),
	}
	for i, p := range parents {
		if p < 0 {
			if p != -1 {
				return nil, fmt.Errorf("branching: node %d has out-of-range parent %d", i, p)
			}
			f.roots = append(f.roots, int32(i))
			f.treeID[i] = int32(len(f.roots) - 1)
			continue
		}
		if int(p) >= n {
			return nil, fmt.Errorf("branching: node %d has out-of-range parent %d", i, p)
		}
		if int(p) >= i {
			return nil, fmt.Errorf("branching: node %d has non-preceding parent %d", i, p)
		}
		f.children[p] = append(f.children[p], int32(i))
		f.depth[i] = f.depth[p] + 1
		f.treeID[i] = f.treeID[p]
	}
	// Binary-lifting table for LCA queries; the compact parent vector doubles
	// as level 0 (immigrants are already -1).
	maxDepth := int32(0)
	for _, d := range f.depth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	f.maxLog = bits.Len32(uint32(maxDepth)) + 1
	f.up = make([][]int32, f.maxLog)
	f.up[0] = parents
	for l := 1; l < f.maxLog; l++ {
		prev := f.up[l-1]
		cur := make([]int32, n)
		for i := 0; i < n; i++ {
			if prev[i] < 0 {
				cur[i] = -1
			} else {
				cur[i] = prev[prev[i]]
			}
		}
		f.up[l] = cur
	}
	return f, nil
}

// FromSequence builds the ground-truth forest recorded in a dataset.
func FromSequence(seq *timeline.Sequence) (*Forest, error) {
	return FromParents(seq.GroundTruthParents())
}

// Len returns the number of nodes.
func (f *Forest) Len() int { return len(f.parents) }

// Parent returns the parent of node i (NoParent for immigrants).
func (f *Forest) Parent(i int) timeline.ActivityID { return timeline.ActivityID(f.parents[i]) }

// Parents returns a copy of the full parent assignment.
func (f *Forest) Parents() []timeline.ActivityID {
	out := make([]timeline.ActivityID, len(f.parents))
	for i, p := range f.parents {
		out[i] = timeline.ActivityID(p)
	}
	return out
}

// IsImmigrant reports whether node i has no parent.
func (f *Forest) IsImmigrant(i int) bool { return f.parents[i] < 0 }

// Children returns the direct offspring of node i.
func (f *Forest) Children(i int) []int {
	out := make([]int, len(f.children[i]))
	for k, c := range f.children[i] {
		out[k] = int(c)
	}
	return out
}

// Roots returns the immigrant nodes (one per diffusion tree).
func (f *Forest) Roots() []int {
	out := make([]int, len(f.roots))
	for k, r := range f.roots {
		out[k] = int(r)
	}
	return out
}

// NumTrees returns the number of diffusion trees.
func (f *Forest) NumTrees() int { return len(f.roots) }

// Depth returns the generation of node i (0 for immigrants).
func (f *Forest) Depth(i int) int { return int(f.depth[i]) }

// TreeID returns the index (into Roots order) of the tree containing i.
func (f *Forest) TreeID(i int) int { return int(f.treeID[i]) }

// SameTree reports whether a and b belong to the same cascade.
func (f *Forest) SameTree(a, b int) bool { return f.treeID[a] == f.treeID[b] }

// ancestorAt lifts node i up by k generations (-1 if lifted past a root).
func (f *Forest) ancestorAt(i int, k int) int32 {
	cur := int32(i)
	for l := 0; k > 0 && cur >= 0; l++ {
		if k&1 == 1 {
			cur = f.up[l][cur]
		}
		k >>= 1
	}
	return cur
}

// IsAncestor reports whether a is a (strict or equal) ancestor of b.
func (f *Forest) IsAncestor(a, b int) bool {
	if !f.SameTree(a, b) {
		return false
	}
	da, db := f.depth[a], f.depth[b]
	if da > db {
		return false
	}
	return f.ancestorAt(b, int(db-da)) == int32(a)
}

// LCA returns the lowest common ancestor of a and b, or -1 when they belong
// to different trees.
func (f *Forest) LCA(a, b int) int {
	if !f.SameTree(a, b) {
		return -1
	}
	x, y := int32(a), int32(b)
	if f.depth[x] < f.depth[y] {
		x, y = y, x
	}
	x = f.ancestorAt(int(x), int(f.depth[x]-f.depth[y]))
	if x == y {
		return int(x)
	}
	for l := f.maxLog - 1; l >= 0; l-- {
		if f.up[l][x] != f.up[l][y] {
			x = f.up[l][x]
			y = f.up[l][y]
		}
	}
	return int(f.up[0][x])
}

// PathToRoot returns the nodes from i up to its root, inclusive.
func (f *Forest) PathToRoot(i int) []int {
	var out []int
	cur := int32(i)
	for cur >= 0 {
		out = append(out, int(cur))
		cur = f.up[0][cur]
	}
	return out
}

// OffspringCountByUser returns ℕᵢ(T) of Eq. 5.1 — how many *offspring*
// activities each user has over the whole window — given the owning
// sequence.
func (f *Forest) OffspringCountByUser(seq *timeline.Sequence) []int {
	out := make([]int, seq.M)
	for i := range f.parents {
		if f.parents[i] >= 0 {
			out[seq.Activities[i].User]++
		}
	}
	return out
}

// Stats summarizes a forest's shape.
type Stats struct {
	Nodes, Trees    int
	Immigrants      int
	MaxDepth        int
	MeanTreeSize    float64
	LargestTreeSize int
}

// Summarize computes forest statistics.
func (f *Forest) Summarize() Stats {
	s := Stats{Nodes: f.Len(), Trees: f.NumTrees(), Immigrants: len(f.roots)}
	sizes := make(map[int32]int)
	for i := range f.parents {
		sizes[f.treeID[i]]++
		if d := int(f.depth[i]); d > s.MaxDepth {
			s.MaxDepth = d
		}
	}
	for _, sz := range sizes {
		if sz > s.LargestTreeSize {
			s.LargestTreeSize = sz
		}
	}
	if len(sizes) > 0 {
		s.MeanTreeSize = float64(f.Len()) / float64(len(sizes))
	}
	return s
}

// Score compares an inferred forest against ground truth over the
// parent-child edge sets, yielding the precision/recall/F1 reported in
// Table 1. Both forests must cover the same nodes. Immigrant designations
// contribute as "edges to nobody": an activity both forests call an
// immigrant counts as a hit, matching how branching-structure inference is
// scored (each node has exactly one label — its parent or "immigrant").
type Score struct {
	Precision, Recall, F1 float64
	Correct               int
	Total                 int
}

// CompareForests scores inferred against truth by exact per-node parent
// agreement. Because every node carries exactly one assignment in each
// forest, precision equals recall here; the struct keeps the three fields
// so asymmetric comparators (e.g. probabilistic top-k output) can reuse it.
func CompareForests(inferred, truth *Forest) (Score, error) {
	if inferred.Len() != truth.Len() {
		return Score{}, fmt.Errorf("branching: comparing forests of %d vs %d nodes", inferred.Len(), truth.Len())
	}
	n := inferred.Len()
	correct := 0
	for i := 0; i < n; i++ {
		if inferred.parents[i] == truth.parents[i] {
			correct++
		}
	}
	if n == 0 {
		return Score{}, nil
	}
	p := float64(correct) / float64(n)
	return Score{Precision: p, Recall: p, F1: stats.F1(p, p), Correct: correct, Total: n}, nil
}

// CompareEdges scores only the offspring edges (ignoring agreement on
// immigrants), the stricter variant: precision over inferred edges, recall
// over true edges.
func CompareEdges(inferred, truth *Forest) (Score, error) {
	if inferred.Len() != truth.Len() {
		return Score{}, fmt.Errorf("branching: comparing forests of %d vs %d nodes", inferred.Len(), truth.Len())
	}
	var hit, inf, tru int
	for i := 0; i < inferred.Len(); i++ {
		pi, pt := inferred.parents[i], truth.parents[i]
		if pi >= 0 {
			inf++
		}
		if pt >= 0 {
			tru++
		}
		if pi >= 0 && pi == pt {
			hit++
		}
	}
	var precision, recall float64
	if inf > 0 {
		precision = float64(hit) / float64(inf)
	}
	if tru > 0 {
		recall = float64(hit) / float64(tru)
	}
	return Score{Precision: precision, Recall: recall, F1: stats.F1(precision, recall), Correct: hit, Total: tru}, nil
}
