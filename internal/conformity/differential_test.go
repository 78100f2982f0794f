package conformity

import (
	"math"
	"slices"
	"sort"
	"testing"

	"chassis/internal/branching"
	"chassis/internal/rng"
	"chassis/internal/stats"
	"chassis/internal/timeline"
)

// refSeries is the reference layout the CSR store must reproduce: one
// pair's samples appended one at a time, each prefix-moment slice grown by
// append behind a leading zero.
type refSeries struct {
	times                       []float64
	sx, sy, sxx, syy, sxy, ssgn []float64
}

func newRefSeries() *refSeries {
	return &refSeries{
		sx: []float64{0}, sy: []float64{0}, sxx: []float64{0},
		syy: []float64{0}, sxy: []float64{0}, ssgn: []float64{0},
	}
}

func (s *refSeries) add(t, x, y float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		x, y = 0, 0
	}
	n := len(s.times)
	s.times = append(s.times, t)
	s.sx = append(s.sx, s.sx[n]+x)
	s.sy = append(s.sy, s.sy[n]+y)
	s.sxx = append(s.sxx, s.sxx[n]+x*x)
	s.syy = append(s.syy, s.syy[n]+y*y)
	s.sxy = append(s.sxy, s.sxy[n]+x*y)
	sg := 0.0
	if p := x * y; p > 0 {
		sg = 1
	} else if p < 0 {
		sg = -1
	}
	s.ssgn = append(s.ssgn, s.ssgn[n]+sg)
}

func (s *refSeries) corrAt(t float64) float64 {
	k := sort.SearchFloat64s(s.times, math.Nextafter(t, math.Inf(1)))
	if k == 0 {
		return 0
	}
	n := float64(k)
	agree := s.ssgn[k] / n
	cov := s.sxy[k] - s.sx[k]*s.sy[k]/n
	vx := s.sxx[k] - s.sx[k]*s.sx[k]/n
	vy := s.syy[k] - s.sy[k]*s.sy[k]/n
	if k < 2 || vx <= 1e-15 || vy <= 1e-15 {
		return agree
	}
	r := cov / math.Sqrt(vx*vy)
	if math.IsNaN(r) {
		return agree
	}
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return (n*r + 3*agree) / (n + 3)
}

// refComputer is the reference build: a map of per-pair series, each grown
// by appends in stream order — informational samples in index order, then
// the normative contributions of every cascade (grouped by scanning all
// nodes for each tree id) in stable time order. strided lists, for each
// tree whose pairs exceed MaxTreePairs, the (receiver, source) keys of its
// cross-path pairs in the order the stride counts them.
type refComputer struct {
	pairs     map[[2]int32]*[2]*refSeries // [info, norm]
	offspring [][]float64
	strided   [][][2]int32
}

func buildRef(m int, times []float64, users []int32, polar []float64, f *branching.Forest, opts Options) *refComputer {
	opts.fill()
	c := &refComputer{pairs: map[[2]int32]*[2]*refSeries{}, offspring: make([][]float64, m)}
	pair := func(i, j int32) *[2]*refSeries {
		p, ok := c.pairs[[2]int32{i, j}]
		if !ok {
			p = &[2]*refSeries{newRefSeries(), newRefSeries()}
			c.pairs[[2]int32{i, j}] = p
		}
		return p
	}
	for k := range times {
		parent := f.Parent(k)
		if parent < 0 {
			continue
		}
		i, j := users[k], users[parent]
		c.offspring[i] = append(c.offspring[i], times[k])
		if i == j && !opts.IncludeSelf {
			continue
		}
		pair(i, j)[0].add(times[k], polar[parent], polar[k])
	}
	for i := range c.offspring {
		sort.Float64s(c.offspring[i])
	}

	type contrib struct {
		t           float64
		e1, e2, lca int
	}
	var contribs []contrib
	for id := 0; id < f.NumTrees(); id++ {
		var nodes []int
		for k := range times {
			if f.TreeID(k) == id {
				nodes = append(nodes, k)
			}
		}
		n := len(nodes)
		total := n * (n - 1) / 2
		stride := 1
		if total > opts.MaxTreePairs {
			stride = (total + opts.MaxTreePairs - 1) / opts.MaxTreePairs
		}
		count := 0
		var counted [][2]int32
		for b := 1; b < n; b++ {
			for a := 0; a < b; a++ {
				e1, e2 := nodes[a], nodes[b]
				if users[e1] == users[e2] && !opts.IncludeSelf || times[e1] >= times[e2] {
					continue
				}
				anc := f.IsAncestor(e1, e2)
				if !anc && opts.DisableLCA {
					continue
				}
				lca := -1
				if !anc {
					count++
					counted = append(counted, [2]int32{users[e2], users[e1]})
					if stride > 1 && count%stride != 0 {
						continue
					}
					lca = f.LCA(e1, e2)
				}
				contribs = append(contribs, contrib{times[e2], e1, e2, lca})
			}
		}
		if stride > 1 {
			c.strided = append(c.strided, counted)
		}
	}
	sort.SliceStable(contribs, func(a, b int) bool { return contribs[a].t < contribs[b].t })
	qj := map[[2]int32]*stats.PearsonAcc{}
	qi := map[[2]int32]*stats.PearsonAcc{}
	acc := func(q map[[2]int32]*stats.PearsonAcc, k [2]int32) *stats.PearsonAcc {
		if q[k] == nil {
			q[k] = &stats.PearsonAcc{}
		}
		return q[k]
	}
	for _, nc := range contribs {
		key := [2]int32{users[nc.e2], users[nc.e1]}
		p := pair(key[0], key[1])
		x, y := polar[nc.e1], polar[nc.e2]
		if nc.lca < 0 {
			p[1].add(nc.t, x, y)
			continue
		}
		aj, ai := acc(qj, key), acc(qi, key)
		aj.Add(x, polar[nc.lca])
		ai.Add(y, polar[nc.lca])
		p[1].add(nc.t, corrOrSeed(aj, x, polar[nc.lca]), corrOrSeed(ai, y, polar[nc.lca]))
	}
	return c
}

// inReads reports whether pair (i, j) is in the read set (every pair when
// reads is nil).
func inReads(reads [][]int, i, j int) bool {
	return reads == nil || i >= 0 && i < len(reads) && slices.Contains(reads[i], j)
}

// restrict returns the reference with only the pairs of the read set: what
// a read-set build must answer, since it keeps every in-set pair's series
// whole and the receivers' offspring times untouched.
func (c *refComputer) restrict(reads [][]int) *refComputer {
	out := &refComputer{pairs: map[[2]int32]*[2]*refSeries{}, offspring: c.offspring}
	for k, p := range c.pairs {
		if inReads(reads, int(k[0]), int(k[1])) {
			out.pairs[k] = p
		}
	}
	return out
}

// filteredFirst reports whether some tree under a MaxTreePairs stride
// counts a cross-path pair outside the read set before one inside it: the
// case where filtering before the stride count could change the subsample.
func (c *refComputer) filteredFirst(reads [][]int) bool {
	for _, keys := range c.strided {
		out := false
		for _, k := range keys {
			if !inReads(reads, int(k[0]), int(k[1])) {
				out = true
			} else if out {
				return true
			}
		}
	}
	return false
}

func (c *refComputer) series(i, j int, kind int) *refSeries {
	p := c.pairs[[2]int32{int32(i), int32(j)}]
	if p == nil {
		return nil
	}
	return p[kind]
}

func (c *refComputer) influenceDegreeGrad(i, j int, t, beta float64) (float64, float64) {
	s := c.series(i, j, 0)
	if s == nil || len(s.times) == 0 {
		return 0, 0
	}
	n := sort.Search(len(c.offspring[i]), func(k int) bool { return c.offspring[i][k] > t })
	if n == 0 {
		return 0, 0
	}
	cur := DecayCursor{times: s.times, beta: beta}
	sum, dsum := cur.At(t)
	inv := 1 / float64(n)
	return sum * inv, dsum * inv
}

func (c *refComputer) contextStance(i, j int, t float64) float64 {
	if s := c.series(i, j, 0); s != nil {
		return s.corrAt(t)
	}
	return 0
}

func (c *refComputer) normative(i, j int, t float64) float64 {
	if s := c.series(i, j, 1); s != nil {
		return s.corrAt(t)
	}
	return 0
}

// buildCase decodes bytes into a conformity build input: a few users (some
// never active), chronological times with ties, random earlier parents,
// polarities including NaN and ±Inf, random IncludeSelf, DisableLCA and
// small MaxTreePairs strides, a decay rate from the M-step's box, and a
// read set. Missing bytes read as zero.
//
// The read set is read backwards from the last bytes without consuming
// them, so drawing it moves no event: a last byte that is a multiple of 5
// keeps every pair (nil); otherwise the byte before it decides user 0's
// row, the one before that user 1's, and so on — empty, full, or the users
// whose bit is set.
func buildCase(data []byte) (m int, times []float64, users []int32, polar []float64, parents []int32, reads [][]int, opts Options, beta float64) {
	tail := data
	defer func() {
		if len(tail) == 0 || tail[len(tail)-1]%5 == 0 {
			return
		}
		reads = make([][]int, m)
		for i := range reads {
			b := 0
			if k := len(tail) - 2 - i; k >= 0 {
				b = int(tail[k])
			}
			reads[i] = []int{}
			for j := 0; j < m; j++ {
				if b%4 == 1 || b%4 >= 2 && b>>(2+j%6)&1 == 1 {
					reads[i] = append(reads[i], j)
				}
			}
		}
	}()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	active := 1 + next()%6
	m = active + next()%3 // users beyond active post nothing: pairless
	flags := next()
	opts = Options{IncludeSelf: flags&1 != 0, DisableLCA: flags&2 != 0, MaxTreePairs: (flags >> 2) % 8}
	beta = []float64{0.01, 0.05, 0.3, 1, 1.7, 4, 9, 20}[flags>>5]
	n := len(data) / 4
	if n > 64 {
		n = 64
	}
	tm := 0.0
	for k := 0; k < n; k++ {
		if dt := next(); dt%3 != 0 { // otherwise a tie with the previous event
			tm += float64(dt) / 64
		}
		users = append(users, int32(next()%active))
		parent := int32(-1)
		if b := next(); k > 0 && b%4 != 0 {
			parent = int32(k - 1 - (b/4)%k)
		}
		parents = append(parents, parent)
		var p float64
		switch b := next(); {
		case b == 255:
			p = math.NaN()
		case b == 254:
			p = math.Inf(1)
		case b == 253:
			p = math.Inf(-1)
		default:
			p = float64(b)/126 - 1
		}
		times = append(times, tm)
		polar = append(polar, p)
	}
	return m, times, users, polar, parents, reads, opts, beta
}

// checkBuildAgainstReference builds the decoded case through the streamed
// Accumulator path and through the reference, and requires every public
// query to agree bit for bit at every event time and between them, for
// every pair including pairless and out-of-range users. It then builds the
// case on its read set through both read-set entries, FinalizeOn and NewOn,
// and requires the same of the reference restricted to the read set: every
// in-set pair answers as in the all-pairs build, every other pair answers
// 0, and the active pairs are the reference's in-set pairs. It returns
// whether a filtered-out cross-path pair was counted before a kept one
// under a MaxTreePairs stride.
func checkBuildAgainstReference(t *testing.T, data []byte) (filteredFirst bool) {
	t.Helper()
	m, times, users, polar, parents, reads, opts, beta := buildCase(data)
	f, err := branching.FromParents32(parents)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewAccumulator(m, opts)
	for k := range times {
		if err := acc.Append(times[k], int(users[k]), polar[k]); err != nil {
			t.Fatal(err)
		}
	}
	ref := buildRef(m, times, users, polar, f, opts)
	kept := ref.restrict(reads)
	seq := &timeline.Sequence{M: m, Activities: make([]timeline.Activity, len(times))}
	for k := range times {
		seq.Activities[k] = timeline.Activity{ID: timeline.ActivityID(k), Time: times[k], User: timeline.UserID(users[k]), Polarity: polar[k]}
	}
	for _, build := range []struct {
		name string
		ref  *refComputer
		run  func() (*Computer, error)
	}{
		{"Finalize", ref, func() (*Computer, error) { return acc.Finalize(f) }},
		{"FinalizeOn", kept, func() (*Computer, error) { return acc.FinalizeOn(f, reads) }},
		{"NewOn", kept, func() (*Computer, error) { return NewOn(seq, f, opts, reads) }},
	} {
		got, err := build.run()
		if err != nil {
			t.Fatalf("%s: %v", build.name, err)
		}
		checkComputer(t, build.name, got, build.ref, m, times, beta)
	}
	return ref.filteredFirst(reads)
}

// checkComputer requires every public query of got to equal the
// reference's bit for bit, for every pair including pairless and
// out-of-range users, at every event time, between them, and before and
// after them.
func checkComputer(t *testing.T, build string, got *Computer, ref *refComputer, m int, times []float64, beta float64) {
	t.Helper()
	var wantPairs []PairKey
	for k := range ref.pairs {
		wantPairs = append(wantPairs, PairKey{Receiver: int(k[0]), Source: int(k[1])})
	}
	sort.Slice(wantPairs, func(a, b int) bool {
		if wantPairs[a].Receiver != wantPairs[b].Receiver {
			return wantPairs[a].Receiver < wantPairs[b].Receiver
		}
		return wantPairs[a].Source < wantPairs[b].Source
	})
	gotPairs := got.ActivePairs()
	if len(gotPairs) != len(wantPairs) {
		t.Fatalf("%s: %d active pairs, reference has %d", build, len(gotPairs), len(wantPairs))
	}
	for k := range wantPairs {
		if gotPairs[k] != wantPairs[k] {
			t.Fatalf("%s: active pair %d = %+v, reference %+v", build, k, gotPairs[k], wantPairs[k])
		}
	}

	queries := []float64{-1}
	for k, tm := range times {
		queries = append(queries, tm)
		if k+1 < len(times) {
			queries = append(queries, (tm+times[k+1])/2)
		}
	}
	if len(times) > 0 {
		queries = append(queries, times[len(times)-1]+1)
	}
	same := func(what string, i, j int, q, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Helper()
			t.Fatalf("%s: %s(%d, %d) at t=%g: %v, reference %v", build, what, i, j, q, got, want)
		}
	}
	for i := -1; i <= m; i++ {
		for j := -1; j <= m; j++ {
			wantCount := 0
			if s := ref.series(i, j, 0); s != nil {
				wantCount = len(s.times)
			}
			if got := got.InteractionCount(i, j); got != wantCount {
				t.Fatalf("%s: InteractionCount(%d, %d) = %d, reference %d", build, i, j, got, wantCount)
			}
			pair := got.Pair(i, j)
			cur := pair.Decay(beta)
			for _, q := range queries {
				phi, dphi := ref.influenceDegreeGrad(i, j, q, beta)
				psi := ref.contextStance(i, j, q)
				gphi, gdphi := got.InfluenceDegreeGrad(i, j, q, beta)
				same("InfluenceDegreeGrad.phi", i, j, q, gphi, phi)
				same("InfluenceDegreeGrad.dBeta", i, j, q, gdphi, dphi)
				same("InfluenceDegree", i, j, q, got.InfluenceDegree(i, j, q, beta), phi)
				same("ContextStance", i, j, q, got.ContextStance(i, j, q), psi)
				same("Informational", i, j, q, got.Informational(i, j, q, beta), phi*psi)
				ga, gd := got.InformationalGrad(i, j, q, beta)
				same("InformationalGrad.alpha", i, j, q, ga, phi*psi)
				same("InformationalGrad.dBeta", i, j, q, gd, dphi*psi)
				inv, fpsi := pair.Factors(q)
				ca, cd := cur.Informational(q, inv, fpsi)
				same("Pair.Informational.alpha", i, j, q, ca, phi*psi)
				same("Pair.Informational.dBeta", i, j, q, cd, dphi*psi)
				same("Normative", i, j, q, got.Normative(i, j, q), ref.normative(i, j, q))
				same("Pair.Normative", i, j, q, pair.Normative(q), ref.normative(i, j, q))
			}
		}
	}
}

// TestBuildMatchesReference is the differential property test of the CSR
// build: on random corpora covering time ties, IncludeSelf, DisableLCA, the
// MaxTreePairs stride, non-finite polarities, pairless users and read sets,
// every public query equals the per-pair-append reference bit for bit. The
// corpora must include filtered-out cross-path pairs counted before kept
// ones under a stride.
func TestBuildMatchesReference(t *testing.T) {
	r := rng.New(20261017)
	covered := 0
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 3+4*(1+r.Intn(64)))
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		if checkBuildAgainstReference(t, data) {
			covered++
		}
	}
	t.Logf("%d of 300 cases count a filtered-out cross-path pair before a kept one", covered)
	if covered == 0 {
		t.Fatal("the corpora stopped covering a filtered-out pair counted before a kept one")
	}
}

// FuzzConformityBuild drives the differential check with fuzzer-chosen
// corpora (see buildCase for the decoding).
func FuzzConformityBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 0, 7, 1, 0, 100, 0, 2, 5, 200, 9, 3, 9, 255, 0, 4, 4, 254, 3, 0, 13, 253, 0})
	f.Add([]byte{2, 0, 3 | 4<<2, 0, 0, 0, 10, 0, 1, 1, 250, 0, 0, 1, 20, 3, 1, 5, 30, 0, 0, 9, 40, 0, 1, 13, 60, 15})
	// A read set under a small MaxTreePairs stride, where counting only
	// the kept cross-path pairs would change the subsample.
	f.Add([]byte{0x63, 0xcd, 0xc, 0xd4, 0x85, 0xdb, 0xd3, 0x78, 0xfb, 0x75, 0xbc, 0x2e, 0x40, 0x3f, 0x7e, 0x5a, 0x59, 0xca, 0xb1})
	// A receiver with a kept source and an offspring of a filtered-out
	// source, which ℕᵢ must still count.
	f.Add([]byte{0x9a, 0x70, 0xe0, 0xf1, 0x2e, 0x9c, 0x9e, 0x43, 0x50, 0x92, 0xa4, 0x64, 0x55, 0x5b, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBuildAgainstReference(t, data)
	})
}
