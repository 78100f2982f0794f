package conformity

import (
	"errors"
	"math"
	"sort"
	"testing"

	"chassis/internal/branching"
	"chassis/internal/rng"
	"chassis/internal/stats"
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
// nodes for each tree id) in stable time order.
type refComputer struct {
	pairs     map[[2]int32]*[2]*refSeries // [info, norm]
	offspring [][]float64
}

func buildRef(m int, times []float64, users []int32, polar []float64, f *branching.Forest, opts Options) (*refComputer, error) {
	opts.fill()
	c := &refComputer{pairs: map[[2]int32]*[2]*refSeries{}, offspring: make([][]float64, m)}
	pair := func(i, j int32) (*[2]*refSeries, error) {
		p, ok := c.pairs[[2]int32{i, j}]
		if !ok {
			if opts.MaxActivePairs > 0 && len(c.pairs) >= opts.MaxActivePairs {
				return nil, &PairBudgetError{Budget: opts.MaxActivePairs}
			}
			p = &[2]*refSeries{newRefSeries(), newRefSeries()}
			c.pairs[[2]int32{i, j}] = p
		}
		return p, nil
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
		p, err := pair(i, j)
		if err != nil {
			return nil, err
		}
		p[0].add(times[k], polar[parent], polar[k])
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
					if stride > 1 && count%stride != 0 {
						continue
					}
					lca = f.LCA(e1, e2)
				}
				contribs = append(contribs, contrib{times[e2], e1, e2, lca})
			}
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
		p, err := pair(key[0], key[1])
		if err != nil {
			return nil, err
		}
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
	return c, nil
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
// small MaxTreePairs strides, and a decay rate from the M-step's box.
// Missing bytes read as zero.
func buildCase(data []byte) (m int, times []float64, users []int32, polar []float64, parents []int32, opts Options, beta float64) {
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
	return m, times, users, polar, parents, opts, beta
}

// checkBuildAgainstReference builds the decoded case through the streamed
// Accumulator path and through the reference, and requires every public
// query to agree bit for bit at every event time and between them, for
// every pair including pairless and out-of-range users.
func checkBuildAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	m, times, users, polar, parents, opts, beta := buildCase(data)
	f, err := branching.FromParents32(parents)
	if err != nil {
		t.Fatal(err)
	}
	budget := 0
	if len(data) > 0 && data[len(data)-1]%5 == 0 {
		budget = int(data[len(data)-1] % 16) // sometimes too small
	}
	opts.MaxActivePairs = budget
	acc := NewAccumulator(m, opts)
	for k := range times {
		if err := acc.Append(times[k], int(users[k]), polar[k]); err != nil {
			t.Fatal(err)
		}
	}
	got, gotErr := acc.Finalize(f)
	ref, refErr := buildRef(m, times, users, polar, f, opts)
	var ge, re *PairBudgetError
	if errors.As(gotErr, &ge) != errors.As(refErr, &re) || (ge != nil && ge.Budget != re.Budget) {
		t.Fatalf("budget %d: build error %v, reference error %v", budget, gotErr, refErr)
	}
	if refErr != nil {
		if !errors.As(refErr, &re) {
			t.Fatal(refErr)
		}
		return
	}
	if gotErr != nil {
		t.Fatal(gotErr)
	}

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
		t.Fatalf("%d active pairs, reference has %d", len(gotPairs), len(wantPairs))
	}
	for k := range wantPairs {
		if gotPairs[k] != wantPairs[k] {
			t.Fatalf("active pair %d = %+v, reference %+v", k, gotPairs[k], wantPairs[k])
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
			t.Fatalf("%s(%d, %d) at t=%g: %v, reference %v", what, i, j, q, got, want)
		}
	}
	for i := -1; i <= m; i++ {
		for j := -1; j <= m; j++ {
			wantCount := 0
			if s := ref.series(i, j, 0); s != nil {
				wantCount = len(s.times)
			}
			if got := got.InteractionCount(i, j); got != wantCount {
				t.Fatalf("InteractionCount(%d, %d) = %d, reference %d", i, j, got, wantCount)
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
// MaxTreePairs stride, non-finite polarities, pairless users and pair
// budgets, every public query equals the per-pair-append reference bit for
// bit.
func TestBuildMatchesReference(t *testing.T) {
	r := rng.New(20261017)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 3+4*(1+r.Intn(64)))
		for k := range data {
			data[k] = byte(r.Intn(256))
		}
		checkBuildAgainstReference(t, data)
	}
}

// FuzzConformityBuild drives the differential check with fuzzer-chosen
// corpora (see buildCase for the decoding).
func FuzzConformityBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 2, 0, 7, 1, 0, 100, 0, 2, 5, 200, 9, 3, 9, 255, 0, 4, 4, 254, 3, 0, 13, 253, 0})
	f.Add([]byte{2, 0, 3 | 4<<2, 0, 0, 0, 10, 0, 1, 1, 250, 0, 0, 1, 20, 3, 1, 5, 30, 0, 0, 9, 40, 0, 1, 13, 60, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBuildAgainstReference(t, data)
	})
}
