package core

import (
	"fmt"
	"slices"

	"chassis/internal/guard"
)

// layout describes how one dimension's parameters pack: an entry of a
// parameter row holds perSrc floats, α for the HP baselines and, for the
// conformity variants, γᴵ and β (informational) then γᴺ (normative). The
// M-step's vector is x[0] = μ followed by the dimension's source entries in
// row order, so x[1:] is the sources' part of the row verbatim.
type layout struct {
	conformityAware  bool
	useInformational bool
	useNormative     bool
	perSrc           int
}

func (m *Model) layout() layout {
	l := layout{
		conformityAware:  m.Variant.ConformityAware,
		useInformational: m.Variant.UseInformational,
		useNormative:     m.Variant.UseNormative,
	}
	if !l.conformityAware {
		l.perSrc = 1 // α
		return l
	}
	if l.useInformational {
		l.perSrc += 2 // γI, β
	}
	if l.useNormative {
		l.perSrc++ // γN
	}
	return l
}

// Offsets of the values inside one entry.
const (
	alphaOff  = 0
	gammaIOff = 0
	betaOff   = 1
)

func (l layout) gammaNOff() int {
	if l.useInformational {
		return 2
	}
	return 0
}

// Indices into the M-step vector of source slot s's values.
func (l layout) alphaIdx(s int) int  { return 1 + s*l.perSrc + alphaOff }
func (l layout) gammaIIdx(s int) int { return 1 + s*l.perSrc + gammaIOff }
func (l layout) betaIdx(s int) int   { return 1 + s*l.perSrc + betaOff }
func (l layout) gammaNIdx(s int) int { return 1 + s*l.perSrc + l.gammaNOff() }

// params is the model's excitation-parameter store, the only code that knows
// its layout. Row i holds receiver i's entries: first its sources, the users
// the M-step optimizes, in ascending order; then its tail, the ascending
// users outside the sources whose entries are nonzero (what an earlier
// support left behind). An entry is layout.perSrc floats in pack's order.
// The columns and offsets are fixed once built; only values change, and an
// M-step worker writes the source values of its own row alone.
type params struct {
	per    int
	off    []int // row i's entries are [off[i], off[i+1])
	srcEnd []int // row i's sources are entries [off[i], srcEnd[i])
	cols   []int // each entry's user
	vals   []float64
	// mask[i] has bit j mod 256 set for every user j of row i, so most
	// lookups of a user outside the row end at one load.
	mask [][4]uint64
}

// newParams lays out rows holding sources[i] then tails[i], every value
// zero. Both lists of a row must be strictly ascending ids in [0, m) and
// disjoint; the error names the first row that is not.
func newParams(l layout, m int, sources, tails [][]int) (*params, error) {
	if len(sources) != m || tails != nil && len(tails) != m {
		return nil, fmt.Errorf("core: parameter rows cover %d sources and %d tails for %d users", len(sources), len(tails), m)
	}
	p := &params{per: l.perSrc, off: make([]int, m+1), srcEnd: make([]int, m), mask: make([][4]uint64, m)}
	n := 0
	for i := range sources {
		n += len(sources[i])
		if tails != nil {
			n += len(tails[i])
		}
	}
	p.cols = make([]int, 0, n)
	for i := 0; i < m; i++ {
		var tail []int
		if tails != nil {
			tail = tails[i]
		}
		if !ascending(sources[i], m) || !ascending(tail, m) {
			return nil, fmt.Errorf("core: parameter row %d: columns not strictly ascending in [0, %d)", i, m)
		}
		for _, j := range tail {
			if _, dup := slices.BinarySearch(sources[i], j); dup {
				return nil, fmt.Errorf("core: parameter row %d: user %d is both a source and a tail entry", i, j)
			}
		}
		p.cols = append(p.cols, sources[i]...)
		p.srcEnd[i] = len(p.cols)
		p.cols = append(p.cols, tail...)
		p.off[i+1] = len(p.cols)
		for _, j := range p.cols[p.off[i]:] {
			p.mask[i][j>>6&3] |= 1 << (j & 63)
		}
	}
	p.vals = make([]float64, n*p.per)
	return p, nil
}

// resupport returns rows over new sources, every source value zero, whose
// tails keep p's nonzero entries outside them (p nil: no tails).
func (p *params) resupport(l layout, m int, sources [][]int) (*params, error) {
	if p == nil {
		return newParams(l, m, sources, nil)
	}
	tails := make([][]int, m)
	for i := range tails {
		for e := p.off[i]; e < p.off[i+1]; e++ {
			if _, src := slices.BinarySearch(sources[i], p.cols[e]); !src && p.nonzero(e) {
				tails[i] = append(tails[i], p.cols[e])
			}
		}
		slices.Sort(tails[i])
	}
	out, err := newParams(l, m, sources, tails)
	if err != nil {
		return nil, err
	}
	for i, tail := range tails {
		for _, j := range tail {
			copy(out.find(i, j), p.find(i, j))
		}
	}
	return out, nil
}

// ascending reports whether ids is strictly ascending in [0, m).
func ascending(ids []int, m int) bool {
	for x, j := range ids {
		if j < 0 || j >= m || x > 0 && ids[x-1] >= j {
			return false
		}
	}
	return true
}

// sources returns row i's source users.
func (p *params) sources(i int) []int { return p.cols[p.off[i]:p.srcEnd[i]:p.srcEnd[i]] }

// tail returns row i's users outside its sources.
func (p *params) tail(i int) []int { return p.cols[p.srcEnd[i]:p.off[i+1]:p.off[i+1]] }

// sourceVals returns row i's source values: x[1:] of the M-step vector.
func (p *params) sourceVals(i int) []float64 {
	return p.vals[p.off[i]*p.per : p.srcEnd[i]*p.per]
}

// entry returns the values of entry e.
func (p *params) entry(e int) []float64 { return p.vals[e*p.per : (e+1)*p.per : (e+1)*p.per] }

// find returns the values of row i's entry for user j, or nil when the row
// has none (every value of (i, j) is zero).
func (p *params) find(i, j int) []float64 {
	if p.mask[i][j>>6&3]&(1<<(j&63)) == 0 {
		return nil
	}
	if e, ok := slices.BinarySearch(p.sources(i), j); ok {
		return p.entry(p.off[i] + e)
	}
	if e, ok := slices.BinarySearch(p.tail(i), j); ok {
		return p.entry(p.srcEnd[i] + e)
	}
	return nil
}

// each calls fn with every entry of row i, in row order.
func (p *params) each(i int, fn func(j int, v []float64)) {
	for e := p.off[i]; e < p.off[i+1]; e++ {
		fn(p.cols[e], p.entry(e))
	}
}

// sourceLists returns every row's sources.
func (p *params) sourceLists() [][]int {
	out := make([][]int, len(p.srcEnd))
	for i := range out {
		out[i] = p.sources(i)
	}
	return out
}

// readSets returns, per row, its users in ascending order: the read set
// every conformity build keeps and the kernel pass walks. It holds every
// pair whose handle the M-step resolves (the sources) and every pair
// excitation.Alpha can query (the nonzero entries).
func (p *params) readSets() [][]int {
	out := make([][]int, len(p.srcEnd))
	for i := range out {
		out[i] = slices.Clone(p.cols[p.off[i]:p.off[i+1]])
		slices.Sort(out[i])
	}
	return out
}

// clone copies the values and shares the fixed columns and offsets.
func (p *params) clone() *params {
	out := *p
	out.vals = slices.Clone(p.vals)
	return &out
}

// nonzero reports whether any value of entry e is nonzero.
func (p *params) nonzero(e int) bool {
	for _, v := range p.entry(e) {
		if v != 0 {
			return true
		}
	}
	return false
}

// checkFinite reports the first non-finite value, quantity by quantity in
// the order γᴵ, γᴺ, β (or α) and, within one, in row order.
func (p *params) checkFinite(l layout) *guard.Violation {
	check := func(name string, off int) *guard.Violation {
		for v := off; v < len(p.vals); v += p.per {
			if viol := guard.CheckFinite(name, p.vals[v]); viol != nil {
				return viol
			}
		}
		return nil
	}
	if !l.conformityAware {
		return check("alpha", alphaOff)
	}
	if l.useInformational {
		if v := check("gamma_i", gammaIOff); v != nil {
			return v
		}
	}
	if l.useNormative {
		if v := check("gamma_n", l.gammaNOff()); v != nil {
			return v
		}
	}
	if l.useInformational {
		return check("beta", betaOff)
	}
	return nil
}

// paramRowJSON is one row on the wire: its users in ascending order, and
// each user's entry values in that order.
type paramRowJSON struct {
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

// wire returns the rows in their wire form.
func (p *params) wire() []paramRowJSON {
	reads := p.readSets()
	out := make([]paramRowJSON, len(reads))
	for i, cols := range reads {
		vals := make([]float64, 0, len(cols)*p.per)
		for _, j := range cols {
			vals = append(vals, p.find(i, j)...)
		}
		out[i] = paramRowJSON{Cols: cols, Vals: vals}
	}
	return out
}

// paramsFromWire rebuilds the rows of wire's form around the given sources:
// each row must list its users strictly ascending in [0, m), carry
// layout.perSrc values per user and hold every source.
func paramsFromWire(l layout, m int, sources [][]int, rows []paramRowJSON) (*params, error) {
	if len(rows) != m {
		return nil, fmt.Errorf("core: %d parameter rows for %d users", len(rows), m)
	}
	if len(sources) != m {
		return nil, fmt.Errorf("core: %d source lists for %d users", len(sources), m)
	}
	tails := make([][]int, m)
	for i, r := range rows {
		if !ascending(r.Cols, m) {
			return nil, fmt.Errorf("core: parameter row %d: columns not strictly ascending in [0, %d)", i, m)
		}
		if len(r.Vals) != len(r.Cols)*l.perSrc {
			return nil, fmt.Errorf("core: parameter row %d: %d values for %d columns of %d", i, len(r.Vals), len(r.Cols), l.perSrc)
		}
		for _, j := range sources[i] {
			if _, ok := slices.BinarySearch(r.Cols, j); !ok {
				return nil, fmt.Errorf("core: parameter row %d lacks source %d", i, j)
			}
		}
		for _, j := range r.Cols {
			if _, src := slices.BinarySearch(sources[i], j); !src {
				tails[i] = append(tails[i], j)
			}
		}
	}
	p, err := newParams(l, m, sources, tails)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		for x, j := range r.Cols {
			copy(p.find(i, j), r.Vals[x*p.per:(x+1)*p.per])
		}
	}
	return p, nil
}

// paramsFromDense converts the dense M×M matrices of a version-1 file: row i
// holds sources[i] and, as its tail, every other user with a nonzero value
// in a matrix the layout uses. A nil matrix reads as zeros.
func paramsFromDense(l layout, m int, sources [][]int, alpha, gammaI, gammaN, beta [][]float64) (*params, error) {
	for _, a := range [][][]float64{alpha, gammaI, gammaN, beta} {
		if a == nil {
			continue
		}
		if len(a) != m {
			return nil, fmt.Errorf("core: parameter matrix has %d rows for %d users", len(a), m)
		}
		for i := range a {
			if len(a[i]) != m {
				return nil, fmt.Errorf("core: parameter matrix row %d has %d columns for %d users", i, len(a[i]), m)
			}
		}
	}
	if len(sources) != m {
		return nil, fmt.Errorf("core: %d source lists for %d users", len(sources), m)
	}
	// mats[off] is the matrix of an entry's value off.
	mats := make([][][]float64, l.perSrc)
	if !l.conformityAware {
		mats[alphaOff] = alpha
	} else {
		if l.useInformational {
			mats[gammaIOff], mats[betaOff] = gammaI, beta
		}
		if l.useNormative {
			mats[l.gammaNOff()] = gammaN
		}
	}
	tails := make([][]int, m)
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if _, src := slices.BinarySearch(sources[i], j); src {
				continue
			}
			for _, a := range mats {
				if a != nil && a[i][j] != 0 {
					tails[i] = append(tails[i], j)
					break
				}
			}
		}
	}
	p, err := newParams(l, m, sources, tails)
	if err != nil {
		return nil, err
	}
	for i := 0; i < m; i++ {
		p.each(i, func(j int, v []float64) {
			for off, a := range mats {
				if a != nil {
					v[off] = a[i][j]
				}
			}
		})
	}
	return p, nil
}
