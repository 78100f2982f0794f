package conformity

import (
	"math"
	"sort"
)

// moments are a series' running sums up to and including one sample. ssgn
// accumulates sign(x·y): the per-sample agreement indicator. Every stance
// query reads all six at once, so they share one record instead of six
// columns.
type moments struct{ sx, sy, sxx, syy, sxy, ssgn float64 }

// series is a read-only view of one pair's chronologically ordered stream of
// paired polarity samples: times[k] is the k-th sample's time and mom[k] the
// sums over samples 0..k, so the Pearson correlation restricted to any
// prefix [0, t] — the time-varying context stance — is an O(log n) query.
// Views are sub-slices of a seriesStore's flat columns.
type series struct {
	times []float64
	mom   []moments
}

// seriesStore holds every pair's series of one kind (informational or
// normative) in compressed sparse row form: pair p's samples occupy
// [off[p], off[p+1]) of the flat, exactly sized times and mom columns.
type seriesStore struct {
	off   []int32
	times []float64
	mom   []moments
}

// at returns pair p's series.
func (s *seriesStore) at(p int) series {
	lo, hi := s.off[p], s.off[p+1]
	return series{times: s.times[lo:hi:hi], mom: s.mom[lo:hi:hi]}
}

// newSeriesStore lays out a store for the given per-pair sample counts,
// whose total must fit in int32: CSR offsets and exactly sized columns.
func newSeriesStore(counts []int32) seriesStore {
	off := make([]int32, len(counts)+1)
	for p, n := range counts {
		off[p+1] = off[p] + n
	}
	total := off[len(counts)]
	return seriesStore{off: off, times: make([]float64, total), mom: make([]moments, total)}
}

// seriesWriter fills one pair's slots of a store, carrying the running
// prefix sums, so the moments accumulate in exactly the order a per-pair
// append would use.
type seriesWriter struct {
	s   *seriesStore
	k   int32   // next slot
	sum moments // sums over the samples pushed so far
}

// writer starts filling pair p's slots from the first.
func (s *seriesStore) writer(p int) seriesWriter {
	return seriesWriter{s: s, k: s.off[p]}
}

// push appends the sample (x, y) at time t, which must be >= the pair's
// last time. A non-finite polarity on either side voids the whole sample —
// both values are recorded as 0 ("no measurable stance"). A NaN would
// otherwise poison every prefix sum after it and make corrAt return NaN for
// all later queries, and zeroing only the bad side would fabricate stance
// from the surviving one; the timestamp is kept either way so decay sums
// still see the interaction.
func (w *seriesWriter) push(t, x, y float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
		x, y = 0, 0
	}
	sg := 0.0
	if p := x * y; p > 0 {
		sg = 1
	} else if p < 0 {
		sg = -1
	}
	w.sum.sx += x
	w.sum.sy += y
	w.sum.sxx += x * x
	w.sum.syy += y * y
	w.sum.sxy += x * y
	w.sum.ssgn += sg
	w.s.times[w.k] = t
	w.s.mom[w.k] = w.sum
	w.k++
}

// countAt returns how many samples have time ≤ t.
func (s series) countAt(t float64) int {
	return sort.SearchFloat64s(s.times, math.Nextafter(t, math.Inf(1)))
}

// corrAt returns the context-stance of the samples with time ≤ t: the
// Pearson correlation shrunk toward the mean sign-agreement
// (1/k)·Σ sign(xᵢyᵢ) with pseudo-count 3,
//
//	Ψ̂ = (k·Pcc + 3·signAgree) / (k + 3),
//
// and the pure sign-agreement when Pearson is undefined (fewer than two
// samples, or a zero-variance side). Raw small-sample Pearson is extremely
// noisy — and exactly zero for a pair that always agrees with the same
// polarity — while sign-agreement is the stable, psychologically faithful
// reading of "i's stance aligns with j's"; the blend converges to Pcc as
// evidence accumulates. Without a fallback every pair would contribute
// zero excitation until its stance history is rich, starving the EM loop.
func (s series) corrAt(t float64) float64 {
	k := s.countAt(t)
	if k == 0 {
		return 0
	}
	n := float64(k)
	mo := &s.mom[k-1]
	agree := mo.ssgn / n
	cov := mo.sxy - mo.sx*mo.sy/n
	vx := mo.sxx - mo.sx*mo.sx/n
	vy := mo.syy - mo.sy*mo.sy/n
	if k < 2 || vx <= 1e-15 || vy <= 1e-15 {
		return agree
	}
	r := cov / math.Sqrt(vx*vy)
	if math.IsNaN(r) {
		// Unreachable with sanitized samples, but a stance query must never
		// return NaN — fall back to the sign-agreement read.
		return agree
	}
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return (n*r + 3*agree) / (n + 3)
}

// len returns the total number of samples.
func (s series) len() int { return len(s.times) }

// DecayCursor incrementally evaluates Σ_{times[k] ≤ t} e^{−β(t−times[k])}
// and its β-derivative for ONE fixed β at nondecreasing query times, via the
// exponential recursion (the same trick as internal/hawkes/fastpath.go):
//
//	A_k = A_{k−1}·e^{−βΔ} + 1,   B_k = e^{−βΔ}·(B_{k−1} + Δ·A_{k−1}),
//
// with Δ = t_k − t_{k−1}, so a query at t ≥ t_k needs only δ = t − t_k:
//
//	sum = A_k·e^{−βδ},   dSum/dβ = −(B_k + δ·A_k)·e^{−βδ}.
//
// Each sample is consumed once across the cursor's lifetime, so a monotone
// sweep of q queries over a k-sample series costs O(k + q) instead of the
// naive rescan's O(k·q) — the difference between a linear and a quadratic
// M-step β-gradient over a pair's history. Querying never mutates the
// recursion state, so interleaving queries with sample consumption yields
// bit-identical floats to a one-shot evaluation at the final time.
type DecayCursor struct {
	times []float64
	beta  float64
	idx   int     // samples consumed so far
	a     float64 // A_k: decayed count at the last consumed sample
	b     float64 // B_k: decayed age sum at the last consumed sample
	last  float64 // time of the last consumed sample
}

// cursor starts a monotone decay-sum sweep at the given decay rate.
func (s series) cursor(beta float64) DecayCursor {
	return DecayCursor{times: s.times, beta: beta}
}

// Informational returns αᴵ(t) = Φ(t)·Ψ(t) and its β-derivative from the
// pair's factors at t (Pair.Factors) and the decayed sum at t: Φ = sum·inv,
// ∂Φ/∂β = dSum·inv, each times psi. When inv is 0 the cursor is not
// advanced and both are 0. Query times must be nondecreasing, as for At.
func (c *DecayCursor) Informational(t, inv, psi float64) (alpha, dBeta float64) {
	if inv == 0 {
		return 0, 0
	}
	sum, dsum := c.At(t)
	phi, dphi := sum*inv, dsum*inv
	return phi * psi, dphi * psi
}

// At returns the decayed sum and its β-derivative at time t. Query times
// must be nondecreasing across calls; samples with time ≤ t are consumed
// (the tie rule matches countAt's Nextafter upper bound: a sample exactly at
// t counts, with e^0 = 1).
func (c *DecayCursor) At(t float64) (sum, dBeta float64) {
	ts := c.times
	for c.idx < len(ts) && ts[c.idx] <= t {
		tk := ts[c.idx]
		if c.idx == 0 {
			c.a, c.b = 1, 0
		} else {
			dt := tk - c.last
			e := math.Exp(-c.beta * dt)
			c.b = e * (c.b + dt*c.a)
			c.a = c.a*e + 1
		}
		c.last = tk
		c.idx++
	}
	if c.idx == 0 {
		return 0, 0
	}
	delta := t - c.last
	e := math.Exp(-c.beta * delta)
	return c.a * e, -(c.b + delta*c.a) * e
}

// decaySumAt returns Σ_{times[k] ≤ t} e^{−β(t−times[k])} and its derivative
// with respect to β, −Σ (t−times[k])·e^{−β(t−times[k])} — the numerator of
// the influence degree Φ (Eq. 5.1) and what the M-step's β-gradient needs.
// One-shot wrapper over the recursion cursor; callers issuing many queries
// at the same β should hold a cursor instead.
func (s series) decaySumAt(t, beta float64) (sum, dBeta float64) {
	c := s.cursor(beta)
	return c.At(t)
}
