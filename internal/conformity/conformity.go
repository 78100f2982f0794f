// Package conformity quantifies the two flavors of conformity CHASSIS
// injects into the Hawkes excitation (Section 5 of the paper), from a
// sequence of polarity-annotated activities and a branching structure
// (diffusion forest):
//
//   - Informational influence αᴵᵢⱼ(t) = Φᵢⱼ(t)·Ψᵢⱼ(t): the influence degree
//     Φ (Eq. 5.1) — an exponentially decayed, normalized count of
//     parent-child interactions j→i — times the context stance Ψ — the
//     Pearson correlation of the polarities exchanged in those
//     interactions.
//   - Normative influence αᴺᵢⱼ(t) (Eq. 5.2): the Pearson correlation of
//     polarity vectors accumulated over whole cascades, via Scenario 1
//     (aligned same-path pairs) and Scenario 2 (cross-path pairs
//     recalibrated through their lowest common ancestor, capturing
//     "fashion leader" opinion shifts).
//
// All quantities are time-varying; a Computer answers point-in-time queries
// against prefix structures built once per (sequence, forest) pair, so the
// EM loop can rebuild them cheaply after each E-step.
//
// Two construction paths feed the SAME column-based build, so they agree
// bit-for-bit: New for an in-memory sequence, and Accumulator for streamed
// corpora (the out-of-core sharded fit appends (time, user, polarity)
// triples shard by shard, then finalizes against the iteration's forest).
// NewOn and FinalizeOn restrict either path to a read set, the pairs a
// caller can query; every kept pair is the same series as in a build of
// every pair.
package conformity

import (
	"errors"
	"fmt"
	"slices"

	"chassis/internal/branching"
	"chassis/internal/timeline"
)

// Options tunes conformity extraction.
type Options struct {
	// MaxTreePairs caps the ordered activity pairs enumerated per cascade
	// for normative conformity; larger trees fall back to all ancestor
	// (Scenario 1) pairs plus a deterministic stride sample of cross-path
	// (Scenario 2) pairs. 0 means the default of 20000.
	MaxTreePairs int
	// IncludeSelf also tracks a user's conformity to themselves. The paper
	// pairs distinct individuals, so the default is false.
	IncludeSelf bool
	// DisableLCA turns off Scenario 2 (cross-path pairs recalibrated
	// through their lowest common ancestor), leaving only same-path
	// Scenario 1 pairs in the normative influence — the ablation knob for
	// the "fashion leader" mechanism.
	DisableLCA bool
}

func (o *Options) fill() {
	if o.MaxTreePairs <= 0 {
		o.MaxTreePairs = 20000
	}
}

// OutOfOrderError reports a non-chronological append to an Accumulator.
type OutOfOrderError struct {
	Index      int     // position of the offending event
	Time, Prev float64 // its time and the preceding event's time
}

func (e *OutOfOrderError) Error() string {
	return fmt.Sprintf("conformity: event %d at t=%g precedes the previous event at t=%g", e.Index, e.Time, e.Prev)
}

// PairKey identifies an ordered (receiver, source) user pair with recorded
// interactions.
type PairKey struct{ Receiver, Source int }

// Computer answers conformity queries for one (sequence, forest) pair. It
// keeps no event columns, only per-user and per-pair prefix structures in
// compressed sparse row (CSR) form: one offsets array over users or pairs
// plus flat, exactly sized columns.
type Computer struct {
	// User i's offspring activity times, sorted, are
	// offTimes[offOff[i]:offOff[i+1]]: the denominator ℕᵢ(t) of Eq. 5.1.
	offOff   []int32
	offTimes []float64
	// The pair index: receiver i's sources, ascending, are
	// srcs[rowOff[i]:rowOff[i+1]], and a pair's position in srcs indexes
	// both series stores.
	rowOff []int32
	srcs   []int32
	info   seriesStore // parent-child interactions j→i: (p_parent, p_child)
	norm   seriesStore // cascade-level contributions: (x_j, y_i)
}

// New extracts conformity structures for every pair. Activities must carry
// polarities (see stance.AnnotateSequence); the forest must cover the same
// activities.
func New(seq *timeline.Sequence, forest *branching.Forest, opts Options) (*Computer, error) {
	return NewOn(seq, forest, opts, nil)
}

// NewOn is New restricted to a read set: reads[i] lists, ascending, the
// sources j whose pair (i, j) the computer keeps, and nil keeps every pair.
// A kept pair answers every query bit for bit as New's computer does; any
// other pair answers 0. A read set without one row per user, or with a row
// not ascending in [0, M), is an error.
func NewOn(seq *timeline.Sequence, forest *branching.Forest, opts Options, reads [][]int) (*Computer, error) {
	if seq == nil || forest == nil {
		return nil, errors.New("conformity: nil sequence or forest")
	}
	n := seq.Len()
	times := make([]float64, n)
	polar := make([]float64, n)
	users := make([]int32, n)
	for k := range seq.Activities {
		a := &seq.Activities[k]
		times[k] = a.Time
		polar[k] = a.Polarity
		users[k] = int32(a.User)
	}
	return fromColumns(seq.M, times, users, polar, forest, opts, reads)
}

// Accumulator buffers a chronological stream of (time, user, polarity)
// events — e.g. one colstore shard scan at a time — and finalizes into a
// Computer once the iteration's parent assignments are known. Its memory is
// three flat columns (20 bytes/event), the floor for conformity extraction:
// normative pairs relate events arbitrarily far apart in time, so no online
// build can discard history before the forest arrives.
type Accumulator struct {
	m     int
	opts  Options
	times []float64
	users []int32
	polar []float64
}

// NewAccumulator prepares a streamed conformity build over m users.
func NewAccumulator(m int, opts Options) *Accumulator {
	return &Accumulator{m: m, opts: opts}
}

// Append records one event. Events must arrive in nondecreasing time order
// (the colstore write path already guarantees this); a violation returns
// *OutOfOrderError, since a silently reordered stream would desynchronize
// the columns from the forest's activity indexes.
func (a *Accumulator) Append(t float64, user int, polarity float64) error {
	if n := len(a.times); n > 0 && t < a.times[n-1] {
		return &OutOfOrderError{Index: n, Time: t, Prev: a.times[n-1]}
	}
	a.times = append(a.times, t)
	a.users = append(a.users, int32(user))
	a.polar = append(a.polar, polarity)
	return nil
}

// Len returns how many events have been appended.
func (a *Accumulator) Len() int { return len(a.times) }

// Finalize builds the Computer against the given forest, which must cover
// exactly the appended events (activity index k = append order k). The
// accumulator's columns are handed over, not copied; the accumulator can be
// reused only after fresh Appends.
func (a *Accumulator) Finalize(forest *branching.Forest) (*Computer, error) {
	return a.FinalizeOn(forest, nil)
}

// FinalizeOn is Finalize restricted to a read set, as NewOn is New.
func (a *Accumulator) FinalizeOn(forest *branching.Forest, reads [][]int) (*Computer, error) {
	return fromColumns(a.m, a.times, a.users, a.polar, forest, a.opts, reads)
}

// find returns the index of pair (i, j) in the pair index — one binary
// search in receiver i's row — or -1 when the pair has no samples.
func (c *Computer) find(i, j int) int {
	if i < 0 || i >= len(c.rowOff)-1 || j < 0 || j >= len(c.rowOff)-1 {
		return -1
	}
	lo := int(c.rowOff[i])
	k, ok := slices.BinarySearch(c.srcs[lo:c.rowOff[i+1]], int32(j))
	if !ok {
		return -1
	}
	return lo + k
}

// offspring returns user i's sorted offspring activity times.
func (c *Computer) offspring(i int) []float64 {
	return c.offTimes[c.offOff[i]:c.offOff[i+1]]
}

// countUpTo returns how many of the sorted times ts are ≤ t: ℕᵢ(t) over a
// user's offspring times.
func countUpTo(ts []float64, t float64) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := (lo + hi) / 2
		if ts[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// influenceDegree returns Φᵢⱼ(t) and ∂Φᵢⱼ(t)/∂β from the pair's
// interaction series s and the receiver's offspring times off.
func influenceDegree(off []float64, s series, t, beta float64) (phi, dBeta float64) {
	if s.len() == 0 {
		return 0, 0
	}
	n := countUpTo(off, t)
	if n == 0 {
		return 0, 0
	}
	sum, dsum := s.decaySumAt(t, beta)
	inv := 1 / float64(n)
	return sum * inv, dsum * inv
}

// InfluenceDegree returns Φᵢⱼ(t) of Eq. 5.1 under decay rate β: the
// normalized, exponentially decayed count of j→i parent-child interactions.
// Always in [0, 1].
func (c *Computer) InfluenceDegree(i, j int, t, beta float64) float64 {
	phi, _ := c.InfluenceDegreeGrad(i, j, t, beta)
	return phi
}

// InfluenceDegreeGrad returns Φᵢⱼ(t) and ∂Φᵢⱼ(t)/∂β.
func (c *Computer) InfluenceDegreeGrad(i, j int, t, beta float64) (phi, dBeta float64) {
	p := c.find(i, j)
	if p < 0 {
		return 0, 0
	}
	return influenceDegree(c.offspring(i), c.info.at(p), t, beta)
}

// ContextStance returns Ψᵢⱼ(t): the Pearson correlation of polarities over
// the j→i parent-child interactions up to t, in [-1, 1].
func (c *Computer) ContextStance(i, j int, t float64) float64 {
	p := c.find(i, j)
	if p < 0 {
		return 0
	}
	return c.info.at(p).corrAt(t)
}

// Informational returns αᴵᵢⱼ(t) = Φᵢⱼ(t)·Ψᵢⱼ(t).
func (c *Computer) Informational(i, j int, t, beta float64) float64 {
	alpha, _ := c.InformationalGrad(i, j, t, beta)
	return alpha
}

// InformationalGrad returns αᴵᵢⱼ(t) and its derivative with respect to β.
func (c *Computer) InformationalGrad(i, j int, t, beta float64) (alpha, dBeta float64) {
	p := c.find(i, j)
	if p < 0 {
		return 0, 0
	}
	s := c.info.at(p)
	phi, dphi := influenceDegree(c.offspring(i), s, t, beta)
	psi := s.corrAt(t)
	return phi * psi, dphi * psi
}

// Normative returns αᴺᵢⱼ(t) of Eq. 5.2.
func (c *Computer) Normative(i, j int, t float64) float64 {
	p := c.find(i, j)
	if p < 0 {
		return 0
	}
	return c.norm.at(p).corrAt(t)
}

// Pair is a handle on one (receiver i, source j) pair, resolved by one
// lookup, for callers that query the pair many times: the M-step reads
// αᴺᵢⱼ and αᴵᵢⱼ's β-free factors at every event of j once per dimension,
// and only the decay sum once per objective evaluation. A pair without
// samples (or out of range) gets the zero handle, whose queries all answer
// 0.
type Pair struct {
	off  []float64 // the receiver's offspring times: ℕᵢ(t)
	info series    // j→i parent-child interactions
	norm series    // cascade-level contributions
}

// Pair resolves the handle of pair (i, j).
func (c *Computer) Pair(i, j int) Pair {
	p := c.find(i, j)
	if p < 0 {
		return Pair{}
	}
	return Pair{off: c.offspring(i), info: c.info.at(p), norm: c.norm.at(p)}
}

// Factors returns αᴵᵢⱼ(t)'s β-free factors: inv = 1/ℕᵢ(t) and
// psi = Ψᵢⱼ(t). Both are 0 where αᴵᵢⱼ(t) is identically 0, for a pair
// without interactions or before the receiver's first offspring
// (ℕᵢ(t) = 0); otherwise inv > 0. DecayCursor.Informational combines them
// with Φ's decayed sum.
func (p Pair) Factors(t float64) (inv, psi float64) {
	if p.info.len() == 0 {
		return 0, 0
	}
	n := countUpTo(p.off, t)
	if n == 0 {
		return 0, 0
	}
	return 1 / float64(n), p.info.corrAt(t)
}

// Decay starts a monotone sweep of Φᵢⱼ's decayed interaction sum at decay
// rate beta.
func (p Pair) Decay(beta float64) DecayCursor { return p.info.cursor(beta) }

// Normative returns αᴺᵢⱼ(t) of Eq. 5.2.
func (p Pair) Normative(t float64) float64 { return p.norm.corrAt(t) }

// InteractionCount returns how many parent-child interactions j→i exist in
// the whole window (the size of N_ij(T)).
func (c *Computer) InteractionCount(i, j int) int {
	p := c.find(i, j)
	if p < 0 {
		return 0
	}
	return int(c.info.off[p+1] - c.info.off[p])
}

// ActivePairs lists every ordered pair with at least one informational or
// normative sample — the sparse support the M-step iterates instead of all
// M² pairs — by receiver, then source.
func (c *Computer) ActivePairs() []PairKey {
	out := make([]PairKey, 0, len(c.srcs))
	for i := 0; i+1 < len(c.rowOff); i++ {
		for _, j := range c.srcs[c.rowOff[i]:c.rowOff[i+1]] {
			out = append(out, PairKey{Receiver: i, Source: int(j)})
		}
	}
	return out
}
