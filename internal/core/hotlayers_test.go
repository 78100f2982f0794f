package core

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"chassis/internal/branching"
	"chassis/internal/cascade"
	"chassis/internal/conformity"
	"chassis/internal/dft"
	"chassis/internal/hawkes"
	"chassis/internal/infer"
	"chassis/internal/kernel"
	"chassis/internal/parallel"
	"chassis/internal/rng"
	"chassis/internal/timeline"
)

// The fit's two hot layers, the spectral kernel pass and the M-step
// objective, are pinned here bit for bit against reference copies of the
// straightforward implementations they replaced. The kernel reference bins
// with Sequence.CountingProcess, asks excitation.Alpha about every event and
// advances one event per sweep of the phase recurrence; the objective
// reference is one fused value-and-gradient body for every variant that
// refreshes a per-source-event weight on every call, reading αᴵ from
// InformationalGrad at each source event.

// refUpdateKernels is the reference kernel pass over a whole sequence.
func (m *Model) refUpdateKernels(ctx context.Context, seq *timeline.Sequence, conf *conformity.Computer) error {
	const fftBins = 256
	const tikhonov = 1e-3
	exc := excitation{m: m, conf: conf}
	T := seq.Horizon
	delta := T / fftBins
	taps := int(math.Ceil(m.cfg.KernelSupport / delta))
	if taps < 2 {
		taps = 2
	}
	if taps > fftBins/2 {
		taps = fftBins / 2
	}

	return parallel.DoContext(ctx, parallel.Workers(m.cfg.Workers), m.M, func(i int) error {
		counts := seq.CountingProcess(timeline.UserID(i), fftBins)
		var total float64
		for _, c := range counts {
			total += c
		}
		if total < 4 {
			return nil // not enough signal to estimate a kernel for i
		}
		lam := dft.ForwardReal(make([]complex128, fftBins), counts)

		// Excitation train of dimension i in bin units.
		denom := make([]complex128, fftBins)
		fpmu := m.link.Deriv(m.Mu[i])
		var alphaMass float64
		for k := range seq.Activities {
			a := &seq.Activities[k]
			alpha := exc.Alpha(i, int(a.User), a.Time)
			if alpha <= 0 {
				continue
			}
			alphaMass += alpha
			pos := a.Time / delta
			// e^{−jωₙ·pos} for ωₙ = 2πn/N, built by repeated
			// multiplication instead of per-bin trig.
			step := cmplx.Rect(1, -2*math.Pi*pos/fftBins)
			w := complex(alpha, 0)
			for n := 0; n < fftBins; n++ {
				denom[n] += w
				w *= step
			}
		}
		if alphaMass <= 0 || fpmu <= 0 {
			return nil
		}
		// DC correction (Eq. 7.7): remove the expected exogenous count.
		lam[0] -= complex(m.link.Apply(m.Mu[i])*T, 0)

		var maxD float64
		for n := range denom {
			denom[n] *= complex(fpmu, 0)
			if a := cmplx.Abs(denom[n]); a > maxD {
				maxD = a
			}
		}
		if maxD == 0 {
			return nil
		}
		eps := tikhonov * maxD * maxD
		phiF := make([]complex128, fftBins)
		for n := range phiF {
			d := denom[n]
			phiF[n] = lam[n] * cmplx.Conj(d) / complex(real(d)*real(d)+imag(d)*imag(d)+eps, 0)
		}
		phiT := dft.Inverse(phiF)

		values := make([]float64, taps)
		for k := 0; k < taps; k++ {
			v := real(phiT[k])
			if v < 0 || math.IsNaN(v) {
				v = 0
			}
			values[k] = v
		}
		est, err := kernel.NewDiscrete(delta, values)
		if err != nil || est.Mass() <= 0 {
			return nil
		}
		est.Normalize()

		// Damped blend with the previous kernel on the same grid.
		blended := make([]float64, taps)
		d := m.cfg.KernelDamping
		for k := 0; k < taps; k++ {
			t := float64(k) * delta
			blended[k] = d*m.Kernels[i].Eval(t) + (1-d)*est.Eval(t)
		}
		nk, err := kernel.NewDiscrete(delta, blended)
		if err != nil || nk.Mass() <= 0 {
			return nil
		}
		nk.Normalize()
		m.Kernels[i] = nk
		return nil
	})
}

// refObjective is the reference objective: one weight-refreshing body for
// every variant.
func (m *Model) refObjective(d *dimData, conf *conformity.Computer) infer.Objective {
	l := m.layout()
	_, linear := m.link.(hawkes.LinearLink)
	w := make([]float64, len(d.src))    // per-source-event excitation weight
	aI := make([]float64, len(d.src))   // αᴵ at the source event (current β)
	daI := make([]float64, len(d.src))  // ∂αᴵ/∂β
	clamped := make([]bool, len(d.src)) // linear-link zero-clamp mask

	return func(x, grad []float64) float64 {
		mu := x[0]
		// Refresh per-source-event weights under the current parameters.
		for idx := range d.src {
			e := &d.src[idx]
			var wt float64
			clamped[idx] = false
			if !l.conformityAware {
				wt = x[l.alphaIdx(int(e.jIdx))]
			} else {
				if l.useInformational {
					ai, dai := conf.InformationalGrad(d.i, int(e.j), e.t, x[l.betaIdx(int(e.jIdx))])
					aI[idx], daI[idx] = ai, dai
					wt += x[l.gammaIIdx(int(e.jIdx))] * ai
				}
				if l.useNormative {
					wt += x[l.gammaNIdx(int(e.jIdx))] * e.aN
				}
				// Mirror excitation.Alpha: linear-link clamp with zero
				// subgradient while clamped.
				if linear && wt < 0 {
					wt = 0
					clamped[idx] = true
				}
			}
			w[idx] = wt
		}
		if grad != nil {
			for i := range grad {
				grad[i] = 0
			}
		}
		var value float64

		// Event term: Σ ln λ(t_k).
		for _, win := range d.targets {
			g := mu
			for _, en := range win {
				g += w[en.src] * en.phi
			}
			lam := m.link.Apply(g)
			if lam < lambdaFloor {
				lam = lambdaFloor
			}
			value += math.Log(lam)
			if grad == nil {
				continue
			}
			c := m.link.Deriv(g) / lam
			grad[0] += c
			for _, en := range win {
				if clamped[en.src] {
					continue
				}
				m.refAccumGrad(grad, l, d, en.src, c*en.phi, x, aI, daI)
			}
		}

		// Compensator term.
		if linear {
			value -= math.Max(mu, 0) * d.T
			if grad != nil {
				grad[0] -= d.T
			}
			for idx := range d.src {
				value -= w[idx] * d.src[idx].kInt
				if grad != nil && !clamped[idx] {
					m.refAccumGrad(grad, l, d, int32(idx), -d.src[idx].kInt, x, aI, daI)
				}
			}
		} else {
			for _, win := range d.grid {
				g := mu
				for _, en := range win {
					g += w[en.src] * en.phi
				}
				lam := m.link.Apply(g)
				value -= d.gridH * lam
				if grad == nil {
					continue
				}
				c := -d.gridH * m.link.Deriv(g)
				grad[0] += c
				for _, en := range win {
					if clamped[en.src] {
						continue
					}
					m.refAccumGrad(grad, l, d, en.src, c*en.phi, x, aI, daI)
				}
			}
		}
		return value
	}
}
func (m *Model) refAccumGrad(grad []float64, l layout, d *dimData, e int32, scale float64, x, aI, daI []float64) {
	s := int(d.src[e].jIdx)
	if !l.conformityAware {
		grad[l.alphaIdx(s)] += scale
		return
	}
	if l.useInformational {
		grad[l.gammaIIdx(s)] += scale * aI[e]
		grad[l.betaIdx(s)] += scale * x[l.gammaIIdx(s)] * daI[e]
	}
	if l.useNormative {
		grad[l.gammaNIdx(s)] += scale * d.src[e].aN
	}
}

// refCase decodes one reference-test input into a corpus, a model on it and
// the conformity snapshot the conformity variants read. data holds 4-byte
// event records (user, time, polarity, parent): user b0 mod users, time
// horizon·(b1/255), so 255 is exactly the horizon, polarity (b2−128)/128,
// and a parent among the earlier events when b3 ≥ 64. The model gets the
// co-occurrence sources and initParams; rows, when not empty, then sets
// every (i, j) pair's α, γᴵ, γᴺ and β through setParams, cycling over its
// bytes: byte 0 is an exact zero, any other b is (b−96)/320, so rows mix
// zero, negative and positive entries inside and outside the sources. ok is
// false when the input holds no event or the conformity build rejects it.
func refCase(v Variant, users int, horizon, support float64, data, rows []byte) (m *Model, seq *timeline.Sequence, conf *conformity.Computer, ok bool) {
	type rec struct {
		a   timeline.Activity
		par byte
	}
	var recs []rec
	for k := 0; k+4 <= len(data); k += 4 {
		recs = append(recs, rec{a: timeline.Activity{
			User:     timeline.UserID(int(data[k]) % users),
			Time:     horizon * (float64(data[k+1]) / 255),
			Polarity: (float64(data[k+2]) - 128) / 128,
			Parent:   timeline.NoParent,
		}, par: data[k+3]})
	}
	if len(recs) == 0 {
		return nil, nil, nil, false
	}
	slices.SortStableFunc(recs, func(a, b rec) int { return cmp.Compare(a.a.Time, b.a.Time) })
	seq = &timeline.Sequence{M: users, Horizon: horizon, Activities: make([]timeline.Activity, len(recs))}
	for k, r := range recs {
		r.a.ID = timeline.ActivityID(k)
		if r.par >= 64 && k > 0 {
			r.a.Parent = timeline.ActivityID(int(r.par) % k)
		}
		seq.Activities[k] = r.a
	}

	cfg := quickCfg(v)
	if err := cfg.fill(); err != nil {
		panic(err)
	}
	cfg.KernelSupport = support
	link, _ := cfg.Variant.Link()
	m = &Model{
		M: users, Variant: v, Horizon: horizon,
		Mu:      make([]float64, users),
		Kernels: make([]kernel.Kernel, users),
		cfg:     cfg, link: link,
	}
	ker, _ := kernel.NewExponential(5 / support)
	sampled, err := kernel.Sample(ker, support/24, 25)
	if err != nil {
		panic(err)
	}
	sampled.Normalize()
	for i := range m.Kernels {
		m.Kernels[i] = sampled
	}
	cols := seqColumns(seq)
	sources, err := cooccurrenceSources(cols, support, 1)
	if err != nil {
		panic(err)
	}
	if err := m.initParams(cols, sources); err != nil {
		panic(err)
	}
	m.reads = m.params.readSets()
	if len(rows) > 0 {
		val := func(p int) float64 {
			b := rows[p%len(rows)]
			if b == 0 {
				return 0
			}
			return (float64(b) - 96) / 320
		}
		setParams(m, sources, func(i, j int) (alpha, gammaI, gammaN, beta float64) {
			p := 3 * (i*users + j)
			return val(p), val(p + 1), val(p + 2), 0.05 + float64(rows[(p+1)%len(rows)])/600
		})
	}
	if v.ConformityAware {
		forest, err := branching.FromSequence(seq)
		if err != nil {
			return nil, nil, nil, false
		}
		if conf, err = conformity.New(seq, forest, cfg.Conformity); err != nil {
			return nil, nil, nil, false
		}
	}
	return m, seq, conf, true
}

// kernelPassPair runs the column-driven pass and the reference pass from the
// same starting kernels and returns both banks.
func kernelPassPair(t testing.TB, m *Model, seq *timeline.Sequence, conf *conformity.Computer) (got, want []kernel.Kernel) {
	t.Helper()
	init := slices.Clone(m.Kernels)
	defer func() { m.Kernels = init }()
	errGot := m.updateKernels(context.Background(), seqColumns(seq), conf)
	got = m.Kernels
	m.Kernels = slices.Clone(init)
	errWant := m.refUpdateKernels(context.Background(), seq, conf)
	want = m.Kernels
	if errGot != nil || errWant != nil {
		t.Fatalf("kernel pass error %v, reference error %v", errGot, errWant)
	}
	return got, want
}

// kernelBitsDiff returns nil when both banks hold the same kernel objects or
// discrete kernels equal bit for bit (step, values and cumulative table),
// and the first difference otherwise.
func kernelBitsDiff(got, want []kernel.Kernel) error {
	for i := range want {
		if got[i] == want[i] {
			continue
		}
		g, ok1 := got[i].(*kernel.Discrete)
		w, ok2 := want[i].(*kernel.Discrete)
		if !ok1 || !ok2 {
			return fmt.Errorf("kernel %d: %v vs reference %v", i, got[i], want[i])
		}
		if math.Float64bits(g.Step) != math.Float64bits(w.Step) || len(g.Values) != len(w.Values) {
			return fmt.Errorf("kernel %d: step %v/%d taps vs reference %v/%d", i, g.Step, len(g.Values), w.Step, len(w.Values))
		}
		for k := range w.Values {
			if math.Float64bits(g.Values[k]) != math.Float64bits(w.Values[k]) {
				return fmt.Errorf("kernel %d tap %d: %v vs reference %v", i, k, g.Values[k], w.Values[k])
			}
		}
		gc, wc := g.CumTable(), w.CumTable()
		for k := range wc {
			if math.Float64bits(gc[k]) != math.Float64bits(wc[k]) {
				return fmt.Errorf("kernel %d cumulative %d: %v vs reference %v", i, k, gc[k], wc[k])
			}
		}
	}
	return nil
}

var kernelPassVariants = []Variant{VariantLHP, VariantEHP, VariantL, VariantLI, VariantLN, VariantE}

// TestKernelPassMatchesReference compares every kernel value of the
// column-driven pass with the reference pass's, via math.Float64bits, on
// random corpora. The corpora cover, and the test checks it covered: HP and
// conformity variants, nonzero γ outside m.sources[i], negative CHASSIS-E α
// (skipped by both passes), events at exactly the horizon on receivers with
// enough events to estimate, users with no events, diagonal-only α rows, and
// trains of at least 8 contributing events that leave 5 to 7 past the last
// multiple of 8, so dft.AddTrain's vector sweep and both widths of its Go
// tail run.
func TestKernelPassMatchesReference(t *testing.T) {
	r := rng.New(23)
	var cov struct{ estimated, horizon, idle, stale, negative, ragged, diagonal int }
	for c := 0; c < 240; c++ {
		v := kernelPassVariants[c%len(kernelPassVariants)]
		users := 2 + r.Intn(7)
		active := users - r.Intn(2) // users from active on have no events
		horizon := 20 + r.Uniform(0, 400)
		data := make([]byte, 4*(8+r.Intn(160)))
		for k := 0; k < len(data); k += 4 {
			data[k] = byte(r.Intn(active))
			data[k+1] = byte(r.Intn(256))
			data[k+2] = byte(r.Intn(256))
			data[k+3] = byte(r.Intn(256))
		}
		if c%3 == 0 {
			data[1] = 255 // an event at exactly the horizon
		}
		diagonal := !v.ConformityAware && c%4 == 0
		rows := make([]byte, 3*users*users)
		for p := range rows {
			if r.Bernoulli(0.6) {
				rows[p] = byte(1 + r.Intn(255))
			}
			if i, j := p/3/users, p/3%users; diagonal && i != j {
				rows[p] = 0
			}
		}
		m, seq, conf, ok := refCase(v, users, horizon, horizon*r.Uniform(0.02, 0.3), data, rows)
		if !ok {
			t.Fatalf("case %d: corpus rejected", c)
		}
		if diagonal {
			// No sources, as in TestUpdateKernelsRecoversDecayShape: every
			// α is a tail entry.
			mir := mirrorOf(m)
			setParams(m, nil, func(i, j int) (alpha, gammaI, gammaN, beta float64) {
				return mir.alpha[i][j], mir.gammaI[i][j], mir.gammaN[i][j], mir.beta[i][j]
			})
			cov.diagonal++
		}
		if active < users {
			cov.idle++
		}
		got, want := kernelPassPair(t, m, seq, conf)
		if err := kernelBitsDiff(got, want); err != nil {
			t.Fatalf("case %d (%s, %d users, diagonal %v): %v", c, v.Name(), users, diagonal, err)
		}

		exc := excitation{m: m, conf: conf}
		own := seq.CountByUser()
		for i := 0; i < users; i++ {
			if want[i] != m.Kernels[i] { // kernelPassPair restored the starting bank
				cov.estimated++
			}
			if own[i] < 4 {
				continue
			}
			for _, a := range seq.Activities {
				if int(a.User) == i && a.Time == horizon {
					cov.horizon++
					break
				}
			}
			in := map[int]bool{}
			for _, j := range m.params.sources(i) {
				in[j] = true
			}
			contrib := 0
			for _, a := range seq.Activities {
				alpha := exc.Alpha(i, int(a.User), a.Time)
				switch {
				case alpha < 0 && v.ConformityAware:
					cov.negative++ // CHASSIS-E: the exp link keeps the sign
				case alpha > 0 && v.ConformityAware && !in[int(a.User)]:
					cov.stale++ // a γ entry outside the sources
				}
				if alpha > 0 {
					contrib++
				}
			}
			if contrib >= 8 && contrib%8 > 4 {
				cov.ragged++
			}
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.estimated < 100 || cov.horizon == 0 || cov.idle == 0 || cov.stale == 0 ||
		cov.negative == 0 || cov.ragged == 0 || cov.diagonal == 0 {
		t.Fatalf("the corpora stopped covering a case: %+v", cov)
	}
}

var objectiveVariants = []Variant{VariantLHP, VariantEHP, VariantL, VariantLI, VariantLN, VariantE, VariantEI, VariantEN}

// TestObjectiveMatchesReference compares every objective value and gradient
// component with the reference objective's, via math.Float64bits, for every
// variant: the closed-form and the Euler-grid compensator, the static HP
// objective and the conformity one (clamped negative weights included), in
// the call orders of the optimizer (sameObjectiveBits). The reference runs
// on the same data and, at every call with finite coordinates, on the
// dimension's data built without the structural-zero rule too.
func TestObjectiveMatchesReference(t *testing.T) {
	for vi, v := range objectiveVariants {
		t.Run(v.Name(), func(t *testing.T) {
			r := rng.New(int64(41 + vi))
			evaluated, pruned := 0, 0
			for c := 0; c < 10; c++ {
				users := 3 + r.Intn(6)
				horizon := 50 + r.Uniform(0, 300)
				data := make([]byte, 4*(20+r.Intn(120)))
				for k := range data {
					data[k] = byte(r.Intn(256))
				}
				m, seq, conf, ok := refCase(v, users, horizon, horizon*r.Uniform(0.05, 0.3), data, nil)
				if !ok {
					t.Fatalf("case %d: corpus rejected", c)
				}
				cols := seqColumns(seq)
				for i := 0; i < users; i++ {
					if len(m.params.sources(i)) == 0 {
						continue
					}
					d := m.buildDim(cols, conf, i)
					obj, ref := m.objective(d), m.refObjective(d, conf)
					full := m.refObjective(m.refBuildDimData(seq, conf, i, !isLinear(m), false), conf)
					if d.dropped > 0 {
						pruned++
					}
					lower, upper := m.bounds(i)
					for trial := 0; trial < 6; trial++ {
						x := m.pack(i)
						if trial > 0 {
							for p := range x {
								x[p] = r.Uniform(lower[p], upper[p]/4)
								if lower[p] == 0 && r.Bernoulli(0.2) {
									x[p] = -r.Uniform(0, 0.5)
								}
							}
						}
						sameObjectiveBits(t, obj.eval, ref, full, x)
						evaluated++
					}
					obj.release()
				}
			}
			if evaluated < 50 {
				t.Fatalf("only %d evaluations", evaluated)
			}
			if v.ConformityAware && pruned == 0 {
				t.Fatal("no dimension dropped a source event")
			}
		})
	}
}

// TestObjectiveRunsValuePassOncePerPoint pins the memo: a gradient asked
// for at the point of the last value pass runs only the gradient pass, and
// any other point runs a value pass.
func TestObjectiveRunsValuePassOncePerPoint(t *testing.T) {
	for _, v := range []Variant{VariantLHP, VariantL} {
		m, dd := buildModelForGradCheck(t, v, 31)
		o := m.objective(dd)
		x := m.pack(dd.i)
		moved := slices.Clone(x)
		moved[len(moved)-1] += 0.25
		steps := []struct {
			x            []float64
			grad         bool
			value, grads int // pass counts after the call
		}{
			{x, true, 1, 1},
			{x, false, 1, 1},
			{x, true, 1, 2},
			{moved, false, 2, 2},
			{x, true, 3, 3},
			{moved, true, 4, 4},
		}
		for k, st := range steps {
			var grad []float64
			if st.grad {
				grad = make([]float64, len(x))
			}
			o.eval(st.x, grad)
			if o.valuePasses != st.value || o.gradPasses != st.grads {
				t.Fatalf("%s call %d: %d value and %d gradient passes, want %d and %d",
					v.Name(), k, o.valuePasses, o.gradPasses, st.value, st.grads)
			}
		}
		o.release()
	}
}

// objCall is one objective call: a point, with or without a gradient.
type objCall struct {
	x    []float64
	grad bool
}

// sameObjectiveBits runs the objectives through the optimizer's call
// orders around x and fails t on the first differing bit (sameCallBits):
//   - value only at x, then value and gradient at x (an accepted trial and
//     the gradient refresh at it);
//   - for every coordinate p, value only at x with x[p] moved, then value
//     and gradient at x (a rejected trial, then a gradient at the kept
//     point);
//   - value only at a point whose value is NaN, then value and gradient at
//     x.
func sameObjectiveBits(t *testing.T, obj, ref, full infer.Objective, x []float64) {
	t.Helper()
	calls := []objCall{{x, false}, {x, true}}
	for p := range x {
		moved := slices.Clone(x)
		moved[p] += 0.125 + math.Abs(moved[p])/2
		calls = append(calls, objCall{moved, false}, objCall{x, true})
	}
	nan := slices.Clone(x)
	nan[0] = math.NaN()
	if v := ref(nan, nil); !math.IsNaN(v) {
		t.Fatalf("value %v at a NaN μ", v)
	}
	calls = append(calls, objCall{nan, false}, objCall{x, true})
	if err := sameCallBits(obj, ref, full, calls); err != nil {
		t.Fatal(err)
	}
}

// sameCallBits makes each call on obj and ref in order and returns the first
// value or gradient component whose bits differ. full is the reference
// objective on the dimension's data built without the structural-zero rule:
// a call whose coordinates are all finite is made on it too and must give
// the same bits.
func sameCallBits(obj, ref, full infer.Objective, calls []objCall) error {
	for k, c := range calls {
		got, g := callObjective(obj, c)
		refs := []infer.Objective{ref}
		if !slices.ContainsFunc(c.x, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }) {
			refs = append(refs, full)
		}
		for r, f := range refs {
			want, w := callObjective(f, c)
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("call %d (gradient %v) at %v: value %v, reference %d %v", k, c.grad, c.x, got, r, want)
			}
			for p := range g {
				if math.Float64bits(g[p]) != math.Float64bits(w[p]) {
					return fmt.Errorf("call %d at %v: gradient[%d] %v, reference %d %v", k, c.x, p, g[p], r, w[p])
				}
			}
		}
	}
	return nil
}

// callObjective makes call c on f: the value, and the gradient when c asks
// for one, written over NaNs so a stale component shows.
func callObjective(f infer.Objective, c objCall) (float64, []float64) {
	var g []float64
	if c.grad {
		g = make([]float64, len(c.x))
		for p := range g {
			g[p] = math.NaN()
		}
	}
	return f(c.x, g), g
}

// isLinear reports whether m's link is the linear one: no Euler grid.
func isLinear(m *Model) bool {
	_, linear := m.link.(hawkes.LinearLink)
	return linear
}

// FuzzObjective runs one dimension's objective against the reference
// objective through a fuzzed call sequence on a fuzzed corpus (decoded by
// refCase) and compares every value and gradient component bit for bit.
// calls holds 2-byte records (op, b): op bit 0 asks for a gradient; op>>1
// mod 4 picks the point: 0 repeats the previous point, 1 returns to the
// model's packed parameters, 2 sets coordinate b mod n of the previous point
// to (b−96)/64, and 3 sets it to NaN.
func FuzzObjective(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(99), uint8(20), uint8(1),
		[]byte{0, 10, 200, 0, 1, 40, 90, 70, 0, 80, 128, 65, 2, 120, 30, 66, 0, 160, 250, 67, 1, 200, 0, 80, 0, 255, 140, 90, 2, 255, 60, 91},
		[]byte{0, 130, 7, 200, 1, 255, 96, 40},
		[]byte{3, 0, 4, 5, 1, 0, 4, 200, 0, 0, 1, 0, 6, 1, 3, 0, 2, 0, 1, 0})
	f.Add(uint8(5), uint8(4), uint8(150), uint8(40), uint8(0),
		[]byte{0, 5, 10, 0, 1, 6, 250, 64, 2, 30, 128, 65, 3, 31, 1, 66, 0, 90, 90, 67, 1, 91, 200, 68, 2, 92, 60, 0, 0, 93, 40, 69, 1, 200, 220, 70, 0, 255, 128, 71},
		[]byte{200, 20, 90, 0, 140, 180},
		[]byte{3, 0, 4, 9, 1, 0, 5, 2, 1, 0, 4, 30, 4, 31, 3, 0})
	f.Add(uint8(0), uint8(2), uint8(9), uint8(63), uint8(1),
		[]byte{0, 1, 2, 3, 0, 2, 3, 64, 0, 3, 4, 65, 0, 255, 5, 66, 1, 255, 6, 67},
		[]byte{1},
		[]byte{1, 0, 0, 0, 4, 1, 1, 0})
	// CHASSIS-L, receiver 0 of TestBuildDimDropsStructurallyZeroTerms's
	// cascade: its sources' events before their pairs' first samples, and
	// every event of the source without samples, are left out, and the kept
	// event with Ψ = 0 and αᴺ ≠ 0 stays.
	f.Add(uint8(2), uint8(3), uint8(79), uint8(63), uint8(0),
		[]byte{1, 32, 192, 0, 3, 48, 192, 0, 0, 64, 128, 64, 2, 96, 192, 66, 0, 128, 192, 67, 3, 144, 192, 0, 1, 160, 192, 0, 2, 192, 192, 0, 0, 224, 192, 0},
		[]byte{160, 40, 220, 0},
		[]byte{3, 0, 4, 5, 1, 0, 5, 2, 6, 1, 1, 0, 3, 0, 4, 200, 1, 0})
	// The same dimension, whose x is μ then (γᴵ, β, γᴺ) for slots 0-2, slot 1
	// holding the event with Ψ = 1: slot 1's β moves twice in a row, then its
	// γᴵ, then only μ, then its β turns NaN, then its γᴵ too, then both come
	// back, each move followed by a gradient call, so the per-slot refresh
	// re-sweeps and re-weights from state a previous move left, NaN αᴵ
	// times NaN γᴵ included.
	f.Add(uint8(2), uint8(3), uint8(79), uint8(63), uint8(0),
		[]byte{1, 32, 192, 0, 3, 48, 192, 0, 0, 64, 128, 64, 2, 96, 192, 66, 0, 128, 192, 67, 3, 144, 192, 0, 1, 160, 192, 0, 2, 192, 192, 0, 0, 224, 192, 0},
		[]byte{160, 40, 220, 0},
		[]byte{4, 105, 1, 0, 4, 125, 1, 0, 4, 114, 1, 0, 4, 100, 1, 0, 6, 5, 1, 0, 6, 4, 1, 0, 4, 125, 1, 0, 4, 114, 1, 0})
	f.Fuzz(func(t *testing.T, variant, users, hz, support, dim uint8, data, rows, calls []byte) {
		if len(data) > 4*200 {
			data = data[:4*200]
		}
		if len(calls) > 2*64 {
			calls = calls[:2*64]
		}
		horizon := 1 + float64(hz)
		v := objectiveVariants[int(variant)%len(objectiveVariants)]
		m, seq, conf, ok := refCase(v, 1+int(users%8), horizon, horizon*(1+float64(support%64))/128, data, rows)
		if !ok {
			t.Skip()
		}
		i := int(dim) % m.M
		if len(m.params.sources(i)) == 0 {
			t.Skip()
		}
		d := m.buildDim(seqColumns(seq), conf, i)
		obj := m.objective(d)
		defer obj.release()
		full := m.refObjective(m.refBuildDimData(seq, conf, i, !isLinear(m), false), conf)
		base := m.pack(i)
		x := base
		var seqCalls []objCall
		for k := 0; k+2 <= len(calls); k += 2 {
			op, b := calls[k], calls[k+1]
			switch op >> 1 % 4 {
			case 1:
				x = base
			case 2:
				x = slices.Clone(x)
				x[int(b)%len(x)] = (float64(b) - 96) / 64
			case 3:
				x = slices.Clone(x)
				x[int(b)%len(x)] = math.NaN()
			}
			seqCalls = append(seqCalls, objCall{x, op&1 == 1})
		}
		if err := sameCallBits(obj.eval, m.refObjective(d, conf), full, seqCalls); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzKernelPass runs the column-driven kernel pass against the reference
// pass on fuzzed small corpora and parameter rows (decoded by refCase).
func FuzzKernelPass(f *testing.F) {
	f.Add(uint8(0), uint8(3), uint8(99), uint8(20),
		[]byte{0, 10, 200, 0, 1, 40, 90, 70, 0, 80, 128, 65, 2, 120, 30, 66, 0, 160, 250, 67, 1, 200, 0, 80, 0, 255, 140, 90, 2, 255, 60, 91},
		[]byte{0, 130, 7, 200, 1, 255, 96, 40})
	f.Add(uint8(2), uint8(4), uint8(150), uint8(40),
		[]byte{0, 5, 10, 0, 1, 6, 250, 64, 2, 30, 128, 65, 3, 31, 1, 66, 0, 90, 90, 67, 1, 91, 200, 68, 2, 92, 60, 0, 0, 93, 40, 69, 1, 200, 220, 70, 0, 255, 128, 71},
		[]byte{200, 20, 90, 0, 140, 180})
	f.Add(uint8(5), uint8(2), uint8(9), uint8(63), []byte{0, 1, 2, 3, 0, 2, 3, 64, 0, 3, 4, 65, 0, 255, 5, 66, 1, 255, 6, 67}, []byte{1})
	// L-HP on two users with every α at 0.325: each receiver's train is all
	// 21 events, so dft.AddTrain's vector sweep runs twice and its Go tail
	// takes the last 5.
	train := make([]byte, 0, 4*21)
	for k := 0; k < 21; k++ {
		train = append(train, byte(k%2), byte(5+11*k), byte(40+9*k), 0)
	}
	f.Add(uint8(0), uint8(1), uint8(199), uint8(40), train, []byte{200})
	f.Fuzz(func(t *testing.T, variant, users, hz, support uint8, data, rows []byte) {
		if len(data) > 4*200 {
			data = data[:4*200]
		}
		horizon := 1 + float64(hz)
		v := kernelPassVariants[int(variant)%len(kernelPassVariants)]
		m, seq, conf, ok := refCase(v, 1+int(users%8), horizon, horizon*(1+float64(support%64))/128, data, rows)
		if !ok {
			t.Skip()
		}
		got, want := kernelPassPair(t, m, seq, conf)
		if err := kernelBitsDiff(got, want); err != nil {
			t.Fatal(err)
		}
	})
}

// TestHPAlphaStaysOnSources is the HP half of the stale-parameter invariant:
// after in-memory and sharded L-HP fits, no α outside m.sources[i] is
// nonzero, so the kernel pass's nonzero-row walk visits exactly the
// sources' events. The corpus has more users than MaxSourcesPerDim + 1, so
// the sources are a strict subset of each row.
func TestHPAlphaStaysOnSources(t *testing.T) {
	forceSmallChunks(t, 48)
	d := wideDataset(t)
	cfg := quickCfg(VariantLHP)
	mem, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg
	c.ShardEvents = 130
	c.Workers = 2
	sh, err := FitSharded(context.Background(), openCorpus(t, writeCorpusFile(t, d.Seq, 57)), c)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*Model{"in-memory": mem, "sharded": sh} {
		outside, nonzero := 0, 0
		for i, row := range mirrorOf(m).alpha {
			in := make([]bool, m.M)
			for _, j := range m.params.sources(i) {
				in[j] = true
			}
			for j, a := range row {
				if a == 0 {
					continue
				}
				nonzero++
				if !in[j] {
					t.Errorf("%s: Alpha[%d][%d] = %v outside the sources %v", name, i, j, a, m.params.sources(i))
				}
			}
			if len(m.params.sources(i)) < m.M-1 {
				outside++
			}
		}
		if nonzero == 0 || outside == 0 {
			t.Fatalf("%s: vacuous check (%d nonzero α, %d rows with users outside their sources)", name, nonzero, outside)
		}
	}
}

// wideDataset is a corpus with more users than MaxSourcesPerDim + 1, so the
// sources are a strict subset of each row.
func wideDataset(t *testing.T) *cascade.Dataset {
	t.Helper()
	d, err := cascade.Generate(cascade.Config{
		Name: "wide", M: 40, Horizon: 600, Seed: 5,
		Graph: cascade.BarabasiAlbert, GraphDegree: 3, Reciprocity: 0.5,
		Topics: 2, BaseRateLo: 0.01, BaseRateHi: 0.03,
		KernelRate: 0.8, TargetBranching: 0.55,
		ConformityWeight: 0.7, PolarityNoise: 0.15, LikeFraction: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestConformityReadSet: a model's conformity snapshot keeps only its read
// set and answers every query the model makes as a build of every pair
// does. For the six conformity-aware variants, fitted in memory and sharded
// with inferred trees (where CHASSIS-L leaves γ entries outside the
// sources) and in memory with observed trees, and for a saved and loaded
// model and its incremental refit: the read set holds every source and
// every user the row excites, and excitation.Alpha reads the same bits from
// m.Conf as from an all-pairs build on m.Forest, for every pair at every
// event time.
func TestConformityReadSet(t *testing.T) {
	forceSmallChunks(t, 48)
	d := wideDataset(t)
	corpus := writeCorpusFile(t, d.Seq, 57)
	var stale, filtered int
	check := func(name string, m *Model) {
		t.Helper()
		mir := mirrorOf(m)
		for i := 0; i < m.M; i++ {
			for j := 0; j < m.M; j++ {
				src, exc := slices.Contains(m.params.sources(i), j), mir.excites(m, i, j)
				if _, in := slices.BinarySearch(m.reads[i], j); (src || exc) && !in {
					t.Fatalf("%s: user %d (source %v, excites %v) missing from read set %v of receiver %d", name, j, src, exc, m.reads[i], i)
				}
				if exc && !src {
					stale++
				}
			}
		}
		full, err := conformity.New(d.Seq, m.Forest, m.cfg.Conformity)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Conf.ActivePairs()) < len(full.ActivePairs()) {
			filtered++
		}
		got, want := excitation{m: m, conf: m.Conf}, excitation{m: m, conf: full}
		for i := 0; i < m.M; i++ {
			for j := 0; j < m.M; j++ {
				for _, a := range d.Seq.Activities {
					if g, w := got.Alpha(i, j, a.Time), want.Alpha(i, j, a.Time); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: Alpha(%d, %d, %g) = %v, all-pairs build %v", name, i, j, a.Time, g, w)
					}
				}
			}
		}
	}
	var saved *Model
	for _, v := range []Variant{VariantL, VariantLI, VariantLN, VariantE, VariantEI, VariantEN} {
		cfg := quickCfg(v)
		mem, err := Fit(d.Seq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(v.Name()+" in memory", mem)
		c := cfg
		c.ShardEvents = 130
		c.Workers = 2
		sh, err := FitSharded(context.Background(), openCorpus(t, corpus), c)
		if err != nil {
			t.Fatal(err)
		}
		check(v.Name()+" sharded", sh)
		c = cfg
		c.UseObservedTrees = true
		obs, err := Fit(d.Seq, c)
		if err != nil {
			t.Fatal(err)
		}
		check(v.Name()+" observed trees", obs)
		if v == VariantL {
			saved = mem
		}
	}
	var buf bytes.Buffer
	if err := saved.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf, d.Seq)
	if err != nil {
		t.Fatal(err)
	}
	check("loaded CHASSIS-L", loaded)
	refit, err := loaded.RefitIncremental(context.Background(), d.Seq, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("refitted CHASSIS-L", refit)
	t.Logf("%d excited pairs outside the sources; %d of 20 snapshots smaller than the all-pairs build", stale, filtered)
	if stale == 0 || filtered == 0 {
		t.Fatalf("vacuous check: %d excited pairs outside the sources, %d snapshots smaller than the all-pairs build", stale, filtered)
	}
}
