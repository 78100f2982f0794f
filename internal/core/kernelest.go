package core

import (
	"context"
	"math"
	"math/cmplx"

	"chassis/internal/conformity"
	"chassis/internal/dft"
	"chassis/internal/kernel"
	"chassis/internal/parallel"
)

// updateKernels is the nonparametric half of the M-step (Eqs. 7.5–7.8):
// per receiving dimension i,
//
//  1. bin the counting process into N slots and DFT it (Eq. 7.5 gives
//     Λᵢ[n]);
//  2. divide out the excitation: the denominator of Eq. 7.6 is the
//     Taylor-linearized transform of the excitation train,
//     Fᵢ'(μᵢ)·Σₑ αᵢⱼₑ(tₑ)·e^{−jωₙtₑ}, with the DC bin first corrected for
//     the exogenous mass 2π·Fᵢ(μᵢ)δ(ω) → Fᵢ(μᵢ)·T (Eq. 7.7);
//  3. IDFT back (Eq. 7.8), truncate to the kernel support, clamp the
//     (noise-induced) negative ripple, and renormalize to unit mass so
//     the excitation coefficients keep carrying the branching magnitude.
//
// The spectral division is Tikhonov-regularized — the raw division of
// Eq. 7.6 explodes wherever the excitation spectrum has a near-zero bin —
// and the result is blended with the previous kernel (KernelDamping) so the
// alternating EM procedure cannot oscillate.
//
// Each receiving dimension's estimate is independent — it reads the frozen
// parameters/conformity state and replaces only m.Kernels[i] — so the loop
// fans out over the worker pool, polling ctx between dimensions. The
// returned error only surfaces worker panics or cancellation; estimation
// failures keep the previous kernel, as before.
//
// The pass reads the flat event columns, so it runs in memory and out of
// core alike. Once per pass it computes every event's phase step; receiver i
// then bins only its own events (the columns' by-user index) and walks, in
// global order (eventCols.merge), only the events of users its row excites
// (the only events where excitation.Alpha can be nonzero), found among its
// read set (m.reads[i]). dft.AddTrain adds the train's transform, each bin
// receiving the events in event order, so every float is the one a
// one-event-per-sweep pass over all events computes (DESIGN.md §7, "Fit hot
// layers").
func (m *Model) updateKernels(ctx context.Context, cols *eventCols, conf *conformity.Computer) error {
	const fftBins = 256
	const tikhonov = 1e-3
	exc := excitation{m: m, conf: conf}
	T := cols.horizon
	delta := T / fftBins
	taps := int(math.Ceil(m.cfg.KernelSupport / delta))
	if taps < 2 {
		taps = 2
	}
	if taps > fftBins/2 {
		taps = fftBins / 2
	}

	// e^{−jω₁·pos} per event, pos = t/delta in bin units: the factor that
	// advances the event's phase from bin n to bin n+1.
	steps := make([]complex128, len(cols.times))
	for k, t := range cols.times {
		pos := t / delta
		steps[k] = cmplx.Rect(1, -2*math.Pi*pos/fftBins)
	}

	return parallel.DoContext(ctx, parallel.Workers(m.cfg.Workers), m.M, func(i int) error {
		own := cols.eventsOf(i)
		if len(own) < 4 {
			return nil // not enough signal to estimate a kernel for i
		}
		// Counting process of dimension i in fftBins slots; an event at
		// the horizon falls in the last one.
		counts := make([]float64, fftBins)
		for _, k := range own {
			b := int(cols.times[k] / delta)
			if b >= fftBins {
				b = fftBins - 1
			}
			counts[b]++
		}
		lam := dft.ForwardReal(counts)

		// Excitation train of dimension i in bin units, over the events
		// of the users row i excites, in global order. Each of them is in
		// i's ascending read set.
		var excited []int
		for _, j := range m.reads[i] {
			if m.excites(i, j) {
				excited = append(excited, j)
			}
		}
		evs := cols.merge(excited)
		contrib, ws := evs[:0], make([]float64, 0, len(evs))
		var alphaMass float64
		for _, k := range evs {
			alpha := exc.Alpha(i, int(cols.users[k]), cols.times[k])
			if alpha <= 0 {
				continue
			}
			alphaMass += alpha
			contrib = append(contrib, k)
			ws = append(ws, alpha)
		}
		fpmu := m.link.Deriv(m.Mu[i])
		if alphaMass <= 0 || fpmu <= 0 {
			return nil
		}
		denom := make([]complex128, fftBins)
		dft.AddTrain(denom, contrib, ws, steps)
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
