package core

import (
	"context"
	"math"
	"math/cmplx"

	"chassis/internal/conformity"
	"chassis/internal/dft"
	"chassis/internal/kernel"
	"chassis/internal/parallel"
	"chassis/internal/scratch"
)

// spectrumPool recycles the kernel pass's per-receiver spectra.
var spectrumPool scratch.Pool[complex128]

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
// global order (eventCols.merge), only the events of the users in its row
// (m.reads[i], the only users for whom excitation.Alpha can be nonzero; an
// event where it is not positive adds nothing). dft.AddTrain adds the
// train's transform, each bin receiving the events in event order, so every
// float is the one a one-event-per-sweep pass over all events computes
// (DESIGN.md §7, "Fit hot layers"). Each receiver's buffers come from
// scratch pools and go back when it is done.
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
		floats := scratch.Floats(fftBins + 2*taps)
		defer scratch.PutFloats(floats)
		spectra := spectrumPool.Get(3 * fftBins)
		defer spectrumPool.Put(spectra)
		counts, values, blended := floats[:fftBins], floats[fftBins:fftBins+taps], floats[fftBins+taps:]
		lam, denom, phiF := spectra[:fftBins], spectra[fftBins:2*fftBins], spectra[2*fftBins:]

		// Counting process of dimension i in fftBins slots; an event at
		// the horizon falls in the last one.
		for _, k := range own {
			b := int(cols.times[k] / delta)
			if b >= fftBins {
				b = fftBins - 1
			}
			counts[b]++
		}
		dft.ForwardReal(lam, counts)

		// Excitation train of dimension i in bin units, over the events
		// of the users in row i, in global order.
		evs := cols.merge(m.reads[i])
		defer positions.Put(evs)
		wbuf := scratch.Floats(len(evs))
		defer scratch.PutFloats(wbuf)
		contrib, ws := evs[:0], wbuf[:0]
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
		for n := range phiF {
			d := denom[n]
			phiF[n] = lam[n] * cmplx.Conj(d) / complex(real(d)*real(d)+imag(d)*imag(d)+eps, 0)
		}
		phiT := dft.Inverse(phiF)

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
