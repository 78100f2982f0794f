// Package dft implements the discrete Fourier transform machinery behind
// CHASSIS's nonparametric kernel estimator (Eqs. 7.5–7.8): the binned
// counting process is transformed to the frequency domain, the excitation
// terms are divided out per frequency, and the triggering kernel is
// recovered by the inverse transform.
//
// Power-of-two lengths use an iterative radix-2 FFT; other lengths fall back
// to the O(n²) direct transform, which is fine at the bin counts (≤ a few
// thousand) the estimator uses.
package dft

import (
	"math"
	"math/bits"
	"math/cmplx"
)

// Forward returns the DFT X[n] = Σ_k x[k]·e^{-j·2πnk/N}. The input is not
// modified.
func Forward(x []complex128) []complex128 {
	out := append([]complex128(nil), x...)
	transform(out, false)
	return out
}

// Inverse replaces x with its inverse DFT x[k] = (1/N)·Σ_n X[n]·e^{+j·2πnk/N}
// and returns it.
func Inverse(x []complex128) []complex128 {
	transform(x, true)
	n := float64(len(x))
	if n > 0 {
		for i := range x {
			x[i] /= complex(n, 0)
		}
	}
	return x
}

// ForwardReal writes the DFT of the real signal x into dst[:len(x)] and
// returns that slice.
func ForwardReal(dst []complex128, x []float64) []complex128 {
	dst = dst[:len(x)]
	for i, v := range x {
		dst[i] = complex(v, 0)
	}
	transform(dst, false)
	return dst
}

func transform(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	if n&(n-1) == 0 {
		fftRadix2(x, inverse)
		return
	}
	naiveDFT(x, inverse)
}

func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		ang := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Rect(1, ang)
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			half := size / 2
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

func naiveDFT(x []complex128, inverse bool) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Rect(1, ang)
		}
		out[k] = sum
	}
	copy(x, out)
}

// Energy returns Σ|x[i]|² — handy for Parseval-style checks.
func Energy(x []complex128) float64 {
	var s float64
	for _, v := range x {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return s
}
