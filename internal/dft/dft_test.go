package dft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestForwardKnownValues(t *testing.T) {
	// DFT of [1, 0, 0, 0] is all ones.
	x := []complex128{1, 0, 0, 0}
	got := Forward(x)
	for i, v := range got {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse DFT[%d] = %v, want 1", i, v)
		}
	}
	// DFT of a constant is an impulse at bin 0 with value N.
	c := []complex128{2, 2, 2, 2}
	got = Forward(c)
	if cmplx.Abs(got[0]-8) > 1e-12 {
		t.Errorf("DC bin = %v, want 8", got[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(got[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, got[i])
		}
	}
}

func TestForwardSinusoid(t *testing.T) {
	// A pure complex exponential at bin 3 concentrates all energy there.
	const n = 16
	x := make([]complex128, n)
	for k := 0; k < n; k++ {
		x[k] = cmplx.Rect(1, 2*math.Pi*3*float64(k)/n)
	}
	got := Forward(x)
	for i, v := range got {
		want := 0.0
		if i == 3 {
			want = n
		}
		if cmplx.Abs(v-complex(want, 0)) > 1e-10 {
			t.Errorf("bin %d = %v, want %g", i, v, want)
		}
	}
}

func TestRoundTripPow2AndOdd(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 3, 5, 7, 12, 100} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		back := Inverse(Forward(x))
		for i := range x {
			if cmplx.Abs(back[i]-x[i]) > 1e-9 {
				t.Errorf("n=%d: round-trip[%d] = %v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestFFTMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	n := 32
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	fast := Forward(x)
	slow := append([]complex128(nil), x...)
	naiveDFT(slow, false)
	for i := range fast {
		if cmplx.Abs(fast[i]-slow[i]) > 1e-8 {
			t.Errorf("bin %d: fft %v vs naive %v", i, fast[i], slow[i])
		}
	}
}

func TestForwardReal(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	c := ForwardReal(make([]complex128, len(x)), x)
	want := Forward([]complex128{1, 2, 3, 4})
	for i := range c {
		if cmplx.Abs(c[i]-want[i]) > 1e-12 {
			t.Errorf("ForwardReal[%d] = %v, want %v", i, c[i], want[i])
		}
	}
	// Real-input symmetry: X[n] = conj(X[N-n]).
	for i := 1; i < len(c); i++ {
		if cmplx.Abs(c[i]-cmplx.Conj(c[len(c)-i])) > 1e-12 {
			t.Errorf("conjugate symmetry broken at %d", i)
		}
	}
}

// Property: Parseval — energy in time equals energy/N in frequency.
func TestParsevalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(60) + 1
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
		xf := Forward(x)
		return math.Abs(Energy(x)-Energy(xf)/float64(n)) < 1e-7*(1+Energy(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: linearity of the transform.
func TestLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(30) + 2
		x := make([]complex128, n)
		y := make([]complex128, n)
		sum := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), 0)
			y[i] = complex(r.NormFloat64(), 0)
			sum[i] = 2*x[i] + 3*y[i]
		}
		fx, fy, fsum := Forward(x), Forward(y), Forward(sum)
		for i := range fsum {
			if cmplx.Abs(fsum[i]-(2*fx[i]+3*fy[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: time shift corresponds to phase multiplication (Eq. 7.3).
func TestShiftTheoremProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 16
		shift := r.Intn(n)
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(r.NormFloat64(), 0)
		}
		shifted := make([]complex128, n)
		for i := range x {
			shifted[(i+shift)%n] = x[i]
		}
		fx, fs := Forward(x), Forward(shifted)
		for k := 0; k < n; k++ {
			phase := cmplx.Rect(1, -2*math.Pi*float64(k)*float64(shift)/float64(n))
			if cmplx.Abs(fs[k]-fx[k]*phase) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
