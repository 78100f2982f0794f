// Package infer provides the optimization machinery shared by the model
// fitters: projected gradient ascent with backtracking line search over
// box-constrained parameter vectors. CHASSIS's M-step maximizes a concave
// per-dimension log-likelihood, so this simple scheme converges reliably;
// the baselines reuse it for their own updates.
package infer

import (
	"errors"
	"fmt"
	"math"

	"chassis/internal/scratch"
)

// Objective evaluates the function being maximized at x and writes its
// gradient into grad (len(grad) == len(x)) unless grad is nil.
// MaximizeProjected asks for the gradient at an accepted point right after
// the value-only call that accepted it, at the same x bit for bit, so an
// objective that keeps its last value pass need only add the gradient there.
type Objective func(x, grad []float64) float64

// Options configures MaximizeProjected.
type Options struct {
	// MaxIter caps gradient steps (default 100).
	MaxIter int
	// InitStep is the first trial step size (default 0.1).
	InitStep float64
	// Tol stops iteration when the relative objective gain drops below it
	// (default 1e-6).
	Tol float64
	// Lower/Upper are per-coordinate box constraints; nil means
	// unconstrained on that side.
	Lower, Upper []float64
	// MaxBacktracks bounds line-search halvings per step (default 30).
	MaxBacktracks int
}

func (o *Options) fill(n int) error {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	if o.InitStep <= 0 {
		o.InitStep = 0.1
	}
	if o.Tol <= 0 {
		o.Tol = 1e-6
	}
	if o.MaxBacktracks <= 0 {
		o.MaxBacktracks = 30
	}
	if o.Lower != nil && len(o.Lower) != n {
		return fmt.Errorf("infer: Lower has %d entries, want %d", len(o.Lower), n)
	}
	if o.Upper != nil && len(o.Upper) != n {
		return fmt.Errorf("infer: Upper has %d entries, want %d", len(o.Upper), n)
	}
	return nil
}

// Result reports the outcome of an optimization.
type Result struct {
	X         []float64
	Value     float64
	Iters     int
	Converged bool
	Rejected  int // line-search trials that did not improve the objective
}

// MaximizeProjected runs projected gradient ascent from x0: take a gradient
// step, project onto the box, and backtrack (halving the step) until the
// objective improves. The step size warms up (doubles) after successful
// steps so the search adapts to local curvature.
func MaximizeProjected(x0 []float64, f Objective, opts Options) (Result, error) {
	n := len(x0)
	if n == 0 {
		return Result{}, errors.New("infer: empty parameter vector")
	}
	if err := opts.fill(n); err != nil {
		return Result{}, err
	}
	x := append([]float64(nil), x0...)
	project(x, opts.Lower, opts.Upper)
	// grad/trial never escape (Result carries only x), so the M-step's many
	// per-dimension optimizations share pooled buffers instead of allocating.
	grad := scratch.Floats(n)
	trial := scratch.Floats(n)
	defer func() {
		scratch.PutFloats(grad)
		scratch.PutFloats(trial)
	}()
	val := f(x, grad)
	if math.IsNaN(val) {
		return Result{}, errors.New("infer: objective is NaN at the start point")
	}
	step := opts.InitStep
	res := Result{X: x, Value: val}
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iters = iter + 1
		improved := false
		for bt := 0; bt <= opts.MaxBacktracks; bt++ {
			for i := range trial {
				trial[i] = x[i] + step*grad[i]
			}
			project(trial, opts.Lower, opts.Upper)
			tv := f(trial, nil)
			if !math.IsNaN(tv) && tv > val {
				copy(x, trial)
				val = tv
				improved = true
				break
			}
			res.Rejected++
			step /= 2
			if step < 1e-14 {
				break
			}
		}
		if !improved {
			res.Converged = true
			break
		}
		gain := val - res.Value
		res.Value = val
		if gain <= opts.Tol*(1+math.Abs(val)) {
			res.Converged = true
			break
		}
		// Refresh the gradient at the accepted point and warm the step.
		val = f(x, grad)
		res.Value = val
		step *= 2
		if step > 1e6 {
			step = 1e6
		}
	}
	res.X = x
	res.Value = val
	return res, nil
}

// project clamps x into [lower, upper] in place.
func project(x, lower, upper []float64) {
	for i := range x {
		if lower != nil && x[i] < lower[i] {
			x[i] = lower[i]
		}
		if upper != nil && x[i] > upper[i] {
			x[i] = upper[i]
		}
	}
}

// ConstantVec returns a slice of n copies of v — a convenience for box
// constraints.
func ConstantVec(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// CheckGradient compares an analytic gradient against central finite
// differences at x, returning the worst absolute discrepancy. Test helper
// for the hand-derived likelihood gradients.
func CheckGradient(x []float64, f Objective, h float64) float64 {
	n := len(x)
	grad := make([]float64, n)
	f(x, grad)
	var worst float64
	xp := append([]float64(nil), x...)
	for i := 0; i < n; i++ {
		xp[i] = x[i] + h
		plus := f(xp, nil)
		xp[i] = x[i] - h
		minus := f(xp, nil)
		xp[i] = x[i]
		fd := (plus - minus) / (2 * h)
		if d := math.Abs(fd - grad[i]); d > worst {
			worst = d
		}
	}
	return worst
}
