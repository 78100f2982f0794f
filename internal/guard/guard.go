// Package guard defines the numerical guardrails around iterative fits:
// per-iteration health checks (non-finite parameters, gradients, or
// log-likelihoods; exploding gradient norms; log-likelihood regressions
// beyond tolerance) and the bounded recovery policy the EM driver applies
// when a check trips — roll back to the last healthy iterate, shrink the
// projected-gradient step, and retry, failing with a structured
// *NumericalError once the retry budget is exhausted instead of ever
// returning a NaN-poisoned model.
//
// The package itself is pure bookkeeping: it detects violations and tracks
// the retry budget. The rollback mechanics (state snapshots, step
// rescaling) live with the state owner in internal/core, which also surfaces
// every recovery through the FitObserver callbacks and the internal/obs
// counters guard.violations / guard.recoveries.
package guard

import (
	"fmt"
	"math"
)

// Defaults for Policy fields left at their zero value (with Enabled set).
const (
	// DefaultMaxRecoveries bounds rollback-and-retry attempts per EM
	// iteration.
	DefaultMaxRecoveries = 3
	// DefaultLLDropTol is the relative training-log-likelihood regression
	// tolerated between consecutive healthy iterations. EM over sampled
	// diffusion trees is a stochastic-approximation scheme whose LL
	// legitimately jitters; only a collapse beyond this fraction of the
	// running magnitude is treated as a numerical failure.
	DefaultLLDropTol = 0.5
	// DefaultMaxGradNorm is the projected-gradient norm beyond which an
	// M-step is considered to have exploded.
	DefaultMaxGradNorm = 1e8
	// DefaultStepBackoff is the factor the projected-gradient step is
	// multiplied by on each recovery.
	DefaultStepBackoff = 0.5
)

// Policy configures the guardrails for one fit. The zero value disables
// them; setting Enabled activates every check with the documented defaults
// for zero-valued fields.
type Policy struct {
	// Enabled switches the guard on.
	Enabled bool `json:"enabled,omitempty"`
	// MaxRecoveries bounds rollback-and-retry attempts for one iteration
	// before the fit fails with a *NumericalError.
	MaxRecoveries int `json:"max_recoveries,omitempty"`
	// LLDropTol is the tolerated relative LL regression (see
	// DefaultLLDropTol).
	LLDropTol float64 `json:"ll_drop_tol,omitempty"`
	// MaxGradNorm is the gradient-norm explosion threshold.
	MaxGradNorm float64 `json:"max_grad_norm,omitempty"`
	// StepBackoff is the step-size multiplier applied on each recovery
	// (default 0.5 — the "halve the step" policy).
	StepBackoff float64 `json:"step_backoff,omitempty"`
}

// Fill resolves zero-valued fields to their defaults (no-op when disabled).
func (p *Policy) Fill() {
	if !p.Enabled {
		return
	}
	if p.MaxRecoveries <= 0 {
		p.MaxRecoveries = DefaultMaxRecoveries
	}
	if p.LLDropTol <= 0 {
		p.LLDropTol = DefaultLLDropTol
	}
	if p.MaxGradNorm <= 0 {
		p.MaxGradNorm = DefaultMaxGradNorm
	}
	if p.StepBackoff <= 0 || p.StepBackoff >= 1 {
		p.StepBackoff = DefaultStepBackoff
	}
}

// Violation is one tripped health check.
type Violation struct {
	// Quantity names what failed: "mu", "gamma_i", "gamma_n", "beta",
	// "alpha", "kernel", "grad_norm", or "train_ll".
	Quantity string
	// Value is the offending value (NaN/Inf for finiteness failures, the
	// norm or LL for threshold failures).
	Value float64
	// Reason is a human-readable account of the failure.
	Reason string
}

// String implements fmt.Stringer.
func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Quantity, v.Reason)
}

// NumericalError reports a fit abandoned after the recovery budget was
// exhausted. The fit that returns it has already rolled its state back to
// the last healthy iterate internally, but returns no model: callers never
// see NaN-poisoned parameters.
type NumericalError struct {
	// Phase names the lifecycle phase the final violation was detected in
	// ("mstep", "kernels", "loglik", "final").
	Phase string
	// Iteration is the 1-based EM iteration that kept failing.
	Iteration int
	// Quantity names the failing quantity (see Violation.Quantity).
	Quantity string
	// Value is the offending value of the final violation.
	Value float64
	// Recoveries is how many rollback-and-retry attempts were spent.
	Recoveries int
	// Reason is the final violation's human-readable account.
	Reason string
}

// Error implements error.
func (e *NumericalError) Error() string {
	return fmt.Sprintf("guard: fit diverged in iteration %d (%s): %s (value %v; gave up after %d recoveries)",
		e.Iteration, e.Phase, e.Reason, e.Value, e.Recoveries)
}

// CheckFinite returns a Violation when any value is NaN or ±Inf.
func CheckFinite(quantity string, values ...float64) *Violation {
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &Violation{Quantity: quantity, Value: v,
				Reason: fmt.Sprintf("non-finite %s (%v)", quantity, v)}
		}
	}
	return nil
}

// CheckVec is CheckFinite over a slice.
func CheckVec(quantity string, values []float64) *Violation {
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &Violation{Quantity: quantity, Value: v,
				Reason: fmt.Sprintf("non-finite %s (%v)", quantity, v)}
		}
	}
	return nil
}

// CheckGradNorm validates an M-step's reported gradient norm against the
// policy: non-finite or beyond MaxGradNorm is a violation. A NaN norm that
// merely means "not collected" must be filtered by the caller before it gets
// here — within the guard, every number is load-bearing.
func (p *Policy) CheckGradNorm(norm float64) *Violation {
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		return &Violation{Quantity: "grad_norm", Value: norm,
			Reason: fmt.Sprintf("non-finite gradient norm (%v)", norm)}
	}
	if norm > p.MaxGradNorm {
		return &Violation{Quantity: "grad_norm", Value: norm,
			Reason: fmt.Sprintf("gradient norm %.3g exceeds limit %.3g", norm, p.MaxGradNorm)}
	}
	return nil
}

// CheckLL validates a freshly evaluated training log-likelihood against the
// last healthy one (hasPrev false skips the regression check — there is
// nothing to regress from on the first healthy iteration).
func (p *Policy) CheckLL(ll float64, prev float64, hasPrev bool) *Violation {
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		return &Violation{Quantity: "train_ll", Value: ll,
			Reason: fmt.Sprintf("non-finite training log-likelihood (%v)", ll)}
	}
	if !hasPrev {
		return nil
	}
	floor := prev - p.LLDropTol*(1+math.Abs(prev))
	if ll < floor {
		return &Violation{Quantity: "train_ll", Value: ll,
			Reason: fmt.Sprintf("training log-likelihood regressed %.6g -> %.6g (tolerance floor %.6g)", prev, ll, floor)}
	}
	return nil
}
