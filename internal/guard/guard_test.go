package guard

import (
	"math"
	"strings"
	"testing"
)

func TestPolicyFillDefaults(t *testing.T) {
	p := Policy{Enabled: true}
	p.Fill()
	if p.MaxRecoveries != DefaultMaxRecoveries {
		t.Errorf("MaxRecoveries = %d, want %d", p.MaxRecoveries, DefaultMaxRecoveries)
	}
	if p.LLDropTol != DefaultLLDropTol {
		t.Errorf("LLDropTol = %v, want %v", p.LLDropTol, DefaultLLDropTol)
	}
	if p.MaxGradNorm != DefaultMaxGradNorm {
		t.Errorf("MaxGradNorm = %v, want %v", p.MaxGradNorm, DefaultMaxGradNorm)
	}
	if p.StepBackoff != DefaultStepBackoff {
		t.Errorf("StepBackoff = %v, want %v", p.StepBackoff, DefaultStepBackoff)
	}

	// Explicit settings survive Fill; a nonsense backoff (>= 1 would never
	// shrink the step) is replaced.
	p = Policy{Enabled: true, MaxRecoveries: 7, LLDropTol: 0.1, MaxGradNorm: 42, StepBackoff: 2}
	p.Fill()
	if p.MaxRecoveries != 7 || p.LLDropTol != 0.1 || p.MaxGradNorm != 42 {
		t.Errorf("explicit fields clobbered: %+v", p)
	}
	if p.StepBackoff != DefaultStepBackoff {
		t.Errorf("StepBackoff = %v, want default for out-of-range input", p.StepBackoff)
	}

	// Disabled policies are left untouched.
	p = Policy{}
	p.Fill()
	if p.MaxRecoveries != 0 || p.LLDropTol != 0 {
		t.Errorf("disabled policy filled: %+v", p)
	}
}

func TestCheckFiniteVariants(t *testing.T) {
	if v := CheckFinite("x", 1, 2, 3); v != nil {
		t.Errorf("finite values flagged: %v", v)
	}
	if v := CheckFinite("x", 1, math.NaN()); v == nil || v.Quantity != "x" {
		t.Errorf("NaN not flagged: %v", v)
	}
	if v := CheckFinite("x", math.Inf(1)); v == nil {
		t.Error("+Inf not flagged")
	}
	if v := CheckVec("mu", []float64{0, -1, math.Inf(-1)}); v == nil || !math.IsInf(v.Value, -1) {
		t.Errorf("CheckVec -Inf: %v", v)
	}
}

func TestCheckGradNorm(t *testing.T) {
	p := Policy{Enabled: true}
	p.Fill()
	if v := p.CheckGradNorm(1e3); v != nil {
		t.Errorf("healthy norm flagged: %v", v)
	}
	if v := p.CheckGradNorm(math.NaN()); v == nil || v.Quantity != "grad_norm" {
		t.Errorf("NaN norm: %v", v)
	}
	if v := p.CheckGradNorm(p.MaxGradNorm * 2); v == nil {
		t.Error("exploding norm not flagged")
	}
	if v := p.CheckGradNorm(p.MaxGradNorm); v != nil {
		t.Errorf("norm at the limit flagged: %v", v)
	}
}

func TestCheckLL(t *testing.T) {
	p := Policy{Enabled: true}
	p.Fill()
	if v := p.CheckLL(math.NaN(), 0, false); v == nil {
		t.Error("NaN LL not flagged")
	}
	// First healthy iteration: nothing to regress from.
	if v := p.CheckLL(-1e9, 0, false); v != nil {
		t.Errorf("first LL flagged: %v", v)
	}
	prev := -100.0
	floor := prev - p.LLDropTol*(1+math.Abs(prev))
	if v := p.CheckLL(floor+1e-9, prev, true); v != nil {
		t.Errorf("within-tolerance drop flagged: %v", v)
	}
	if v := p.CheckLL(floor-1, prev, true); v == nil || v.Quantity != "train_ll" {
		t.Errorf("collapse not flagged: %v", v)
	}
	// Improvement is always healthy.
	if v := p.CheckLL(prev+10, prev, true); v != nil {
		t.Errorf("improvement flagged: %v", v)
	}
}

func TestNumericalErrorMessage(t *testing.T) {
	e := &NumericalError{
		Phase: "mstep", Iteration: 4, Quantity: "mu",
		Value: math.NaN(), Recoveries: 3, Reason: "non-finite mu (NaN)",
	}
	msg := e.Error()
	for _, want := range []string{"iteration 4", "mstep", "non-finite mu", "3 recoveries"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestViolationString(t *testing.T) {
	v := &Violation{Quantity: "grad_norm", Value: 1e12, Reason: "gradient norm 1e+12 exceeds limit 1e+08"}
	if s := v.String(); !strings.Contains(s, "grad_norm") || !strings.Contains(s, "exceeds") {
		t.Errorf("String() = %q", s)
	}
}
