package core

import (
	"chassis/internal/branching"
	"chassis/internal/guard"
	"chassis/internal/kernel"
	"chassis/internal/obs"
)

// emSnapshot is the rollback point the numerical guard captures before each
// EM iteration: deep copies of everything one iteration attempt mutates, so
// a failed attempt can be undone and retried with a smaller step. The RNG
// needs no snapshot — restoring estepCalls pins the E-step streams.
type emSnapshot struct {
	mu         []float64
	params     *params
	kernels    []kernel.Kernel
	forest     *branching.Forest
	estepCalls int
	historyLen int
	iterations int
}

// snapshotState captures the pre-iteration state.
func (m *Model) snapshotState(forest *branching.Forest) *emSnapshot {
	return &emSnapshot{
		mu:     append([]float64(nil), m.Mu...),
		params: m.params.clone(),
		// Kernel updates replace slice elements and never mutate a kernel
		// in place, so copying the slice header row is enough.
		kernels:    append([]kernel.Kernel(nil), m.Kernels...),
		forest:     forest,
		estepCalls: m.estepCalls,
		historyLen: len(m.History),
		iterations: m.Iterations,
	}
}

// restoreState rolls the model back to a snapshot. The snapshot's own
// buffers are re-copied so a second failed attempt can restore again.
// stepScale is deliberately NOT restored: the backoff is the recovery.
func (m *Model) restoreState(s *emSnapshot) {
	m.Mu = append([]float64(nil), s.mu...)
	m.params = s.params.clone()
	m.Kernels = append([]kernel.Kernel(nil), s.kernels...)
	m.estepCalls = s.estepCalls
	if len(m.History) > s.historyLen {
		m.History = m.History[:s.historyLen]
	}
	m.Iterations = s.iterations
}

// checkParamsFinite verifies every fitted parameter and tabulated kernel is
// finite, returning the phase ("mstep" for parameters, "kernels" for
// kernels) alongside the first violation.
func (m *Model) checkParamsFinite() (string, *guard.Violation) {
	if v := guard.CheckVec("mu", m.Mu); v != nil {
		return "mstep", v
	}
	if v := m.params.checkFinite(m.layout()); v != nil {
		return "mstep", v
	}
	for _, k := range m.Kernels {
		if d, ok := k.(*kernel.Discrete); ok {
			if v := guard.CheckVec("kernel", d.Values); v != nil {
				return "kernels", v
			}
		}
	}
	return "", nil
}

// healthCheck runs the guard's post-M-step checks: parameter/kernel
// finiteness plus the gradient-norm explosion threshold (the training-LL
// regression check runs separately, after the likelihood is evaluated).
func (m *Model) healthCheck(pol *guard.Policy, st obs.IterStats) (string, *guard.Violation) {
	if phase, v := m.checkParamsFinite(); v != nil {
		return phase, v
	}
	if st.GradNormValid {
		if v := pol.CheckGradNorm(st.GradNorm); v != nil {
			return "mstep", v
		}
	}
	return "", nil
}
