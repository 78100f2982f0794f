package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"chassis/internal/branching"
	"chassis/internal/checkpoint"
	"chassis/internal/conformity"
	"chassis/internal/kernel"
	"chassis/internal/timeline"
)

// modelFormatVersion is the model-file wire version Save writes. Bump it
// when modelJSON changes incompatibly; LoadModel rejects files from the
// future with a *checkpoint.VersionError instead of silently misreading
// them. Version 2 writes the parameter rows; files of version 1, and those
// without a version field (written before versioning, read as version 0),
// carry dense M×M matrices and stay loadable.
const modelFormatVersion = 2

// modelJSON is the wire form of a fitted model. The training sequence is
// not embedded — it is the caller's dataset file — so model files stay
// small; Load rebinds the parameters to the sequence and rebuilds the
// conformity state from the persisted forest.
type modelJSON struct {
	Version int       `json:"version"`
	Variant Variant   `json:"variant"`
	M       int       `json:"m"`
	Horizon float64   `json:"horizon"`
	Mu      []float64 `json:"mu"`
	// GammaI, GammaN, Beta and Alpha are version 1's dense parameter
	// matrices: read, never written.
	GammaI  [][]float64 `json:"gamma_i,omitempty"`
	GammaN  [][]float64 `json:"gamma_n,omitempty"`
	Beta    [][]float64 `json:"beta,omitempty"`
	Alpha   [][]float64 `json:"alpha,omitempty"`
	Sources [][]int     `json:"sources"`
	// Rows holds, from version 2, each receiver's parameter row: its users
	// in ascending order, sources and tail alike, and their values.
	Rows       []paramRowJSON `json:"rows,omitempty"`
	Parents    []int          `json:"parents"`
	KernelStep []float64      `json:"kernel_step"`
	KernelVals [][]float64    `json:"kernel_values"`
	// KernelExp carries the exact parametric form when every kernel is
	// exponential (ExpKernel fits). The tabulated KernelStep/KernelVals are
	// still written, so readers that predate the field keep working, but a
	// reader that understands it restores kernel.Exponential values,
	// preserving the fitted process's eligibility for the exponential fast
	// path across a save/load cycle.
	KernelExp  []expKernelJSON `json:"kernel_exp,omitempty"`
	Iterations int             `json:"iterations"`
	Config     Config          `json:"config"`
}

// expKernelJSON is the wire form of one kernel.Exponential.
type expKernelJSON struct {
	Rate  float64 `json:"rate"`
	Scale float64 `json:"scale"`
}

// expKernelParams extracts the parametric form when every kernel in the
// bank is a kernel.Exponential value; ok is false otherwise.
func expKernelParams(kernels []kernel.Kernel) (params []expKernelJSON, ok bool) {
	params = make([]expKernelJSON, len(kernels))
	for i, k := range kernels {
		e, isExp := k.(kernel.Exponential)
		if !isExp {
			return nil, false
		}
		params[i] = expKernelJSON{Rate: e.Rate, Scale: e.Scale}
	}
	return params, len(kernels) > 0
}

// restoreExpKernels is expKernelParams' inverse.
func restoreExpKernels(params []expKernelJSON) ([]kernel.Kernel, error) {
	out := make([]kernel.Kernel, len(params))
	for i, p := range params {
		if !(p.Rate > 0) || !(p.Scale >= 0) {
			return nil, fmt.Errorf("core: kernel %d: invalid exponential parameters rate=%g scale=%g", i, p.Rate, p.Scale)
		}
		out[i] = kernel.Exponential{Rate: p.Rate, Scale: p.Scale}
	}
	return out, nil
}

// tabulateKernels serializes triggering kernels to (step, values) tables —
// kernel.Discrete's exact representation, so discrete kernels round-trip
// bit-identically; other kernel types are tabulated onto their support.
// Shared by the model codec and the checkpoint state codec.
func tabulateKernels(kernels []kernel.Kernel) (steps []float64, vals [][]float64, err error) {
	steps = make([]float64, len(kernels))
	vals = make([][]float64, len(kernels))
	for i, k := range kernels {
		d, ok := k.(*kernel.Discrete)
		if !ok {
			d, err = kernel.Sample(k, k.Support()/24, 25)
			if err != nil {
				return nil, nil, fmt.Errorf("core: serializing kernel %d: %w", i, err)
			}
		}
		steps[i] = d.Step
		vals[i] = d.Values
	}
	return steps, vals, nil
}

// restoreKernels is tabulateKernels' inverse.
func restoreKernels(steps []float64, vals [][]float64) ([]kernel.Kernel, error) {
	if len(steps) != len(vals) {
		return nil, fmt.Errorf("core: kernel table has %d steps but %d value rows", len(steps), len(vals))
	}
	out := make([]kernel.Kernel, len(steps))
	for i := range steps {
		d, err := kernel.NewDiscrete(steps[i], vals[i])
		if err != nil {
			return nil, fmt.Errorf("core: kernel %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// parentInts flattens a branching forest to its parent vector as plain ints
// (nil forest → nil).
func parentInts(f *branching.Forest) []int {
	if f == nil {
		return nil
	}
	parents := f.Parents()
	out := make([]int, len(parents))
	for i, p := range parents {
		out[i] = int(p)
	}
	return out
}

// forestFromInts rebuilds a branching forest from a persisted parent vector.
func forestFromInts(parents []int) (*branching.Forest, error) {
	ids := make([]timeline.ActivityID, len(parents))
	for i, p := range parents {
		ids[i] = timeline.ActivityID(p)
	}
	f, err := branching.FromParents(ids)
	if err != nil {
		return nil, fmt.Errorf("core: persisted forest invalid: %w", err)
	}
	return f, nil
}

// Save serializes the fitted model (parameters, kernels, inferred forest,
// configuration) as JSON. The training sequence itself is not embedded;
// pass it again to Load.
func (m *Model) Save(w io.Writer) error {
	out := modelJSON{
		Version: modelFormatVersion,
		Variant: m.Variant, M: m.M, Horizon: m.Horizon,
		Mu: m.Mu, Sources: m.params.sourceLists(), Rows: m.params.wire(),
		Iterations: m.Iterations, Config: m.cfg,
	}
	out.Parents = parentInts(m.Forest)
	var err error
	out.KernelStep, out.KernelVals, err = tabulateKernels(m.Kernels)
	if err != nil {
		return err
	}
	if params, ok := expKernelParams(m.Kernels); ok {
		out.KernelExp = params
	}
	return json.NewEncoder(w).Encode(out)
}

// LoadModel deserializes a model saved by Save and rebinds it to its
// training sequence (the same one passed to Fit; Load validates the shape).
func LoadModel(r io.Reader, train *timeline.Sequence) (*Model, error) {
	var in modelJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if in.Version > modelFormatVersion {
		return nil, &checkpoint.VersionError{Got: in.Version, Supported: modelFormatVersion}
	}
	if train == nil || train.M != in.M {
		return nil, errors.New("core: LoadModel needs the original training sequence")
	}
	if len(in.Parents) != train.Len() {
		return nil, fmt.Errorf("core: persisted forest covers %d activities, sequence has %d", len(in.Parents), train.Len())
	}
	if err := in.Variant.validate(); err != nil {
		return nil, err
	}
	link, err := in.Variant.Link()
	if err != nil {
		return nil, err
	}
	if len(in.Mu) != in.M {
		return nil, fmt.Errorf("core: mu has %d entries, model has %d dimensions", len(in.Mu), in.M)
	}
	m := &Model{
		M: in.M, Variant: in.Variant, Horizon: in.Horizon,
		Mu:      in.Mu,
		Kernels: make([]kernel.Kernel, in.M),
		cfg:     in.Config, link: link, seq: train,
		Iterations: in.Iterations,
	}
	if in.Version >= 2 {
		m.params, err = paramsFromWire(m.layout(), in.M, in.Sources, in.Rows)
	} else {
		m.params, err = paramsFromDense(m.layout(), in.M, in.Sources, in.Alpha, in.GammaI, in.GammaN, in.Beta)
	}
	if err != nil {
		return nil, err
	}
	if in.KernelExp != nil {
		if len(in.KernelExp) != in.M {
			return nil, fmt.Errorf("core: kernel_exp has %d entries, model has %d dimensions", len(in.KernelExp), in.M)
		}
		m.Kernels, err = restoreExpKernels(in.KernelExp)
	} else {
		m.Kernels, err = restoreKernels(in.KernelStep, in.KernelVals)
	}
	if err != nil {
		return nil, err
	}
	if len(m.Kernels) != in.M {
		return nil, fmt.Errorf("core: %d kernels, model has %d dimensions", len(m.Kernels), in.M)
	}
	m.Forest, err = forestFromInts(in.Parents)
	if err != nil {
		return nil, err
	}
	m.reads = m.params.readSets()
	if m.Variant.ConformityAware {
		work := train.StripParents()
		m.Conf, err = conformity.NewOn(work, m.Forest, m.cfg.Conformity, m.reads)
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}
