package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"chassis/internal/branching"
	"chassis/internal/checkpoint"
	"chassis/internal/kernel"
	"chassis/internal/timeline"
)

// CheckpointFileName is the file FitContext writes inside
// Config.CheckpointDir. One directory holds one fit's checkpoint; the
// atomic-rename write keeps the previous snapshot intact until the new one
// is durable.
const CheckpointFileName = "chassis-em.ckpt"

// checkpointKind tags core's EM checkpoints inside the envelope so a model
// file (or another producer's checkpoint) is never misread as one.
const checkpointKind = "chassis-em"

// CheckpointPath returns the checkpoint file a fit with the given
// CheckpointDir reads and writes.
func CheckpointPath(dir string) string {
	return filepath.Join(dir, CheckpointFileName)
}

// fitState is the checkpoint payload: every piece of EM loop state whose
// restoration makes the resumed run bit-identical to an uninterrupted one.
// The RNG needs no raw state — every stream is derived from (Config.Seed,
// EStepCalls), so the counter alone pins all future draws.
type fitState struct {
	Mu []float64 `json:"mu"`
	// Sources and Rows are the parameter rows in the model file's form.
	Sources    [][]int        `json:"sources"`
	Rows       []paramRowJSON `json:"rows"`
	KernelStep []float64      `json:"kernel_step"`
	KernelVals [][]float64    `json:"kernel_values"`
	// KernelCum carries each discrete kernel's cumulative-integral table
	// verbatim. Normalize rescales that table in place, so recomputing it
	// from the (scaled) values on load would differ in the last ulp — and
	// break the resumed run's bit-identity with an uninterrupted one.
	KernelCum [][]float64 `json:"kernel_cum,omitempty"`
	// Parents is the current forest (the E-step's latest assignment).
	Parents []int     `json:"parents"`
	MuLo    []float64 `json:"mu_lo,omitempty"`
	MuHi    []float64 `json:"mu_hi,omitempty"`
	// EStepCalls pins the E-step RNG streams (Split(211+calls)).
	EStepCalls int       `json:"estep_calls"`
	History    []float64 `json:"history,omitempty"`
	// StepScale carries guard backoff across a resume.
	StepScale float64 `json:"step_scale"`
	// LastHealthyLL/HasHealthyLL carry the guard's LL-regression baseline.
	LastHealthyLL float64 `json:"last_healthy_ll"`
	HasHealthyLL  bool    `json:"has_healthy_ll"`
	// Config is the resolved configuration the run was started with
	// (Workers zeroed — resuming at a different parallelism is explicitly
	// supported); a resume under a different configuration is rejected.
	Config json.RawMessage `json:"config"`
}

// sequenceFingerprint hashes everything the fit reads from the training
// data (FNV-64a over dimensions, horizon, and each activity's fields), so a
// checkpoint is never resumed against different data.
func sequenceFingerprint(seq *timeline.Sequence) string {
	h := fnv.New64a()
	buf := make([]byte, 8)
	w64 := func(v uint64) {
		for b := 0; b < 8; b++ {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf)
	}
	w64(uint64(seq.M))
	w64(math.Float64bits(seq.Horizon))
	w64(uint64(len(seq.Activities)))
	for i := range seq.Activities {
		a := &seq.Activities[i]
		w64(uint64(a.User))
		w64(math.Float64bits(a.Time))
		w64(uint64(a.Kind))
		w64(math.Float64bits(a.Polarity))
		w64(uint64(int64(a.Parent)))
		w64(uint64(int64(a.Topic)))
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// configFingerprint serializes the resolved config for the compatibility
// check, neutralizing the fields a resume may legitimately change: Workers
// (bit-identity at any parallelism is the whole point) and the
// checkpointing knobs themselves (json:"-").
func configFingerprint(cfg Config) (json.RawMessage, error) {
	cfg.Workers = 0
	blob, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: fingerprinting config: %w", err)
	}
	return blob, nil
}

// checkpointer owns a fit's checkpoint file: it captures the loop state
// after completed iterations and decides when the capture reaches disk.
// The last capture is kept serialized in memory so the loop's exit paths
// (cancellation, guard failure, injected crash, completion) can flush the
// most recent completed iteration even when it fell between strides.
type checkpointer struct {
	path     string
	every    int
	dataHash string
	cfgBlob  json.RawMessage

	pending   []byte // serialized envelope of the last capture
	lastIter  int    // iteration the pending capture holds
	flushedAt int    // iteration of the last on-disk write (-1: none yet)
}

// newCheckpointer builds the checkpoint writer for a fit over data
// identified by dataHash: the in-memory source passes sequenceFingerprint,
// the colstore source the footer fingerprint. The two prefixes differ
// ("fnv64a:" vs "colstore:"), so a checkpoint is never resumed by the other
// driver — the fingerprints cover different byte representations of the
// data, and cross-resuming would bypass that guard.
func newCheckpointer(cfg Config, dataHash string) (*checkpointer, error) {
	cfgBlob, err := configFingerprint(cfg)
	if err != nil {
		return nil, err
	}
	return &checkpointer{
		path:      CheckpointPath(cfg.CheckpointDir),
		every:     cfg.CheckpointEvery,
		dataHash:  dataHash,
		cfgBlob:   cfgBlob,
		flushedAt: -1,
	}, nil
}

// capture serializes the loop state after iteration iter completed. It only
// stages the bytes; write/flush decide when they hit disk.
func (c *checkpointer) capture(m *Model, forest *branching.Forest, iter int, lastLL float64, hasLL bool) error {
	st := fitState{
		Mu:      append([]float64(nil), m.Mu...),
		Sources: m.params.sourceLists(), Rows: m.params.wire(),
		Parents: parentInts(forest),
		MuLo:    m.muLo, MuHi: m.muHi,
		EStepCalls:    m.estepCalls,
		History:       m.History,
		StepScale:     m.stepScale,
		LastHealthyLL: lastLL, HasHealthyLL: hasLL,
		Config: c.cfgBlob,
	}
	var err error
	st.KernelStep, st.KernelVals, err = tabulateKernels(m.Kernels)
	if err != nil {
		return err
	}
	st.KernelCum = make([][]float64, len(m.Kernels))
	for i, k := range m.Kernels {
		if d, ok := k.(*kernel.Discrete); ok {
			st.KernelCum[i] = d.CumTable()
		}
		// Non-discrete kernels were freshly tabulated by tabulateKernels;
		// their table is recomputable, so nil falls back to NewDiscrete.
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint state: %w", err)
	}
	env := checkpoint.Envelope{
		Version: checkpoint.Version, Kind: checkpointKind,
		DataHash: c.dataHash, Iteration: iter,
		Payload: payload,
	}
	if hasLL {
		ll := lastLL
		env.BestLL = &ll
	}
	blob, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	c.pending = append(blob, '\n')
	c.lastIter = iter
	return nil
}

// maybeWrite flushes the pending capture when the stride is due.
func (c *checkpointer) maybeWrite() error {
	if c.pending == nil || c.lastIter%c.every != 0 {
		return nil
	}
	return c.flush()
}

// flush writes the pending capture (if any) to disk atomically.
func (c *checkpointer) flush() error {
	if c.pending == nil || c.flushedAt == c.lastIter {
		return nil
	}
	if err := checkpoint.WriteAtomic(c.path, c.pending); err != nil {
		return err
	}
	c.flushedAt = c.lastIter
	return nil
}

// loadFitState reads and validates the checkpoint for a resuming fit,
// restores the model's parameters/kernels/counters from it, and returns the
// restored forest plus the number of completed iterations. A missing file
// reports os.ErrNotExist (the caller treats it as a fresh start).
func (m *Model) loadFitState(c *checkpointer) (forest *branching.Forest, iter int, lastLL float64, hasLL bool, err error) {
	env, err := checkpoint.Load(c.path, checkpointKind)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if env.Version < checkpoint.Version {
		// Version 1 held dense M×M parameter matrices and a config with the
		// since-removed KernelBins; a fit restarts rather than convert them.
		return nil, 0, 0, false, &checkpoint.MismatchError{Field: "version",
			Detail: fmt.Sprintf("checkpoint format version %d predates version %d", env.Version, checkpoint.Version)}
	}
	if env.DataHash != c.dataHash {
		return nil, 0, 0, false, &checkpoint.MismatchError{Field: "data",
			Detail: fmt.Sprintf("checkpoint was written for data %s, resuming with %s", env.DataHash, c.dataHash)}
	}
	var st fitState
	if err := json.Unmarshal(env.Payload, &st); err != nil {
		return nil, 0, 0, false, fmt.Errorf("core: decoding checkpoint state: %w", err)
	}
	if string(st.Config) != string(c.cfgBlob) {
		return nil, 0, 0, false, &checkpoint.MismatchError{Field: "config",
			Detail: "checkpoint was written under a different configuration"}
	}
	if len(st.Mu) != m.M {
		return nil, 0, 0, false, &checkpoint.MismatchError{Field: "data",
			Detail: fmt.Sprintf("checkpoint holds %d dimensions, sequence has %d", len(st.Mu), m.M)}
	}
	m.Mu = st.Mu
	if m.params, err = paramsFromWire(m.layout(), m.M, st.Sources, st.Rows); err != nil {
		return nil, 0, 0, false, err
	}
	m.Kernels, err = restoreKernelsExact(st.KernelStep, st.KernelVals, st.KernelCum)
	if err != nil {
		return nil, 0, 0, false, err
	}
	if m.cfg.ExpKernel {
		// ExpKernel fits never update their kernels, so the checkpoint's
		// tabulated form is redundant; rebuild the parametric bank from the
		// config (the fingerprint check above guarantees it matches the run
		// that wrote the checkpoint) so a resumed fit still produces a model
		// eligible for the exponential fast path.
		ek, kerr := kernel.NewExponential(m.cfg.InitKernelRate)
		if kerr != nil {
			return nil, 0, 0, false, kerr
		}
		for i := range m.Kernels {
			m.Kernels[i] = ek
		}
	}
	m.muLo, m.muHi = st.MuLo, st.MuHi
	m.estepCalls = st.EStepCalls
	m.History = st.History
	m.stepScale = st.StepScale
	m.Iterations = env.Iteration
	forest, err = forestFromInts(st.Parents)
	if err != nil {
		return nil, 0, 0, false, err
	}
	return forest, env.Iteration, st.LastHealthyLL, st.HasHealthyLL, nil
}

// restoreKernelsExact is restoreKernels with bit-exact cumulative tables:
// rows with a persisted table adopt it verbatim (see fitState.KernelCum);
// rows without one fall back to recomputation.
func restoreKernelsExact(steps []float64, vals, cums [][]float64) ([]kernel.Kernel, error) {
	if len(steps) != len(vals) {
		return nil, fmt.Errorf("core: kernel table has %d steps but %d value rows", len(steps), len(vals))
	}
	out := make([]kernel.Kernel, len(steps))
	for i := range steps {
		var d *kernel.Discrete
		var err error
		if i < len(cums) && cums[i] != nil {
			d, err = kernel.RestoreDiscrete(steps[i], vals[i], cums[i])
		} else {
			d, err = kernel.NewDiscrete(steps[i], vals[i])
		}
		if err != nil {
			return nil, fmt.Errorf("core: kernel %d: %w", i, err)
		}
		out[i] = d
	}
	return out, nil
}

// isNoCheckpoint reports the "no checkpoint on disk yet" load outcome.
func isNoCheckpoint(err error) bool {
	return errors.Is(err, os.ErrNotExist)
}
