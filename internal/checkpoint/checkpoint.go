// Package checkpoint persists resumable snapshots of long-running fits.
//
// A checkpoint is a single JSON file holding a versioned envelope: the
// format version, a kind tag naming the producer, a fingerprint of the
// training data, and an opaque payload the producer (core's EM driver)
// serializes its full state into. Writes are atomic — temp file in the
// destination directory, fsync, rename over the previous checkpoint, then a
// best-effort directory fsync — so a crash at any point, including mid-write,
// leaves either the previous checkpoint or the new one fully intact, never a
// torn file. internal/faultinject's CheckpointIO hook can fail any stage of
// the write to prove exactly that.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"chassis/internal/faultinject"
)

// Version is the current checkpoint format version. Load rejects files from
// a future version with a *VersionError instead of misreading them; a
// producer decides whether it can still read an older one.
const Version = 2

// Envelope is the on-disk frame around a producer's payload.
type Envelope struct {
	// Version is the format version the file was written with.
	Version int `json:"version"`
	// Kind names the producer ("chassis-em" for core's EM fits); Load
	// rejects mismatches so a model file is never misread as a checkpoint.
	Kind string `json:"kind"`
	// DataHash fingerprints the training data the state belongs to
	// (see core's sequence fingerprint); resuming against different data is
	// rejected before any EM work starts.
	DataHash string `json:"data_hash"`
	// Iteration is the number of completed EM iterations the payload
	// captures — resume continues from Iteration+1.
	Iteration int `json:"iteration"`
	// BestLL is the best training log-likelihood seen so far, when the
	// producer tracked one (nil otherwise).
	BestLL *float64 `json:"best_ll,omitempty"`
	// Payload is the producer's serialized state, opaque to this package.
	Payload json.RawMessage `json:"payload"`
}

// VersionError reports a persisted file written by a newer format version
// than this build understands. Shared by checkpoint.Load and core's model
// loader so every forward-compat failure is the same typed error.
type VersionError struct {
	// Got is the version recorded in the file; Supported the newest this
	// build reads.
	Got, Supported int
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: file version %d is newer than supported version %d (upgrade this binary to read it)", e.Got, e.Supported)
}

// MismatchError reports a checkpoint that is structurally valid but belongs
// to a different run: wrong kind, different training data, or an
// incompatible configuration.
type MismatchError struct {
	// Field names what disagreed: "kind", "data", "config", or "version"
	// (an older format the producer no longer resumes).
	Field string
	// Detail is a human-readable account of the disagreement.
	Detail string
}

// Error implements error.
func (e *MismatchError) Error() string {
	return fmt.Sprintf("checkpoint: %s mismatch: %s", e.Field, e.Detail)
}

// ioStage consults the fault-injection hook for one stage of an atomic
// write.
func ioStage(stage, path string) error {
	if h := faultinject.CheckpointIO; h != nil {
		if err := h(stage, path); err != nil {
			return fmt.Errorf("checkpoint: %s %s: %w", stage, filepath.Base(path), err)
		}
	}
	return nil
}

// WriteAtomic persists data to path atomically: the bytes land in a
// temporary file in path's directory, are fsynced, and are renamed over any
// previous file in one step. A failure at any stage (including an injected
// one) discards the temporary file and leaves the previous contents of path
// untouched and loadable.
func WriteAtomic(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	if err := ioStage("create", path); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err = ioStage("write", path); err != nil {
		return err
	}
	if _, err = tmp.Write(data); err != nil {
		return fmt.Errorf("checkpoint: writing temp file: %w", err)
	}
	if err = ioStage("sync", path); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing temp file: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing temp file: %w", err)
	}
	if err = ioStage("rename", path); err != nil {
		return err
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: renaming temp file: %w", err)
	}
	// Make the rename itself durable. Directory fsync is best-effort: some
	// filesystems refuse it, and the rename is already atomic on-disk.
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// Save marshals the envelope (stamping the current Version) and writes it
// atomically to path.
func Save(path string, e *Envelope) error {
	e.Version = Version
	blob, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding: %w", err)
	}
	return WriteAtomic(path, append(blob, '\n'))
}

// Load reads and validates an envelope: a future Version yields a
// *VersionError, a wrong kind a *MismatchError. wantKind "" accepts any
// kind. A missing file is reported via os.ErrNotExist (errors.Is-able), so
// callers can distinguish "no checkpoint yet" from a corrupt one.
func Load(path, wantKind string) (*Envelope, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Envelope
	if err := json.Unmarshal(blob, &e); err != nil {
		return nil, fmt.Errorf("checkpoint: decoding %s: %w", filepath.Base(path), err)
	}
	if e.Version > Version {
		return nil, &VersionError{Got: e.Version, Supported: Version}
	}
	if wantKind != "" && e.Kind != wantKind {
		return nil, &MismatchError{Field: "kind", Detail: fmt.Sprintf("file holds %q, want %q", e.Kind, wantKind)}
	}
	return &e, nil
}

// Exists reports whether a checkpoint file is present at path (without
// validating it).
func Exists(path string) bool {
	_, err := os.Stat(path)
	return !errors.Is(err, os.ErrNotExist)
}
