package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chassis/internal/checkpoint"
	"chassis/internal/timeline"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	d := smallDataset(t, 61)
	cfg := quickCfg(VariantL)
	cfg.UseObservedTrees = true
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf, d.Seq)
	if err != nil {
		t.Fatal(err)
	}
	// Parameters survive exactly.
	for i := 0; i < m.M; i++ {
		if back.Mu[i] != m.Mu[i] {
			t.Fatalf("Mu[%d] changed: %g vs %g", i, back.Mu[i], m.Mu[i])
		}
		for j := 0; j < m.M; j++ {
			if back.GammaI[i][j] != m.GammaI[i][j] || back.GammaN[i][j] != m.GammaN[i][j] {
				t.Fatalf("gamma changed at (%d,%d)", i, j)
			}
		}
	}
	// Derived quantities reproduce.
	llA, err := m.TrainLogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	llB, err := back.TrainLogLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(llA-llB) > 1e-6*math.Abs(llA) {
		t.Errorf("train LL changed: %g vs %g", llA, llB)
	}
	infA, infB := m.EstimatedInfluence(), back.EstimatedInfluence()
	for i := range infA {
		for j := range infA[i] {
			if math.Abs(infA[i][j]-infB[i][j]) > 1e-9 {
				t.Fatalf("influence changed at (%d,%d): %g vs %g", i, j, infA[i][j], infB[i][j])
			}
		}
	}
}

func TestModelSaveLoadHPVariant(t *testing.T) {
	d := smallDataset(t, 62)
	m, err := Fit(d.Seq, quickCfg(VariantLHP))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf, d.Seq)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.M; i++ {
		for j := 0; j < m.M; j++ {
			if back.Alpha[i][j] != m.Alpha[i][j] {
				t.Fatalf("alpha changed at (%d,%d)", i, j)
			}
		}
	}
}

func TestLoadModelValidation(t *testing.T) {
	d := smallDataset(t, 63)
	m, err := Fit(d.Seq, quickCfg(VariantLHP))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	if _, err := LoadModel(strings.NewReader("not json"), d.Seq); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadModel(strings.NewReader(saved), nil); err == nil {
		t.Error("nil sequence must fail")
	}
	wrong := &timeline.Sequence{M: d.Seq.M, Horizon: 5}
	if _, err := LoadModel(strings.NewReader(saved), wrong); err == nil {
		t.Error("mismatched sequence length must fail")
	}
}

// goldenModel reproduces the fit the committed model_v1 fixture was written
// from (fully seeded, so bit-reproducible).
func goldenModel(t *testing.T) *Model {
	t.Helper()
	d := smallDataset(t, 61)
	cfg := quickCfg(VariantL)
	cfg.UseObservedTrees = true
	m, err := Fit(d.Seq, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestModelGoldenV1 pins the version-1 model wire format with a committed
// fixture: today's reader must keep loading it, and a load→save round trip
// must reproduce it byte-for-byte (Go's shortest-float JSON encoding makes
// every float64 round-trip bit-exact).
func TestModelGoldenV1(t *testing.T) {
	d := smallDataset(t, 61)
	path := filepath.Join("testdata", "model_v1.golden.json")
	if *updateGolden {
		var buf bytes.Buffer
		if err := goldenModel(t).Save(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	m, err := LoadModel(bytes.NewReader(blob), d.Seq)
	if err != nil {
		t.Fatalf("v1 fixture no longer loads: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Error("load→save no longer reproduces the v1 fixture byte-for-byte")
	}
	// Files written while the conformity options had MaxActivePairs (the
	// pair budget, since removed) still load.
	legacy := bytes.Replace(blob, []byte(`"MaxTreePairs":0,`), []byte(`"MaxTreePairs":0,"MaxActivePairs":0,`), 1)
	if bytes.Equal(legacy, blob) {
		t.Fatal("could not insert the removed key into the fixture")
	}
	if _, err := LoadModel(bytes.NewReader(legacy), d.Seq); err != nil {
		t.Errorf("a file with the removed MaxActivePairs key no longer loads: %v", err)
	}
	// The fixture's parameters still drive a likelihood evaluation.
	if ll, err := m.TrainLogLikelihood(); err != nil || math.IsNaN(ll) {
		t.Errorf("fixture model unusable: ll=%v err=%v", ll, err)
	}
}

// TestLoadModelFutureVersion: a file stamped by a newer writer fails with
// the shared typed error instead of being silently misread.
func TestLoadModelFutureVersion(t *testing.T) {
	d := smallDataset(t, 61)
	m := goldenModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	future := strings.Replace(buf.String(), `{"version":1,`, `{"version":99,`, 1)
	if future == buf.String() {
		t.Fatal("could not stamp a future version into the fixture")
	}
	_, err := LoadModel(strings.NewReader(future), d.Seq)
	var ve *checkpoint.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *checkpoint.VersionError", err)
	}
	if ve.Got != 99 || ve.Supported != modelFormatVersion {
		t.Errorf("VersionError = %+v, want Got=99 Supported=%d", ve, modelFormatVersion)
	}
}

// TestLoadModelVersionZero: files written before versioning decode with an
// implicit version 0 and stay loadable.
func TestLoadModelVersionZero(t *testing.T) {
	d := smallDataset(t, 61)
	m := goldenModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	legacy := strings.Replace(buf.String(), `{"version":1,`, `{`, 1)
	if _, err := LoadModel(strings.NewReader(legacy), d.Seq); err != nil {
		t.Fatalf("pre-versioning file must stay loadable: %v", err)
	}
}
