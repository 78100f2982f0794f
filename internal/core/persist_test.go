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
	got, want := mirrorOf(back), mirrorOf(m)
	for i := 0; i < m.M; i++ {
		if back.Mu[i] != m.Mu[i] {
			t.Fatalf("Mu[%d] changed: %g vs %g", i, back.Mu[i], m.Mu[i])
		}
		for j := 0; j < m.M; j++ {
			if got.gammaI[i][j] != want.gammaI[i][j] || got.gammaN[i][j] != want.gammaN[i][j] {
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
	got, want := mirrorOf(back), mirrorOf(m)
	for i := 0; i < m.M; i++ {
		for j := 0; j < m.M; j++ {
			if got.alpha[i][j] != want.alpha[i][j] {
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

// goldenModel reproduces the fit the committed model fixtures were written
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

// TestModelGoldenV2 pins the version-2 model wire format with a committed
// fixture: a fresh goldenModel fit saves it byte for byte (Go's
// shortest-float JSON encoding makes every float64 round-trip bit-exact).
// -update rewrites it.
func TestModelGoldenV2(t *testing.T) {
	path := filepath.Join("testdata", "model_v2.golden.json")
	var buf bytes.Buffer
	if err := goldenModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), blob) {
		t.Error("a fresh fit no longer saves the v2 fixture byte-for-byte")
	}
}

// TestModelGoldenV1 pins the version-1 reader with a committed fixture
// written before the parameters moved into rows (dense M×M matrices, a
// config with the since-removed KernelBins): it still loads, and its
// load→save output is the version-2 fixture byte for byte, so the format
// change moved no value.
func TestModelGoldenV1(t *testing.T) {
	d := smallDataset(t, 61)
	blob, err := os.ReadFile(filepath.Join("testdata", "model_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(bytes.NewReader(blob), d.Seq)
	if err != nil {
		t.Fatalf("v1 fixture no longer loads: %v", err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "model_v2.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v2) {
		t.Error("load→save of the v1 fixture no longer writes the v2 fixture byte-for-byte")
	}
	// Files carrying config keys since removed still load: the fixture
	// holds KernelBins, and MaxActivePairs (the pair budget) is added.
	if !bytes.Contains(blob, []byte(`"KernelBins":24,`)) {
		t.Fatal("the fixture lost the removed KernelBins key")
	}
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
	future := strings.Replace(buf.String(), `{"version":2,`, `{"version":99,`, 1)
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
// implicit version 0, which reads the version-1 layout, and stay loadable.
func TestLoadModelVersionZero(t *testing.T) {
	d := smallDataset(t, 61)
	blob, err := os.ReadFile(filepath.Join("testdata", "model_v1.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := bytes.Replace(blob, []byte(`{"version":1,`), []byte(`{`), 1)
	if bytes.Equal(legacy, blob) {
		t.Fatal("could not strip the version from the fixture")
	}
	m, err := LoadModel(bytes.NewReader(legacy), d.Seq)
	if err != nil {
		t.Fatalf("pre-versioning file must stay loadable: %v", err)
	}
	if g, w := m.Fingerprint(), goldenModel(t).Fingerprint(); g != w {
		t.Errorf("pre-versioning file loads as %s, the fit it was written from is %s", g, w)
	}
}

// FuzzLoadModel feeds model files, mutated from the committed version-1 and
// version-2 fixtures, to LoadModel against the fixtures' fixed training
// sequence. chassis-serve's /admin/reload loads files from a path, so the
// decoder must answer malformed input with an error, never a panic; a file
// it accepts must save and load again to the same fingerprint.
func FuzzLoadModel(f *testing.F) {
	seq := smallDataset(f, 61).Seq
	for _, name := range []string{"model_v1.golden.json", "model_v2.golden.json"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data), seq)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return // a kernel the tabulation refuses
		}
		back, err := LoadModel(&buf, seq)
		if err != nil {
			t.Fatalf("a saved model does not load: %v", err)
		}
		if g, w := back.Fingerprint(), m.Fingerprint(); g != w {
			t.Fatalf("fingerprint %s after Save→LoadModel, %s before", g, w)
		}
	})
}
