package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// variantGoldenSeeds are the smallDataset corpora the per-variant golden fits.
var variantGoldenSeeds = []int64{31, 42, 7}

// TestVariantFingerprints is a regression pin on every variant's fit: a
// quickCfg fit of each of the eight variants on each corpus of
// variantGoldenSeeds must reproduce the Model.Fingerprint recorded in
// testdata/variant_fingerprints.golden.json, keyed "variant/seed". The E-step
// and model goldens pin CHASSIS-L alone; this one pins the HP baselines and
// the single-flavor conformity variants too. Fits are deterministic at every
// worker count, so the file changes only when a fit's floats do, in which
// case regenerate with:
//
//	go test ./internal/core/ -run TestVariantFingerprints -update
func TestVariantFingerprints(t *testing.T) {
	got := map[string]string{}
	for _, seed := range variantGoldenSeeds {
		d := smallDataset(t, seed)
		for _, v := range objectiveVariants {
			m, err := Fit(d.Seq, quickCfg(v))
			if err != nil {
				t.Fatalf("%s on smallDataset(%d): %v", v.Name(), seed, err)
			}
			got[fmt.Sprintf("%s/%d", v.Name(), seed)] = m.Fingerprint()
		}
	}

	path := filepath.Join("testdata", "variant_fingerprints.golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d fits)", path, len(got))
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden holds %d fits, test runs %d — regenerate with -update if intended", len(want), len(got))
	}
	for key, fp := range got {
		if want[key] != fp {
			t.Errorf("%s: fingerprint %s, golden %s", key, fp, want[key])
		}
	}
}
