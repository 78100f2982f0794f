package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"

	"chassis/internal/conformity"
	"chassis/internal/hawkes"
)

// setParams gives a hand-built model its parameter rows, and with them its
// read set: row i holds sources[i] (nil: no sources) and every other user j
// for which pair(i, j) returns a nonzero value the variant uses. It is the
// one way tests build rows by hand; the values land through the same
// conversion a version-1 model file takes.
func setParams(m *Model, sources [][]int, pair func(i, j int) (alpha, gammaI, gammaN, beta float64)) {
	var alpha, gammaI, gammaN, beta [][]float64
	for _, mat := range []*[][]float64{&alpha, &gammaI, &gammaN, &beta} {
		*mat = make([][]float64, m.M)
		for i := range *mat {
			(*mat)[i] = make([]float64, m.M)
		}
	}
	for i := 0; i < m.M; i++ {
		for j := 0; j < m.M; j++ {
			alpha[i][j], gammaI[i][j], gammaN[i][j], beta[i][j] = pair(i, j)
		}
	}
	if sources == nil {
		sources = make([][]int, m.M)
	}
	p, err := paramsFromDense(m.layout(), m.M, sources, alpha, gammaI, gammaN, beta)
	if err != nil {
		panic(err)
	}
	m.params, m.reads = p, p.readSets()
}

// mirror is a test-local dense copy of a model's parameters: the four M×M
// matrices a model held before it stored rows.
type mirror struct {
	alpha, gammaI, gammaN, beta [][]float64
}

func mirrorOf(m *Model) mirror {
	var d mirror
	for _, mat := range []*[][]float64{&d.alpha, &d.gammaI, &d.gammaN, &d.beta} {
		*mat = make([][]float64, m.M)
		for i := range *mat {
			(*mat)[i] = make([]float64, m.M)
		}
	}
	l := m.layout()
	for i := 0; i < m.M; i++ {
		m.params.each(i, func(j int, v []float64) {
			switch {
			case !l.conformityAware:
				d.alpha[i][j] = v[0]
			default:
				if l.useInformational {
					d.gammaI[i][j], d.beta[i][j] = v[0], v[1]
				}
				if l.useNormative {
					d.gammaN[i][j] = v[len(v)-1]
				}
			}
		})
	}
	return d
}

// excites reports whether the mirror's (i, j) excitation parameters are
// nonzero under the variant's channels.
func (d mirror) excites(m *Model, i, j int) bool {
	if !m.Variant.ConformityAware {
		return d.alpha[i][j] != 0
	}
	return m.Variant.UseInformational && d.gammaI[i][j] != 0 ||
		m.Variant.UseNormative && d.gammaN[i][j] != 0
}

// excitation is Eq. 4.1 read from the dense matrices, as excitation.Alpha
// computed it before rows.
func (d mirror) excitation(m *Model, conf *conformity.Computer, i, j int, t float64) float64 {
	if !m.Variant.ConformityAware {
		return d.alpha[i][j]
	}
	var a float64
	if m.Variant.UseInformational {
		if g := d.gammaI[i][j]; g != 0 {
			a += g * conf.Informational(i, j, t, d.beta[i][j])
		}
	}
	if m.Variant.UseNormative {
		if g := d.gammaN[i][j]; g != 0 {
			a += g * conf.Normative(i, j, t)
		}
	}
	if _, linear := m.link.(hawkes.LinearLink); linear && a < 0 {
		return 0
	}
	return a
}

// TestParamRowsMatchDenseMirror: for every variant, fitted in memory and
// sharded with inferred trees and in memory with observed trees, and for a
// saved and loaded CHASSIS-L model and its incremental refit,
// excitation.Alpha reads every pair (i, j) in [0, M)² at every event time
// as the dense mirror of the rows does, the rows' tails carry every excited
// pair outside the sources (CHASSIS-L's stale entries among them), and
// Save→LoadModel keeps the fingerprint and every Alpha.
func TestParamRowsMatchDenseMirror(t *testing.T) {
	forceSmallChunks(t, 48)
	d := wideDataset(t)
	corpus := writeCorpusFile(t, d.Seq, 57)
	tailEntries := 0
	check := func(name string, m *Model) {
		t.Helper()
		mir := mirrorOf(m)
		exc := excitation{m: m, conf: m.Conf}
		for i := 0; i < m.M; i++ {
			src := m.params.sources(i)
			for j := 0; j < m.M; j++ {
				_, isSrc := slices.BinarySearch(src, j)
				_, inTail := slices.BinarySearch(m.params.tail(i), j)
				if mir.excites(m, i, j) && !isSrc && !inTail {
					t.Fatalf("%s: excited pair (%d, %d) is in neither the sources nor the tail", name, i, j)
				}
				if inTail {
					tailEntries++
				}
				for _, a := range d.Seq.Activities {
					if g, w := exc.Alpha(i, j, a.Time), mir.excitation(m, m.Conf, i, j, a.Time); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: Alpha(%d, %d, %g) = %v, dense mirror %v", name, i, j, a.Time, g, w)
					}
				}
			}
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := LoadModel(&buf, d.Seq)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g, w := back.Fingerprint(), m.Fingerprint(); g != w {
			t.Fatalf("%s: fingerprint %s after Save→LoadModel, %s before", name, g, w)
		}
		got := excitation{m: back, conf: m.Conf}
		for i := 0; i < m.M; i++ {
			for j := 0; j < m.M; j++ {
				for _, a := range d.Seq.Activities {
					if g, w := got.Alpha(i, j, a.Time), exc.Alpha(i, j, a.Time); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("%s: Alpha(%d, %d, %g) = %v after Save→LoadModel, %v before", name, i, j, a.Time, g, w)
					}
				}
			}
		}
	}
	var chassisL *Model
	for _, v := range []Variant{VariantL, VariantLI, VariantLN, VariantE, VariantEI, VariantEN, VariantLHP, VariantEHP} {
		cfg := quickCfg(v)
		mem, err := Fit(d.Seq, cfg)
		if err != nil {
			t.Fatal(err)
		}
		check(v.Name()+" in memory", mem)
		c := cfg
		c.ShardEvents = 130
		c.Workers = 2
		sh, err := FitSharded(context.Background(), openCorpus(t, corpus), c)
		if err != nil {
			t.Fatal(err)
		}
		check(v.Name()+" sharded", sh)
		if g, w := sh.Fingerprint(), mem.Fingerprint(); g != w {
			t.Fatalf("%s: sharded fingerprint %s, in memory %s", v.Name(), g, w)
		}
		c = cfg
		c.UseObservedTrees = true
		obs, err := Fit(d.Seq, c)
		if err != nil {
			t.Fatal(err)
		}
		check(v.Name()+" observed trees", obs)
		if v == VariantL {
			chassisL = mem
		}
	}
	var buf bytes.Buffer
	if err := chassisL.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf, d.Seq)
	if err != nil {
		t.Fatal(err)
	}
	check("loaded CHASSIS-L", loaded)
	refit, err := loaded.RefitIncremental(context.Background(), d.Seq, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	check("refitted CHASSIS-L", refit)
	t.Logf("%d tail entries", tailEntries)
	if tailEntries == 0 {
		t.Fatal("vacuous check: no row has a tail")
	}
}

// TestLoadModelRejectsMalformedRows: a version-2 row that breaks the row
// invariants fails LoadModel with an error, never a panic.
func TestLoadModelRejectsMalformedRows(t *testing.T) {
	d := smallDataset(t, 61)
	var buf bytes.Buffer
	if err := goldenModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var base map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	var rows []paramRowJSON
	if err := json.Unmarshal(base["rows"], &rows); err != nil {
		t.Fatal(err)
	}
	var sources [][]int
	if err := json.Unmarshal(base["sources"], &sources); err != nil {
		t.Fatal(err)
	}
	// Row r has at least two columns and a source.
	r := slices.IndexFunc(rows, func(row paramRowJSON) bool { return len(row.Cols) >= 2 })
	if r < 0 || len(sources[r]) == 0 {
		t.Fatal("fixture has no row with two columns and a source")
	}
	m := len(rows)
	cases := map[string]func(rows []paramRowJSON, sources [][]int) ([]paramRowJSON, [][]int){
		"unsorted columns": func(rows []paramRowJSON, s [][]int) ([]paramRowJSON, [][]int) {
			c := rows[r].Cols
			c[0], c[1] = c[1], c[0]
			return rows, s
		},
		"duplicate column": func(rows []paramRowJSON, s [][]int) ([]paramRowJSON, [][]int) {
			rows[r].Cols[1] = rows[r].Cols[0]
			return rows, s
		},
		"column out of range": func(rows []paramRowJSON, s [][]int) ([]paramRowJSON, [][]int) {
			c := rows[r].Cols
			c[len(c)-1] = m
			return rows, s
		},
		"negative column": func(rows []paramRowJSON, s [][]int) ([]paramRowJSON, [][]int) {
			rows[r].Cols[0] = -1
			return rows, s
		},
		"too few values": func(rows []paramRowJSON, s [][]int) ([]paramRowJSON, [][]int) {
			rows[r].Vals = rows[r].Vals[:len(rows[r].Vals)-1]
			return rows, s
		},
		"too many values": func(rows []paramRowJSON, s [][]int) ([]paramRowJSON, [][]int) {
			rows[r].Vals = append(rows[r].Vals, 0.5)
			return rows, s
		},
		"source missing from its row": func(rows []paramRowJSON, s [][]int) ([]paramRowJSON, [][]int) {
			src := s[r][0]
			x := slices.Index(rows[r].Cols, src)
			per := len(rows[r].Vals) / len(rows[r].Cols)
			rows[r].Cols = slices.Delete(rows[r].Cols, x, x+1)
			rows[r].Vals = slices.Delete(rows[r].Vals, x*per, (x+1)*per)
			return rows, s
		},
		"missing row": func(rows []paramRowJSON, s [][]int) ([]paramRowJSON, [][]int) {
			return rows[:len(rows)-1], s
		},
		"source out of range": func(rows []paramRowJSON, s [][]int) ([]paramRowJSON, [][]int) {
			s[r] = append(s[r], m+3)
			return rows, s
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			var rs []paramRowJSON
			var ss [][]int
			if err := json.Unmarshal(base["rows"], &rs); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(base["sources"], &ss); err != nil {
				t.Fatal(err)
			}
			rs, ss = mutate(rs, ss)
			doc := make(map[string]json.RawMessage, len(base))
			for k, v := range base {
				doc[k] = v
			}
			var err error
			if doc["rows"], err = json.Marshal(rs); err != nil {
				t.Fatal(err)
			}
			if doc["sources"], err = json.Marshal(ss); err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := LoadModel(bytes.NewReader(blob), d.Seq); err == nil {
				t.Fatalf("a file with a %s loaded", name)
			} else if !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("unexpected error %v", err)
			}
		})
	}
}
