package core

import (
	"testing"
	"testing/quick"

	"chassis/internal/kernel"
	"chassis/internal/rng"
)

// layoutModel builds a bare model with random per-pair parameters over a
// random sparse source support, for pack/unpack round-trip checks.
func layoutModel(seed int64, v Variant) *Model {
	r := rng.New(seed)
	m := 4 + r.Intn(4)
	link, _ := v.Link()
	k, _ := kernel.NewExponential(1)
	mod := &Model{
		M: m, Variant: v, Horizon: 100,
		Mu:      make([]float64, m),
		Kernels: make([]kernel.Kernel, m),
		link:    link,
	}
	for i := range mod.Kernels {
		mod.Kernels[i] = k
	}
	sources := make([][]int, m)
	type pair struct{ alpha, gammaI, gammaN, beta float64 }
	vals := map[[2]int]pair{}
	for i := 0; i < m; i++ {
		mod.Mu[i] = r.Uniform(0.001, 0.1)
		for j := 0; j < m; j++ {
			if i != j && r.Bernoulli(0.5) {
				sources[i] = append(sources[i], j)
				vals[[2]int{i, j}] = pair{gammaI: r.Uniform(0, 2), gammaN: r.Uniform(0, 2), beta: r.Uniform(0.01, 5), alpha: r.Uniform(0, 2)}
			}
		}
	}
	setParams(mod, sources, func(i, j int) (alpha, gammaI, gammaN, beta float64) {
		p := vals[[2]int{i, j}]
		return p.alpha, p.gammaI, p.gammaN, p.beta
	})
	return mod
}

// Property: unpack(pack(m)) is the identity on the active support for every
// variant layout, and bounds always bracket the packed vector's shape.
func TestPackUnpackRoundTripProperty(t *testing.T) {
	variants := []Variant{VariantL, VariantE, VariantLI, VariantLN, VariantEI, VariantEN, VariantLHP, VariantEHP}
	f := func(seed int64, vIdx uint8) bool {
		v := variants[int(vIdx)%len(variants)]
		m := layoutModel(seed, v)
		for i := 0; i < m.M; i++ {
			x := m.pack(i)
			lower, upper := m.bounds(i)
			if len(lower) != len(x) || len(upper) != len(x) {
				return false
			}
			// Perturb, write back, re-read.
			for p := range x {
				x[p] += 0.001
			}
			m.unpack(i, x)
			y := m.pack(i)
			for p := range x {
				if x[p] != y[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLayoutIndicesDisjoint(t *testing.T) {
	for _, v := range []Variant{VariantL, VariantLI, VariantLN, VariantLHP} {
		m := layoutModel(3, v)
		l := m.layout()
		seen := map[int]bool{0: true} // μ slot
		nSrc := 3
		for s := 0; s < nSrc; s++ {
			var idxs []int
			if !l.conformityAware {
				idxs = []int{l.alphaIdx(s)}
			} else {
				if l.useInformational {
					idxs = append(idxs, l.gammaIIdx(s), l.betaIdx(s))
				}
				if l.useNormative {
					idxs = append(idxs, l.gammaNIdx(s))
				}
			}
			for _, idx := range idxs {
				if seen[idx] {
					t.Fatalf("%s: slot %d reused", v.Name(), idx)
				}
				seen[idx] = true
			}
		}
		// Slots are dense: 1 + nSrc·perSrc of them.
		if len(seen) != 1+nSrc*l.perSrc {
			t.Fatalf("%s: %d slots for perSrc=%d", v.Name(), len(seen), l.perSrc)
		}
	}
}
