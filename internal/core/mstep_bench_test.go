package core

import (
	"testing"

	"chassis/internal/infer"
)

// BenchmarkConformityMStepDim times one CHASSIS-L dimension's M-step as
// optimizeDim runs it, without the blend: buildDim, objective and
// infer.MaximizeProjected from the fitted parameters of benchFixture's
// corpus, on the dimension with the most kept source events. It reports
// the objective's value passes, slot refreshes and decay sweeps per op.
func BenchmarkConformityMStepDim(b *testing.B) {
	m, work, conf := benchFixture(b)
	cols := seqColumns(work)
	dim, most := -1, 0
	for i := 0; i < m.M; i++ {
		d := m.buildDim(cols, conf, i)
		if len(d.src) > most {
			dim, most = i, len(d.src)
		}
		d.release()
	}
	if dim < 0 {
		b.Fatal("no dimension keeps a source event")
	}
	b.Logf("dimension %d: %d sources, %d kept source events", dim, len(m.params.sources(dim)), most)
	var passes, refreshes, sweeps int
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d := m.buildDim(cols, conf, dim)
		obj := m.objective(d)
		x0 := m.pack(dim)
		lower, upper := m.bounds(dim)
		if _, err := infer.MaximizeProjected(x0, obj.eval, infer.Options{
			MaxIter: m.cfg.MStepIters,
			Lower:   lower, Upper: upper,
			InitStep: 0.05, Tol: 1e-7,
		}); err != nil {
			b.Fatal(err)
		}
		passes += obj.valuePasses
		refreshes += obj.refreshes
		sweeps += obj.sweeps
		obj.release()
		d.release()
	}
	b.ReportMetric(float64(passes)/float64(b.N), "value-passes/op")
	b.ReportMetric(float64(refreshes)/float64(b.N), "slot-refreshes/op")
	b.ReportMetric(float64(sweeps)/float64(b.N), "decay-sweeps/op")
}
