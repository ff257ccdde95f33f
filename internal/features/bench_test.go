package features_test

import (
	"testing"

	"perspectron/internal/experiments"
	"perspectron/internal/features"
	"perspectron/internal/stats"
)

// BenchmarkSelect compares feature selection over the quick corpus's scaled
// matrix on the historical per-kernel implementation, pinned to one worker
// (the seed implementation), against the production selection context with
// the default worker count. `make bench-select` gates on parallel-packed
// being strictly faster than serial-dense.
func BenchmarkSelect(b *testing.B) {
	p := experiments.Prepare(experiments.QuickConfig())
	X, y := p.Enc.Matrix(p.DS)
	cfg := features.DefaultSelectConfig()
	run := func(workers int, sel func([][]float64, []float64, []stats.Component, features.SelectConfig) features.Selection) func(*testing.B) {
		return func(b *testing.B) {
			features.SetWorkers(workers)
			defer features.SetWorkers(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s := sel(X, y, p.DS.Components, cfg); len(s.Indices) == 0 {
					b.Fatal("empty selection")
				}
			}
		}
	}
	b.Run("serial-dense", run(1, features.LegacySelect))
	b.Run("parallel-packed", run(0, features.Select))
}
