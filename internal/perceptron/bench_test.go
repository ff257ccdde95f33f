package perceptron_test

import (
	"testing"

	"perspectron/internal/experiments"
	"perspectron/internal/perceptron"
	"perspectron/internal/trace"
)

// BenchmarkFit compares perceptron training over the quick corpus's selected
// binary features on the historical dense loop (the test oracle) against the
// production bit-packed fit (identical weights, set-bit iteration only).
func BenchmarkFit(b *testing.B) {
	p := experiments.Prepare(experiments.QuickConfig())
	Xd, y := p.Enc.BinaryMatrix(p.DS)
	Xdense := trace.Project(Xd, p.Sel.Indices)
	Xb, _ := p.Enc.PackedBinaryMatrix(p.DS)
	Xpacked := trace.ProjectPacked(Xb, p.Sel.Indices)
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			det := perceptron.New(len(p.Sel.Indices), perceptron.DefaultConfig())
			perceptron.OldFit(det, Xdense, y)
		}
	})
	b.Run("packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			det := perceptron.New(len(p.Sel.Indices), perceptron.DefaultConfig())
			det.FitPacked(Xpacked, y)
		}
	})
}
