package perceptron

import (
	"math"
	"math/rand"
	"testing"

	"perspectron/internal/encoding"
)

// randSparse builds an n×f exact-0/1 matrix (k-sparse-ish) with ±1 labels
// weakly separable so training actually updates.
func randSparse(r *rand.Rand, n, f int) (X [][]float64, y []float64) {
	X = make([][]float64, n)
	y = make([]float64, n)
	for i := range X {
		y[i] = float64(2*(i%2) - 1)
		row := make([]float64, f)
		for j := range row {
			if r.Intn(5) == 0 {
				row[j] = 1
			}
			if j%7 == 0 && y[i] > 0 && r.Intn(2) == 0 {
				row[j] = 1
			}
		}
		X[i] = row
	}
	return X, y
}

// oldFit is the historical dense Fit hot loop, kept verbatim (minus
// telemetry): the margin check recomputed the full Score dot product after
// Raw. It is the oracle every training path is pinned to bit for bit: the
// packed epoch loop must not change a single weight bit on 0/1 input.
func oldFit(p *Perceptron, X [][]float64, y []float64) {
	r := rand.New(rand.NewSource(p.cfg.Seed))
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	epochs := p.cfg.Epochs
	if epochs <= 0 {
		epochs = 1000
	}
	for e := 0; e < epochs; e++ {
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		errs, updates := 0, 0
		for _, i := range idx {
			out := oldRaw(p, X[i])
			pred := 1.0
			if out < 0 {
				pred = -1
			}
			wrong := pred != y[i]
			if wrong {
				errs++
			}
			if wrong || (p.cfg.Margin > 0 && y[i]*oldScore(p, X[i]) < p.cfg.Margin) {
				updates++
				step := 2 * p.cfg.LearningRate * y[i]
				for j, v := range X[i] {
					if v != 0 {
						p.W[j] += step * v
					}
				}
				p.Bias += step
			}
		}
		if updates == 0 {
			break
		}
		if p.cfg.Margin == 0 && float64(errs)/float64(len(X)) < p.cfg.TargetError {
			break
		}
	}
}

// oldRaw is the historical dense Perceptron.Raw: the un-normalized dot
// product w·x + b.
func oldRaw(p *Perceptron, x []float64) float64 {
	s := p.Bias
	for j, v := range x {
		if v != 0 {
			s += p.W[j] * v
		}
	}
	return s
}

// oldScore is the two-pass Score the margin check used to call.
func oldScore(p *Perceptron, x []float64) float64 {
	norm := math.Abs(p.Bias)
	for j, v := range x {
		if v != 0 {
			norm += math.Abs(p.W[j] * v)
		}
	}
	if norm == 0 {
		return 0
	}
	s := oldRaw(p, x) / norm
	if s > 1 {
		s = 1
	} else if s < -1 {
		s = -1
	}
	return s
}

func sameWeights(t *testing.T, label string, a, b *Perceptron) {
	t.Helper()
	if a.Bias != b.Bias {
		t.Fatalf("%s: bias %v != %v", label, a.Bias, b.Bias)
	}
	for j := range a.W {
		if a.W[j] != b.W[j] {
			t.Fatalf("%s: W[%d] %v != %v", label, j, a.W[j], b.W[j])
		}
	}
}

// TestFitMarginReuseBitIdentical: the packed epoch loop, which reuses the
// forward pass's raw output for the margin check, must train bit-for-bit
// like the dense oracle, with and without margin training. On scaled
// (non-binary) input Fit treats every non-zero entry as a fired bit, so it
// must match the oracle on the same matrix with non-zeros mapped to 1.
func TestFitMarginReuseBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 6; trial++ {
		n, f := 60+r.Intn(100), 20+r.Intn(40)
		X, y := randSparse(r, n, f)
		Xref := X
		if trial%3 == 2 { // scaled, non-binary inputs
			Xref = make([][]float64, len(X))
			for i, row := range X {
				Xref[i] = append([]float64(nil), row...)
				for j := range row {
					if row[j] != 0 {
						row[j] = 0.25 + 0.75*r.Float64()
					}
				}
			}
		}
		for _, margin := range []float64{0, 0.3} {
			cfg := DefaultConfig()
			cfg.Epochs = 50
			cfg.Margin = margin
			cfg.Seed = int64(trial)
			pNew := New(f, cfg)
			pNew.Fit(X, y)
			pOld := New(f, cfg)
			oldFit(pOld, Xref, y)
			sameWeights(t, "margin-reuse", pNew, pOld)
		}
	}
}

// TestFitPackedBitIdentical: training on bit-packed rows must reproduce the
// dense oracle's weights exactly.
func TestFitPackedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 6; trial++ {
		n, f := 60+r.Intn(100), 20+r.Intn(80)
		X, y := randSparse(r, n, f)
		Xp := encoding.PackRows(X)
		for _, margin := range []float64{0, 0.3} {
			cfg := DefaultConfig()
			cfg.Epochs = 50
			cfg.Margin = margin
			cfg.Seed = int64(trial)
			dense := New(f, cfg)
			oldFit(dense, X, y)
			packed := New(f, cfg)
			packed.FitPacked(Xp, y)
			sameWeights(t, "packed-fit", dense, packed)
		}
	}
}

// TestScorePackedBitIdentical: Score, which packs its input and runs the
// shared encoding kernel, must match the dense two-pass oracle bit for bit
// on random 0/1 inputs.
func TestScorePackedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 20; trial++ {
		f := 10 + r.Intn(200)
		p := New(f, DefaultConfig())
		for j := range p.W {
			p.W[j] = r.NormFloat64()
		}
		p.Bias = r.NormFloat64()
		x := make([]float64, f)
		for j := range x {
			if r.Intn(3) == 0 {
				x[j] = 1
			}
		}
		if raw, _ := encoding.RawNorm(p.Bias, p.W, encoding.Pack(x)); raw != oldRaw(p, x) {
			t.Fatalf("RawNorm raw = %v, dense oracle %v", raw, oldRaw(p, x))
		}
		if got, want := p.Score(x), oldScore(p, x); got != want {
			t.Fatalf("Score = %v, dense oracle %v", got, want)
		}
	}
}

// TestQuantizedScoreSinglePass: the one-pass Quantized.Score rewrite must
// match the historical two-pass (norm loop + Raw loop) output bit for bit,
// including on fractional inputs where norm scales by v but Raw does not.
func TestQuantizedScoreSinglePass(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 20; trial++ {
		f := 5 + r.Intn(100)
		p := New(f, DefaultConfig())
		for j := range p.W {
			p.W[j] = r.NormFloat64()
		}
		p.Bias = r.NormFloat64()
		q := p.Quantized()
		x := make([]float64, f)
		for j := range x {
			if r.Intn(2) == 0 {
				x[j] = r.Float64()
			}
		}
		// historical two-pass reference
		norm := math.Abs(float64(q.Bias))
		for j, v := range x {
			if v != 0 {
				norm += math.Abs(float64(q.W[j]) * v)
			}
		}
		want := 0.0
		if norm != 0 {
			want = float64(q.Raw(x)) / norm
			if want > 1 {
				want = 1
			} else if want < -1 {
				want = -1
			}
		}
		if got := q.Score(x); got != want {
			t.Fatalf("Quantized.Score = %v, two-pass reference %v", got, want)
		}
	}
}

// TestMultiClassFitPackedBitIdentical pins the packed one-vs-rest bank to
// a bank whose class detectors the dense oracle trains one-vs-rest.
func TestMultiClassFitPackedBitIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	n, f := 90, 40
	X, _ := randSparse(r, n, f)
	labels := make([]string, n)
	names := []string{"benign", "spectre", "meltdown"}
	for i := range labels {
		labels[i] = names[i%len(names)]
	}
	cfg := DefaultConfig()
	cfg.Epochs = 40
	dense := NewMultiClass(names, f, cfg)
	y := make([]float64, n)
	for ci, name := range names {
		for i, l := range labels {
			y[i] = -1
			if l == name {
				y[i] = 1
			}
		}
		oldFit(dense.Detectors[ci], X, y)
	}
	packed := NewMultiClass(names, f, cfg)
	packed.FitPacked(encoding.PackRows(X), labels)
	for ci := range names {
		sameWeights(t, "multiclass "+names[ci], dense.Detectors[ci], packed.Detectors[ci])
	}
}
