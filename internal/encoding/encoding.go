// Package encoding is the single implementation of PerSpectron's
// normalize→binarize→score math. The paper's pipeline scales every counter
// delta by the maximum matrix M (per execution point, falling back to the
// corpus-wide maximum), sets the k-sparse bit when the scaled statistic
// reaches 0.5, and sums perceptron weights over the fired bits with the
// margin renormalized so that a partially observable sample (missing
// counters, fault-masked values — the PR-1 degraded serving mode) degrades
// gracefully instead of collapsing.
//
// Encoding is the only holder of M, from the training corpus (Observe) to a
// saved model (Slots) and back (Validate). The trace Encoder's training
// matrices use Scale and Binarize, and its packed rows BitsPacked. The root
// package's RawScorer, the one per-sample scoring path behind the Detector
// and the Classifier, uses BitsPacked and MarginPacked. RawNorm, the fired-bit
// accumulation under MarginPacked, is also the forward pass of every
// perceptron training step and the sum Detector.AttributeFired decomposes,
// so serving, training and explain share one margin kernel.
// The dense []bool Bits/Margin pair survives only in this package's tests,
// as the oracle the packed kernels are pinned to. Equivalence tests in the
// root package pin the outputs to the pre-unification implementations bit
// for bit.
package encoding

import (
	"fmt"
	"math"
	"math/bits"
)

// BinarizeThreshold is the paper's k-sparse firing cut: a feature's bit is
// set when its scaled statistic reaches this value. Consumers inspecting
// already-scaled matrices (feature selection, figure rendering) share the
// constant rather than re-deriving it.
const BinarizeThreshold = 0.5

// Encoding holds the normalization maxima for a feature space: the paper's
// matrix M. GlobalMax is indexed by feature; PerPoint, when present, is
// indexed [execution point][feature] and takes precedence wherever its
// entry is positive. A nil PerPoint (the Classifier's configuration)
// normalizes by the global column only.
type Encoding struct {
	GlobalMax []float64
	PerPoint  [][]float64
}

// New returns an empty encoding for nFeatures features.
func New(nFeatures int) *Encoding {
	return &Encoding{GlobalMax: make([]float64, nFeatures)}
}

// NumFeatures returns the feature-space width u.
func (e *Encoding) NumFeatures() int { return len(e.GlobalMax) }

// NumPoints returns the number of execution points s with recorded maxima.
func (e *Encoding) NumPoints() int { return len(e.PerPoint) }

// Observe folds one program run's sample sequence into the maxima: sample j
// of the run updates point column j.
func (e *Encoding) Observe(samples [][]float64) {
	for j, vec := range samples {
		if len(vec) != len(e.GlobalMax) {
			panic("encoding: sample width mismatch in Observe")
		}
		for len(e.PerPoint) <= j {
			e.PerPoint = append(e.PerPoint, make([]float64, len(e.GlobalMax)))
		}
		col := e.PerPoint[j]
		for i, v := range vec {
			if v > col[i] {
				col[i] = v
			}
			if v > e.GlobalMax[i] {
				e.GlobalMax[i] = v
			}
		}
	}
}

// Max returns the normalizing maximum for feature i at execution point
// point: the per-point maximum when one is recorded and positive, otherwise
// the corpus-wide maximum. A result of 0 means the counter never fired
// anywhere in training.
func (e *Encoding) Max(i, point int) float64 {
	if point >= 0 && point < len(e.PerPoint) {
		if v := e.PerPoint[point][i]; v > 0 {
			return v
		}
	}
	return e.GlobalMax[i]
}

// modelPoints caps the per-point rows Slots copies into a model, bounding
// the size of a saved detector; later points normalize by the global column.
const modelPoints = 64

// Slots copies the maxima onto a model's feature slots: slot i takes
// feature indices[i]. GlobalMax is copied by index; PerPoint holds, for
// each of the first min(NumPoints, 64) execution points, the resolved
// Max(indices[i], point), and is nil when no point was observed.
func (e *Encoding) Slots(indices []int) *Encoding {
	out := &Encoding{GlobalMax: make([]float64, len(indices))}
	for i, j := range indices {
		out.GlobalMax[i] = e.GlobalMax[j]
	}
	for pt := 0; pt < min(len(e.PerPoint), modelPoints); pt++ {
		row := make([]float64, len(indices))
		for i, j := range indices {
			row[i] = e.Max(j, pt)
		}
		out.PerPoint = append(out.PerPoint, row)
	}
	return out
}

// Validate reports the first fault in maxima loaded from outside the
// program: a PerPoint row narrower or wider than GlobalMax, or a non-finite
// entry.
func (e *Encoding) Validate() error {
	for i, m := range e.GlobalMax {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("non-finite global max in slot %d", i)
		}
	}
	for p, row := range e.PerPoint {
		if len(row) != len(e.GlobalMax) {
			return fmt.Errorf("point-max row %d has width %d, want %d", p, len(row), len(e.GlobalMax))
		}
		for i, m := range row {
			if math.IsNaN(m) || math.IsInf(m, 0) {
				return fmt.Errorf("non-finite point max at (%d, slot %d)", p, i)
			}
		}
	}
	return nil
}

// Scale normalizes sample vec taken at execution point point into [0,1] per
// feature. Counters that never fired scale to 0. The result is written into
// dst (pass nil to allocate).
func (e *Encoding) Scale(vec []float64, point int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(vec))
	}
	for i, v := range vec {
		mx := e.Max(i, point)
		if mx <= 0 {
			dst[i] = 0
			continue
		}
		s := v / mx
		if s > 1 {
			s = 1
		}
		dst[i] = s
	}
	return dst
}

// Binarize produces the paper's k-sparse 0/1 feature vector: bit t is 1 iff
// the scaled statistic t is >= 0.5. The result is written into dst (pass
// nil to allocate).
func (e *Encoding) Binarize(vec []float64, point int, dst []float64) []float64 {
	dst = e.Scale(vec, point, dst)
	for i, s := range dst {
		if s >= BinarizeThreshold {
			dst[i] = 1
		} else {
			dst[i] = 0
		}
	}
	return dst
}

// BitsPacked computes the fired-bit set for a serving-path sample as a
// bit-packed BitVec: one packed vector feeds a MarginPacked sweep per model
// (detector, or one per classifier class) without re-walking the raw
// sample. indices maps each feature slot to its raw counter index on the
// current machine; a negative or out-of-range index marks a counter missing
// from the machine, and non-finite raw values are the fault sentinel (see
// internal/faults) — both are masked: the slot neither fires nor counts as
// observable. avail is the number of observable slots, the numerator of the
// degraded-mode coverage. The encoding is slot-indexed (GlobalMax[slot], not
// GlobalMax[counter]). The result is written into dst (pass nil or a short
// dst to allocate); dst is cleared first.
func (e *Encoding) BitsPacked(raw []float64, indices []int, point int, dst BitVec) (bits BitVec, avail int) {
	if words := (len(indices) + 63) / 64; len(dst) < words {
		dst = make(BitVec, words)
	} else {
		dst = dst[:words]
		for i := range dst {
			dst[i] = 0
		}
	}
	for slot, j := range indices {
		if j < 0 || j >= len(raw) {
			continue
		}
		v := raw[j]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		avail++
		mx := e.Max(slot, point)
		if mx <= 0 {
			continue
		}
		if v/mx >= BinarizeThreshold {
			dst.Set(slot)
		}
	}
	return dst, avail
}

// Identity returns the identity slot map of width n: slot i reads raw
// index i, the map a model over the whole feature space uses.
func Identity(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// RawNorm is the perceptron kernel: the one accumulation behind serving,
// training and attribution. It returns the raw output bias + Σ w_fired and
// the active-weight magnitude |bias| + Σ |w_fired| over the fired bits.
// Only set words are walked, and set bits are visited in ascending slot
// order, so every caller gets the same float sums for the same fired set.
func RawNorm(bias float64, w []float64, fired BitVec) (raw, norm float64) {
	raw = bias
	norm = math.Abs(bias)
	for wi, word := range fired {
		base := wi << 6
		for word != 0 {
			j := base + bits.TrailingZeros64(word)
			raw += w[j]
			norm += math.Abs(w[j])
			word &= word - 1
		}
	}
	return raw, norm
}

// Normalize divides a raw output by its active-weight magnitude and clamps
// the result to [-1, 1]; a zero magnitude yields 0.
func Normalize(raw, norm float64) float64 {
	if norm == 0 {
		return 0
	}
	v := raw / norm
	if v > 1 {
		v = 1
	} else if v < -1 {
		v = -1
	}
	return v
}

// MarginPacked returns the renormalized perceptron output over the fired
// bits: (bias + Σ w_fired) / (|bias| + Σ |w_fired|), clamped to [-1, 1], or
// 0 when the denominator is zero. Because masked slots contribute to neither
// sum, losing a random subset of counters shrinks numerator and denominator
// together and the normalized confidence degrades gracefully instead of
// collapsing (docs/FAULTS.md).
func MarginPacked(bias float64, w []float64, fired BitVec) float64 {
	return Normalize(RawNorm(bias, w, fired))
}
