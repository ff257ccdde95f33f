package perspectron

// Raw-sample scoring: the one scoring core. A RawScorer scores raw
// counter-delta vectors through the bit-packed encoding. A Session owns one
// and scores its own stream inline; the bounded-queue ingest stage in
// internal/serve instead drains a whole shard's tick of samples from many
// streams through one scorer, so a shard of hundreds of streams costs one
// bit-pack plus one packed margin sweep per sample. The models are read,
// never written, so any number of RawScorers can share one hot-reloaded
// pair.

import (
	"context"
	"fmt"

	"perspectron/internal/encoding"
	"perspectron/internal/sim"
)

// RawSample is one sampling interval's raw counter-delta vector as produced
// by Session.NextRaw, before any scoring: the unit of work the serving
// ingest queues carry. Raw is machine-width (indexed by counter, not model
// slot) and may contain NaN/Inf fault sentinels.
type RawSample struct {
	// Sample is the sampling-interval index within the run (the encoding's
	// execution point).
	Sample int
	// Raw is the machine-width counter-delta vector. The slice is owned by
	// the caller once returned; the session never rewrites it.
	Raw []float64
}

// NextRaw returns the next interval's raw sample without scoring it, or
// false when the run has ended or ctx expired first — the producer half of
// the serving runtime's ingest stage. It shares Next's deadline semantics:
// distinguish run-end from deadline by ctx.Err(), and the session remains
// usable after a deadline. Mixing Next and NextRaw on one session is
// allowed; each sample is delivered exactly once.
func (s *Session) NextRaw(ctx context.Context) (RawSample, bool) {
	smp, ok := s.src.NextCtx(ctx)
	if !ok {
		return RawSample{}, false
	}
	return RawSample{Sample: smp.Index, Raw: smp.Raw}, true
}

// RawScorer scores RawSamples against an immutable Detector/Classifier pair
// through the bit-packed hot path: each sample is packed once per model
// encoding, the detector margin is one MarginPacked sweep, and the
// classifier's one-vs-rest bank reuses a single packed vector for all
// classes. It is the only per-sample scoring implementation: Session.Next,
// Monitor, Classify, MonitorWithPolicy and the promotion gate all score
// through one, so every path produces bit-identical results (pinned by
// TestScoringPathsAgree).
//
// A RawScorer reuses internal scratch buffers and is NOT safe for
// concurrent use — give each shard scorer its own.
type RawScorer struct {
	det    *Detector
	cls    *Classifier
	detIdx []int // detector slot -> raw-vector index; -1 masks the slot
	clsIdx []int

	detBits encoding.BitVec // scratch, allocated on first use
	clsBits encoding.BitVec
	scores  []float64
}

// NewRawScorer builds a scorer for the model pair; either model may be nil
// but not both. Indices resolve against a fresh default machine — the same
// homogeneous configuration every serving Session runs on.
func NewRawScorer(det *Detector, cls *Classifier) (*RawScorer, error) {
	return resolveScorer(det, cls, sim.NewMachine(sim.DefaultConfig()))
}

// resolveScorer maps both models' feature names onto machine m's counters
// and builds the scorer over them. Counters absent from the machine resolve
// to -1 and are masked during scoring — the degraded serving mode, mirroring
// the paper's replicated-detector argument that a partial signature still
// scores. The only error is a primary model none of whose counters exist.
func resolveScorer(det *Detector, cls *Classifier, m *sim.Machine) (*RawScorer, error) {
	if det == nil && cls == nil {
		return nil, fmt.Errorf("perspectron: scoring needs a detector or a classifier")
	}
	var detIdx, clsIdx []int
	if det != nil {
		var resolved int
		if detIdx, resolved = resolveNames(det.FeatureNames, m); resolved == 0 {
			return nil, fmt.Errorf("perspectron: none of the detector's %d counters are present on this machine",
				len(det.FeatureNames))
		}
	}
	if cls != nil {
		var resolved int
		if clsIdx, resolved = resolveNames(cls.FeatureNames, m); resolved == 0 && det == nil {
			return nil, fmt.Errorf("perspectron: none of the classifier's %d counters are present on this machine",
				len(cls.FeatureNames))
		}
	}
	return newRawScorer(det, cls, detIdx, clsIdx), nil
}

// resolveNames maps feature names onto counter indices for machine m:
// counters absent from the machine resolve to -1.
func resolveNames(names []string, m *sim.Machine) (indices []int, resolved int) {
	indices = make([]int, len(names))
	for i, name := range names {
		if c, ok := m.Reg.Lookup(name); ok {
			indices[i] = c.Index()
			resolved++
		} else {
			indices[i] = -1
		}
	}
	return indices, resolved
}

// newRawScorer is the one constructor behind every scorer. detIdx and clsIdx
// map each model slot onto an index into the raw vectors the scorer will be
// handed (a machine's counter space, or the promotion gate's golden feature
// space); a negative index masks the slot. Each slice must be as wide as its
// model's FeatureNames.
func newRawScorer(det *Detector, cls *Classifier, detIdx, clsIdx []int) *RawScorer {
	return &RawScorer{det: det, cls: cls, detIdx: detIdx, clsIdx: clsIdx}
}

// Detect scores one raw sample with the detector: the normalized margin,
// the threshold cut, and the fraction of detector features observable (the
// degradation ladder's input). Unresolved or fault-masked (NaN/Inf) inputs
// neither fire nor count as observable, and the margin is renormalized over
// the firing weights: s/(|bias|+Σ|w_fired|), so losing a random subset
// shrinks numerator and denominator together and the confidence degrades
// gracefully instead of collapsing. With no detector it returns zeros.
func (r *RawScorer) Detect(s RawSample) (score float64, flagged bool, coverage float64) {
	if r.det == nil {
		return 0, false, 0
	}
	var avail int
	r.detBits, avail = r.det.encoding().BitsPacked(s.Raw, r.detIdx, s.Sample, r.detBits)
	score = encoding.MarginPacked(r.det.Bias, r.det.Weights, r.detBits)
	return score, score >= r.det.Threshold, float64(avail) / float64(len(r.detIdx))
}

// Classify names one raw sample's class with the classifier bank: the
// argmax class, its normalized margin, and the classifier-feature coverage.
// With no classifier it returns ("", 0, 0).
func (r *RawScorer) Classify(s RawSample) (class string, score float64, coverage float64) {
	if r.cls == nil {
		return "", 0, 0
	}
	scores, avail := r.classMargins(s)
	best := 0
	for ci := range scores {
		if scores[ci] > scores[best] {
			best = ci
		}
	}
	return r.cls.Classes[best], scores[best], float64(avail) / float64(len(r.clsIdx))
}

// classMargins packs one raw sample through the classifier's encoding and
// returns every class's normalized margin (in Classes order) and the number
// of observable features. The slice is scratch, valid until the next call.
func (r *RawScorer) classMargins(s RawSample) (scores []float64, avail int) {
	r.clsBits, avail = r.cls.encoding().BitsPacked(s.Raw, r.clsIdx, -1, r.clsBits)
	if cap(r.scores) < len(r.cls.Classes) {
		r.scores = make([]float64, len(r.cls.Classes))
	}
	scores = r.scores[:len(r.cls.Classes)]
	for ci := range scores {
		scores[ci] = encoding.MarginPacked(r.cls.Biases[ci], r.cls.Weights[ci], r.clsBits)
	}
	return scores, avail
}
