package perspectron

// Streaming scoring sessions: the serving runtime's unit of work, and the
// loop Monitor and Classify fold over. A Session hands control back after
// every sampling interval, so a long-running service (internal/serve) can
// apply per-sample deadlines, walk the degradation ladder mid-run, and shut
// down promptly. Each Session scores through its own RawScorer, resolved
// once against the machine it runs — the Detector/Classifier it scores with
// is never mutated — so any number of concurrent Sessions can share one
// immutable model, and a hot-reload can swap the model under new Sessions
// while old ones finish on the previous version.

import (
	"context"
	"fmt"

	"perspectron/internal/sim"
	"perspectron/internal/trace"
)

// SessionConfig configures one streaming scoring session.
type SessionConfig struct {
	// Workload is the program to run. Required.
	Workload Workload
	// MaxInsts bounds the run's committed-path length; 0 means the
	// workload's natural end.
	MaxInsts uint64
	// Seed drives the workload's data-dependent behaviour.
	Seed int64
	// Faults optionally injects counter-level faults (see FaultConfig);
	// nil runs clean.
	Faults *FaultConfig
}

// Verdict is one sampling interval's combined scoring outcome.
type Verdict struct {
	// Sample is the sampling-interval index within the run.
	Sample int
	// Insts is the committed-instruction count at the sample.
	Insts uint64
	// Score is the detector's normalized output; Flagged is the threshold
	// cut. Zero-valued when the session has no detector.
	Score   float64
	Flagged bool
	// Class is the classifier's per-interval argmax ("" without a
	// classifier); ClassScore its normalized margin.
	Class      string
	ClassScore float64
	// Coverage is the fraction (0..1] of the primary model's features
	// observable at this sample — the degradation ladder's input signal.
	Coverage float64
}

// Session streams one workload run through a detector and/or classifier,
// one sampling interval at a time. Create with NewSession, pull verdicts
// with Next, and Close when done (Close is mandatory on early abandonment —
// it releases the producer goroutine).
type Session struct {
	scorer   *RawScorer // resolved against this session's machine
	src      *trace.RunSource
	interval uint64
}

// NewSession starts a streaming session for cfg.Workload. Either model may
// be nil, but not both; when both are present the detector's sampling
// interval drives the run and the classifier votes on the same raw deltas.
// ctx bounds the whole run (the producer observes it between instruction
// blocks); per-sample deadlines go to Next instead.
func NewSession(ctx context.Context, det *Detector, cls *Classifier, cfg SessionConfig) (*Session, error) {
	if cfg.Workload == nil {
		return nil, fmt.Errorf("perspectron: session needs a workload")
	}
	m := sim.NewMachine(sim.DefaultConfig())
	scorer, err := resolveScorer(det, cls, m)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		sched, err := cfg.Faults.schedule(m)
		if err != nil {
			return nil, err
		}
		if sched != nil {
			sched.Attach(m)
		}
	}
	s := &Session{scorer: scorer}
	if det != nil {
		s.interval = det.Interval
	} else {
		s.interval = cls.Interval
	}
	s.src = trace.NewRunSource(ctx, m, cfg.Workload, 0, cfg.Seed,
		trace.CollectConfig{MaxInsts: cfg.MaxInsts, Interval: s.interval})
	return s, nil
}

// Next returns the next interval's verdict, or false when the run has ended
// or ctx expired first. Distinguish the two by ctx.Err(): nil means the run
// genuinely ended (check Err for a workload panic). After a deadline the
// session remains usable — the producer keeps the sample for a later Next.
// Next is NextRaw scored by the session's RawScorer.
func (s *Session) Next(ctx context.Context) (*Verdict, bool) {
	rs, ok := s.NextRaw(ctx)
	if !ok {
		return nil, false
	}
	v := &Verdict{
		Sample: rs.Sample,
		Insts:  uint64(rs.Sample+1) * s.interval,
	}
	v.Score, v.Flagged, v.Coverage = s.scorer.Detect(rs)
	var clsCoverage float64
	v.Class, v.ClassScore, clsCoverage = s.scorer.Classify(rs)
	if s.scorer.det == nil {
		v.Coverage = clsCoverage
	}
	return v, true
}

// Count returns the number of verdicts delivered so far.
func (s *Session) Count() int { return s.src.Count() }

// Err reports a workload panic that ended the stream; valid once Next has
// returned false with a live ctx, or after Close.
func (s *Session) Err() error { return s.src.Err() }

// LeakMarks exposes the workload's completed-disclosure marks (attack loops
// record them); valid once the run has ended.
func (s *Session) LeakMarks() []uint64 { return s.src.LeakMarks() }

// Close stops the underlying run and releases the producer goroutine. Safe
// to call more than once.
func (s *Session) Close() { s.src.Close() }
