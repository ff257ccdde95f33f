package serve

import (
	"sync"

	"perspectron"
)

// The coverage ladder's smoothed-coverage floors: below
// classifierCoverageFloor the classifier rung is abandoned, below
// detectorCoverageFloor the detector rung. hysteresis is the climb-back
// margin of every ladder, the load rung's included.
const (
	classifierCoverageFloor = 0.9
	detectorCoverageFloor   = 0.5
	hysteresis              = 0.05
)

// ladder is one worker's graceful-degradation state machine. Coverage — the
// fraction of model features observable per sample — is smoothed with an
// EWMA, and the serving mode walks down the ladder (classifier → detector →
// threshold) as the smoothed coverage crosses configurable floors, with
// hysteresis on the way back up so a worker flapping around a floor does
// not oscillate between models every sample.
type ladder struct {
	classifierFloor float64 // below: classifier rung unusable
	detectorFloor   float64 // below: detector rung unusable
	alpha           float64 // EWMA smoothing weight for new samples
	hasClassifier   bool

	mu   sync.Mutex
	ewma float64
	mode perspectron.ServeMode
	seen bool
}

func newLadder(classifierFloor, detectorFloor float64, hasClassifier bool) *ladder {
	l := &ladder{
		classifierFloor: classifierFloor,
		detectorFloor:   detectorFloor,
		alpha:           0.3,
		hasClassifier:   hasClassifier,
		mode:            perspectron.ModeDetector,
	}
	if hasClassifier {
		l.mode = perspectron.ModeClassifier
	}
	return l
}

// observe folds one sample's coverage into the EWMA and returns the serving
// mode for this sample plus whether the mode just changed.
func (l *ladder) observe(coverage float64) (mode perspectron.ServeMode, changed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.seen {
		l.ewma = coverage
		l.seen = true
	} else {
		l.ewma = l.alpha*coverage + (1-l.alpha)*l.ewma
	}
	prev := l.mode
	// Walk down as far as the smoothed coverage requires...
	if l.mode == perspectron.ModeClassifier && l.ewma < l.classifierFloor {
		l.mode = perspectron.ModeDetector
	}
	if l.mode == perspectron.ModeDetector && l.ewma < l.detectorFloor {
		l.mode = perspectron.ModeThreshold
	}
	// ...and climb back one rung at a time, only past floor+hysteresis.
	if l.mode == perspectron.ModeThreshold && l.ewma >= l.detectorFloor+hysteresis {
		l.mode = perspectron.ModeDetector
	}
	if l.mode == perspectron.ModeDetector && l.hasClassifier &&
		l.ewma >= l.classifierFloor+hysteresis && prev != perspectron.ModeThreshold {
		l.mode = perspectron.ModeClassifier
	}
	return l.mode, l.mode != prev
}

// observeLoad folds one queue-pressure reading (depth/capacity, 0..1) into
// a ladder running as a shard's load rung. Pressure is mapped onto the same
// machinery coverage uses by feeding its complement — headroom — so the
// EWMA smoothing, floor semantics and climb-back hysteresis are shared
// verbatim: a load ladder built with floors (1-LoadHigh, 1-LoadCritical)
// walks classifier → detector → threshold as sustained pressure crosses
// LoadHigh and LoadCritical, and climbs back one rung at a time only once
// pressure clears the mark by the hysteresis margin.
func (l *ladder) observeLoad(pressure float64) (mode perspectron.ServeMode, changed bool) {
	return l.observe(1 - pressure)
}

// snapshot returns the current mode and smoothed coverage for health
// reporting.
func (l *ladder) snapshot() (mode perspectron.ServeMode, coverage float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mode, l.ewma
}

// maxMode returns the more degraded of two serving modes — how a sample's
// effective rung combines its worker's coverage rung with its shard's load
// rung (rungs order classifier < detector < threshold, so the numeric max
// is the lower rung).
func maxMode(a, b perspectron.ServeMode) perspectron.ServeMode {
	if b > a {
		return b
	}
	return a
}
