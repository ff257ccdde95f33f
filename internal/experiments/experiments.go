// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md): Fig. 1
// information hops, Table I feature groups, Table II configuration, Table
// III attack-holdout CV with the §VI-B generalization numbers, Table IV
// model × feature-set comparison, Fig. 3 polymorphic evasion, Fig. 4
// bandwidth-reduction evasion, Fig. 5 ROC over sampling granularities, the
// §VI-A2 timing argument, and the §VII-C weight interpretation.
//
// Each experiment returns a structured result with a Render method; the
// cmd/experiments binary and the repository benchmarks drive them.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/features"
	"perspectron/internal/telemetry"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// Config scales every experiment.
type Config struct {
	Seed     int64
	MaxInsts uint64 // committed-path ops per program run
	Runs     int    // runs per program
	Interval uint64 // sampling granularity
}

// CollectConfig returns the trace-collection settings the config describes —
// the corpus store's half of the cache fingerprint.
func (c Config) CollectConfig() trace.CollectConfig {
	return c.options().CollectConfig()
}

// options returns the training options of the shipped detector and
// classifier at this config's scale: perspectron's defaults (106 features,
// threshold 0.25) over the config's run length, runs, interval and seed.
func (c Config) options() perspectron.Options {
	o := perspectron.DefaultOptions()
	o.Interval, o.MaxInsts, o.Runs, o.Seed = c.Interval, c.MaxInsts, c.Runs, c.Seed
	return o
}

// DefaultConfig is the full-scale setting used by cmd/experiments.
func DefaultConfig() Config {
	return Config{Seed: 1, MaxInsts: 300_000, Runs: 2, Interval: 10_000}
}

// QuickConfig is a reduced setting for benchmarks and smoke tests.
func QuickConfig() Config {
	return Config{Seed: 1, MaxInsts: 100_000, Runs: 1, Interval: 10_000}
}

// CoreCorpus returns perspectron.TrainingWorkloads(), the unmodified-attack
// workload set the shipped detector trains on: all attacks
// (default channels plus pp-channel variants of the speculative attacks,
// for the §VI-B channel pairing) and the benign kernels. The evasion
// experiments (Figs. 3–4) train on this corpus so no evasion variant is
// ever seen in training.
//
// It is also the dataset behind the headline accuracy numbers:
// bandwidth-reduced and polymorphic variants are evaluated separately
// (Table IV's FN columns, Figs. 3–4) because their quiet filler intervals
// make sample-level labels ambiguous — the paper likewise reports them as
// pre/post-leakage coverage, not accuracy.
func CoreCorpus() []workload.Program {
	return perspectron.TrainingWorkloads()
}

// trainDetector trains the shipped detector — what `perspectron train`
// writes — on the base corpus through the shared artifact store.
func trainDetector(cfg Config) *perspectron.Detector {
	det, err := perspectron.Train(CoreCorpus(), cfg.options())
	if err != nil {
		panic(err)
	}
	return det
}

// monitor runs w under det on a fresh machine, as `perspectron detect` does.
func monitor(det *perspectron.Detector, w workload.Program, maxInsts uint64, seed int64) *perspectron.Report {
	rep, err := det.Monitor(w, maxInsts, seed)
	if err != nil {
		panic(err)
	}
	return rep
}

// scores returns a report's per-sample detector outputs.
func scores(rep *perspectron.Report) []float64 {
	out := make([]float64, len(rep.Samples))
	for i, s := range rep.Samples {
		out[i] = s.Score
	}
	return out
}

// Prepared bundles a dataset with its encoder and PerSpectron selection —
// the shared front half of most experiments. It is the corpus store's
// memoized artifact type: every experiment asking for the same (corpus,
// config) receives the identical bundle.
type Prepared = corpus.Prepared

// Prepare returns the core dataset with its encoder and feature selection,
// computed at most once per (corpus, config) via the artifact store.
func Prepare(cfg Config) *Prepared {
	_, span := telemetry.StartSpan(context.Background(), "prepare")
	defer span.End()
	return corpus.Default().Prepared(CoreCorpus(), cfg.CollectConfig(), features.DefaultSelectConfig())
}

// table renders rows as fixed-width text with a header underline.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// sparkline renders a score series as a compact unicode strip chart.
func sparkline(vals []float64, lo, hi float64) string {
	const ramp = " ▁▂▃▄▅▆▇█"
	runes := []rune(ramp)
	var b strings.Builder
	for _, v := range vals {
		f := (v - lo) / (hi - lo)
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		b.WriteRune(runes[int(f*float64(len(runes)-1))])
	}
	return b.String()
}
