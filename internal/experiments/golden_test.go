package experiments

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"sort"
	"testing"
)

// TestDetectorExperimentsGolden pins, bit for bit, what the experiments built
// on the trained detector report at QuickConfig: Fig. 3's and Fig. 4's score
// trajectories and flag/leak points, ZeroDay's TP rates, Sched's per-program
// attribution and the §VII-C weight rankings with their rendered text. Any
// change to how these experiments train, monitor or score that moves one
// score by one ulp changes a digest.
func TestDetectorExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five experiments")
	}
	cfg := QuickConfig()
	want := map[string]string{
		"fig3":    "24ff81a6dd8269c7",
		"fig4":    "e1d2c7dd5f2479f7",
		"zeroday": "e1d3a45aa8b2ea19",
		"sched":   "c0fac9031b83bc36",
		"weights": "eac02d9982a86c3a",
	}
	got := map[string]string{
		"fig3":    digest(func(h hash.Hash) { hashFig3(h, Fig3(cfg)) }),
		"fig4":    digest(func(h hash.Hash) { hashFig4(h, Fig4(cfg)) }),
		"zeroday": digest(func(h hash.Hash) { hashZeroDay(h, ZeroDay(cfg)) }),
		"sched":   digest(func(h hash.Hash) { hashSched(h, Sched(cfg)) }),
		"weights": digest(func(h hash.Hash) { hashWeights(h, Weights(cfg)) }),
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s digest = %s, want %s", name, got[name], w)
		}
	}
}

// digest returns the first 16 hex digits of the SHA-256 of what fill writes.
func digest(fill func(h hash.Hash)) string {
	h := sha256.New()
	fill(h)
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

func hashScores(h hash.Hash, scores []float64) {
	fmt.Fprintf(h, "n=%d", len(scores))
	for _, s := range scores {
		fmt.Fprintf(h, " %016x", math.Float64bits(s))
	}
	fmt.Fprintln(h)
}

func hashFig3(h hash.Hash, r *Fig3Result) {
	fmt.Fprintf(h, "interval=%d threshold=%016x\n", r.Interval, math.Float64bits(r.Threshold))
	for _, s := range r.Series {
		fmt.Fprintf(h, "%s first=%d detected=%v\n", s.Variant, s.FirstFlag, s.Detected)
		hashScores(h, s.Scores)
	}
}

func hashFig4(h hash.Hash, r *Fig4Result) {
	fmt.Fprintf(h, "interval=%d threshold=%016x\n", r.Interval, math.Float64bits(r.Threshold))
	for _, s := range r.Series {
		fmt.Fprintf(h, "%016x first=%d leak=%d detected=%v preleak=%v\n",
			math.Float64bits(s.Factor), s.FirstFlag, s.FirstLeak, s.Detected, s.PreLeak)
		hashScores(h, s.Scores)
	}
}

func hashZeroDay(h hash.Hash, r *ZeroDayResult) {
	for _, name := range sortedKeys(r.TPRate) {
		fmt.Fprintf(h, "%s tp=%016x detected=%v\n", name, math.Float64bits(r.TPRate[name]), r.Detected[name])
	}
	fmt.Fprintf(h, "detected=%d\n", len(r.Detected))
}

func hashSched(h hash.Hash, r *SchedResult) {
	fmt.Fprintf(h, "tpr=%016x fpr=%016x switches=%d\n",
		math.Float64bits(r.AttackerTPR), math.Float64bits(r.BenignFPR), r.Switches)
	for _, prog := range sortedKeys(r.PerProgram) {
		fmt.Fprintf(h, "%s %016x\n", prog, math.Float64bits(r.PerProgram[prog]))
	}
}

func hashWeights(h hash.Hash, r *WeightsResult) {
	list := func(tag string, es []WeightEntry) {
		fmt.Fprintf(h, "%s n=%d\n", tag, len(es))
		for _, e := range es {
			fmt.Fprintf(h, "%s %s %016x\n", e.Component, e.Name, math.Float64bits(e.Weight))
		}
	}
	list("top+", r.TopPositive)
	list("top-", r.TopNegative)
	comps := make([]string, 0, len(r.ByComponent))
	for c := range r.ByComponent {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		list(c, r.ByComponent[c])
	}
	fmt.Fprint(h, r.Render())
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
