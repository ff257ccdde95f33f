package experiments

import (
	"fmt"
	"strings"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/perceptron"
	"perspectron/internal/workload"
)

// MultiwayResult reproduces the paper's multi-way classification protocol
// (§VII-B): a one-vs-rest perceptron bank classifies each sample into its
// attack category (or benign). The paper reports a near-perfect F1 on the
// training set and notes that per-category holdout CV was impractical (too
// few attacks per category) — this experiment follows the same protocol and
// reports training-set F1 per class.
type MultiwayResult struct {
	Classes  []string
	PerClass map[string]float64 // F1 per class
	MacroF1  float64
	Accuracy float64
}

// Multiway trains the shipped classifier bank — what `perspectron
// classify-train` writes — on the base corpus and scores it on the training
// set. Classification uses the full k-sparse feature space: distinguishing
// SpectreV1 from V2 from RSB needs the per-predictor-unit counters that the
// binary benign/suspicious selection has no reason to keep.
func Multiway(cfg Config) *MultiwayResult {
	cls, err := perspectron.TrainClassifier(CoreCorpus(), cfg.options())
	if err != nil {
		panic(err)
	}
	sc, err := perspectron.NewRawScorer(nil, cls)
	if err != nil {
		panic(err)
	}
	conf := perceptron.NewConfusion(cls.Classes)
	// The corpus TrainClassifier just trained on, from the artifact store.
	for _, s := range corpus.Default().Dataset(CoreCorpus(), cfg.CollectConfig()).Samples {
		want := s.Category
		if s.Label == workload.Benign {
			want = "benign"
		}
		got, _, _ := sc.Classify(perspectron.RawSample{Sample: s.Index, Raw: s.Raw})
		conf.Add(want, got)
	}

	res := &MultiwayResult{Classes: cls.Classes, PerClass: map[string]float64{},
		MacroF1: conf.MacroF1(), Accuracy: conf.Accuracy()}
	for _, c := range cls.Classes {
		res.PerClass[c] = conf.F1(c)
	}
	return res
}

// Render formats the per-class F1 table.
func (r *MultiwayResult) Render() string {
	var b strings.Builder
	b.WriteString("§VII-B — multi-way classification (training-set protocol, as in the paper)\n\n")
	var rows [][]string
	for _, c := range r.Classes {
		rows = append(rows, []string{c, fmt.Sprintf("%.3f", r.PerClass[c])})
	}
	b.WriteString(table([]string{"class", "F1"}, rows))
	fmt.Fprintf(&b, "\nmacro F1: %.4f   accuracy: %.4f   (paper: \"near-perfect F1-score\")\n",
		r.MacroF1, r.Accuracy)
	b.WriteString("(per-category holdout CV is impractical with one attack per category,\n")
	b.WriteString(" as the paper notes; binary detection generalization is Table III's job)\n")
	return b.String()
}
