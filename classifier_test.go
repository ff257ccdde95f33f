package perspectron

import (
	"bytes"
	"testing"

	"perspectron/internal/corpus"
	"perspectron/internal/encoding"
	"perspectron/internal/perceptron"
	"perspectron/internal/sim"
	"perspectron/internal/workload"
)

var cachedClassifier *Classifier

// sharedClassifierOptions are the options sharedClassifier trains with.
func sharedClassifierOptions() Options {
	opts := DefaultOptions()
	opts.MaxInsts = 150_000
	opts.Runs = 1
	return opts
}

func sharedClassifier(t *testing.T) *Classifier {
	t.Helper()
	if cachedClassifier == nil {
		c, err := TrainClassifier(TrainingWorkloads(), sharedClassifierOptions())
		if err != nil {
			t.Fatal(err)
		}
		cachedClassifier = c
	}
	return cachedClassifier
}

func TestClassifierClasses(t *testing.T) {
	c := sharedClassifier(t)
	if len(c.Classes) < 10 {
		t.Fatalf("classes = %v", c.Classes)
	}
	hasBenign := false
	for _, cl := range c.Classes {
		if cl == "benign" {
			hasBenign = true
		}
	}
	if !hasBenign {
		t.Fatalf("no benign class")
	}
}

// TestClassifierTrainsOnServedBits: every training row of the classifier is
// the bit set it serves, BitsPacked under its own global-only encoding over
// the slot map its scorer resolves on a machine. Refitting the bank on
// those rows must reproduce the trained weights bit for bit.
func TestClassifierTrainsOnServedBits(t *testing.T) {
	c := sharedClassifier(t)
	opts := sharedClassifierOptions()
	ds := corpus.Default().Dataset(TrainingWorkloads(), opts.CollectConfig())
	idx, _ := resolveNames(c.FeatureNames, sim.NewMachine(sim.DefaultConfig()))
	enc := c.encoding()
	X := make([]encoding.BitVec, len(ds.Samples))
	labels := make([]string, len(ds.Samples))
	for i := range ds.Samples {
		s := &ds.Samples[i]
		X[i], _ = enc.BitsPacked(s.Raw, idx, s.Index, nil)
		labels[i] = s.Category
		if s.Label == workload.Benign {
			labels[i] = "benign"
		}
	}
	pcfg := perceptron.DefaultConfig()
	pcfg.Seed = opts.Seed
	mc := perceptron.NewMultiClass(c.Classes, len(c.FeatureNames), pcfg)
	mc.FitPacked(X, labels)
	for ci, det := range mc.Detectors {
		if det.Bias != c.Biases[ci] {
			t.Fatalf("class %s: bias %v, refit on served bits %v", c.Classes[ci], c.Biases[ci], det.Bias)
		}
		for j, w := range det.W {
			if w != c.Weights[ci][j] {
				t.Fatalf("class %s feature %s: weight %v, refit on served bits %v",
					c.Classes[ci], c.FeatureNames[j], c.Weights[ci][j], w)
			}
		}
	}
}

func TestClassifierNamesAttacks(t *testing.T) {
	c := sharedClassifier(t)
	cases := map[string]string{
		"flush+flush":  "flush_flush",
		"flush+reload": "flush_reload",
		"prime+probe":  "prime_probe",
		"meltdown":     "meltdown",
	}
	for name, wantClass := range cases {
		res, err := c.Classify(AttackByName(name, "fr"), 80_000, 31)
		if err != nil {
			t.Fatal(err)
		}
		if res.Class != wantClass {
			t.Errorf("%s classified as %q (votes %v), want %q",
				name, res.Class, res.Votes, wantClass)
		}
	}
}

func TestClassifierNamesBenign(t *testing.T) {
	c := sharedClassifier(t)
	res, err := c.Classify(BenignWorkloads()[0], 60_000, 32)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != "benign" {
		t.Fatalf("bzip2 classified as %q (votes %v)", res.Class, res.Votes)
	}
	if res.Confidence < 0.8 {
		t.Fatalf("benign confidence %.2f", res.Confidence)
	}
}

func TestClassifierSaveLoad(t *testing.T) {
	c := sharedClassifier(t)
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Classify(AttackByName("flush+flush", ""), 60_000, 33)
	if err != nil {
		t.Fatal(err)
	}
	if res.Class != "flush_flush" {
		t.Fatalf("loaded classifier names flush+flush as %q", res.Class)
	}
}

func TestLoadClassifierErrors(t *testing.T) {
	if _, err := LoadClassifier(bytes.NewBufferString("{")); err == nil {
		t.Fatalf("truncated JSON accepted")
	}
	if _, err := LoadClassifier(bytes.NewBufferString(`{"classes":["a"],"weights":[]}`)); err == nil {
		t.Fatalf("corrupt classifier accepted")
	}
}

func TestTrainClassifierErrors(t *testing.T) {
	if _, err := TrainClassifier(nil, DefaultOptions()); err == nil {
		t.Fatalf("empty corpus accepted")
	}
}

// TestClassifierMajorityBreaksTiesInClassOrder: a tied vote goes to the
// class listed first in Classes, whatever order the vote map ranges in.
func TestClassifierMajorityBreaksTiesInClassOrder(t *testing.T) {
	c := &Classifier{Classes: []string{"benign", "flush_reload", "spectre_v1", "spectre_v2"}}
	votes := map[string]int{"spectre_v2": 3, "flush_reload": 3, "spectre_v1": 3, "benign": 1}
	for i := 0; i < 100; i++ {
		if got := c.majority(votes); got != "flush_reload" {
			t.Fatalf("tied majority = %q, want flush_reload (first tied class)", got)
		}
	}
	votes["spectre_v2"] = 4
	if got := c.majority(votes); got != "spectre_v2" {
		t.Fatalf("majority = %q, want spectre_v2", got)
	}
	if got := c.majority(map[string]int{}); got != "" {
		t.Fatalf("majority of no votes = %q, want empty", got)
	}
}
