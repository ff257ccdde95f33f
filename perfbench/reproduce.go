package main

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"perspectron/internal/corpus"
	"perspectron/internal/eval"
	"perspectron/internal/experiments"
	"perspectron/internal/features"
	"perspectron/internal/ml"
	"perspectron/internal/perceptron"
	"perspectron/internal/trace"
)

// cvModel is one cross-validated model of the reproduction: the Table III
// perceptron and the Table IV baselines on the PerSpectron features.
type cvModel struct {
	name   string // pin key
	metric string // per-layer timing metric
	binary bool
	thresh float64
	mk     func(n, variant int, sz scale) eval.ScoredClassifier
}

// cvModels are the reproduction's models. The input variant seeds only the
// MLP's initial weights: its epoch count is fixed, so every variant costs
// the same, whereas a reseeded perceptron converges after a seed-dependent
// number of epochs.
var cvModels = []cvModel{
	{"perceptron", "eval.cv_perceptron_ms", true, 0.25, func(n, _ int, _ scale) eval.ScoredClassifier {
		return perceptron.New(n, perceptron.DefaultConfig())
	}},
	{"cart", "ml.cart_cv_ms", false, 0, func(int, int, scale) eval.ScoredClassifier { return ml.NewCART() }},
	{"logreg", "ml.logreg_cv_ms", false, 0, func(int, int, scale) eval.ScoredClassifier { return ml.NewLogReg() }},
	{"knn", "ml.knn_cv_ms", false, 0, func(int, int, scale) eval.ScoredClassifier { return ml.NewKNN() }},
	{"mlp", "ml.mlp_cv_ms", false, 0, func(_, v int, sz scale) eval.ScoredClassifier {
		m := ml.NewMLP()
		m.Seed = int64(1 + v)
		if sz.mlpEpochs > 0 {
			m.Epochs = sz.mlpEpochs
		}
		return m
	}},
}

// crossValidate runs one model's Table III-fold cross-validation.
func crossValidate(p *corpus.Prepared, m cvModel, v int, sz scale) []float64 {
	n := len(p.Sel.Indices)
	res := eval.CrossValidate(p.DS, func() eval.ScoredClassifier { return m.mk(n, v, sz) }, eval.CVConfig{
		Folds:      eval.TableIIIFolds(),
		FeatureIdx: p.Sel.Indices,
		Binary:     m.binary,
		Threshold:  m.thresh,
	})
	return res.Accuracies()
}

// passOutcome is one reproduction pass's outputs.
type passOutcome struct {
	selected []int
	folds    map[string][]float64
	stats    corpus.Stats
}

// reproducePass loads the corpus through a fresh store reading the disk
// cache, prepares it (encoder + selection), and cross-validates every model.
func reproducePass(cacheDir string, cfg experiments.Config, v int, sz scale) (*passOutcome, error) {
	store := corpus.NewStore()
	if err := store.SetCacheDir(cacheDir); err != nil {
		return nil, err
	}
	p := store.Prepared(experiments.CoreCorpus(), cfg.CollectConfig(), features.DefaultSelectConfig())
	out := &passOutcome{selected: p.Sel.Indices, folds: map[string][]float64{}, stats: store.Stats()}
	for _, m := range cvModels {
		out.folds[m.name] = crossValidate(p, m, v, sz)
	}
	return out, nil
}

// checkPass applies the pins and the zero-simulation invariant to one pass.
func checkPass(r *result, p *passOutcome, pins *pinSet, v int) {
	r.check(p.stats.Collections == 0 && p.stats.DiskHits == 1,
		"reproduce pass corpus traffic: %d collections, %d disk hits (want 0/1)", p.stats.Collections, p.stats.DiskHits)
	r.check(slices.Equal(p.selected, pins.Selected), "selected feature indices differ from the pinned %d", len(pins.Selected))
	for _, m := range cvModels {
		r.attempted++
		got := p.folds[m.name]
		if len(got) == 0 || slices.ContainsFunc(got, math.IsNaN) {
			r.failed++
			continue
		}
		r.check(slices.Equal(got, pins.Folds[v][m.name]), "%s per-fold accuracy %v, pinned %v",
			m.name, got, pins.Folds[v][m.name])
	}
}

// fillCache collects the core corpus into a fresh disk cache under dir.
func fillCache(dir string, cfg experiments.Config) error {
	store := corpus.NewStore()
	if err := store.SetCacheDir(dir); err != nil {
		return err
	}
	store.Dataset(experiments.CoreCorpus(), cfg.CollectConfig())
	st := store.Stats()
	if st.Collections != 1 || st.DiskWrittenBytes == 0 {
		return fmt.Errorf("cache fill: %d collections, %d bytes written", st.Collections, st.DiskWrittenBytes)
	}
	return nil
}

// traceReproduction is the paper-reproduction half of the train-cold trace:
// it fills a disk cache with the default-config core corpus, runs one
// untraced reproduction pass as the stage-sum reference, then times the
// same pass stage by stage through each layer's public calls: disk-cache
// load, encode, select, and each model's cross-validation. Both passes must
// make zero simulator collections and match the pins.
func traceReproduction(r *result, o opts, sz scale, v int, pins *pinSet) error {
	cfg := sz.reproduce
	cacheDir := filepath.Join(o.work, "corpus-cache")
	if err := fillCache(cacheDir, cfg); err != nil {
		return err
	}
	start := time.Now()
	ref, err := reproducePass(cacheDir, cfg, v, sz)
	if err != nil {
		return err
	}
	untraced := time.Since(start).Seconds()
	checkPass(r, ref, pins, v)

	start = time.Now()
	store := corpus.NewStore()
	if err := store.SetCacheDir(cacheDir); err != nil {
		return err
	}
	ds := store.Dataset(experiments.CoreCorpus(), cfg.CollectConfig())
	loaded := time.Now()
	enc := trace.NewEncoder(ds)
	X, y := enc.Matrix(ds)
	sel := features.Select(X, y, ds.Components, features.DefaultSelectConfig())
	r.layer["corpus.load_ms"] = ms(loaded.Sub(start))
	p := &corpus.Prepared{DS: ds, Enc: enc, Sel: sel}
	out := &passOutcome{selected: sel.Indices, folds: map[string][]float64{}, stats: store.Stats()}
	r.layer["corpus.disk_hits"] = float64(out.stats.DiskHits)
	for _, m := range cvModels {
		t := time.Now()
		out.folds[m.name] = crossValidate(p, m, v, sz)
		r.layer[m.metric] = ms(time.Since(t))
	}
	stageSum(r, "reproduce", time.Since(start).Seconds(), untraced, sz)
	checkPass(r, out, pins, v)
	return nil
}
