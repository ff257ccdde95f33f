package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"

	"perspectron"
	"perspectron/internal/experiments"
)

// numVariants is how many input variants the seed selects from: the seed
// modulo numVariants picks the serve episode seeds, the training seed and
// the CV model seeds, and expected.json pins the outputs of each.
const numVariants = 8

// detectorFixture is the serve-stream checkpoint, relative to the benchmark
// directory: the detector perspectron.Train(TrainingWorkloads(),
// DefaultOptions()) produces, so serve-stream touches no training code.
const detectorFixture = "testdata/detector.json"

// scale sizes every workload. "full" is the benchmark; "tiny" keeps the same
// code paths at smoke-test size.
type scale struct {
	serveInsts         uint64 // committed instructions per served episode
	serveCap           int    // episodes per stream a run may serve (pinned)
	serveStride        int    // pinned-episode offset between input variants
	serveSetupReps     int
	serveWarmEpisodes  int // warm-up: until one stream has served this many
	serveProbeEpisodes int // episodes per stream the traced run replays
	minVerdicts        int // scored verdicts a run needs for its p99

	trainInsts uint64 // per training run
	trainRuns  int    // runs per training workload
	warmInsts  uint64 // per warm-up training run

	reproduce experiments.Config // the traced reproduction pass's corpus
	mlpEpochs int                // 0 keeps ml.NewMLP's default

	stageSumBound float64 // |traced stage sum / untraced - 1| allowed
}

var scales = map[string]scale{
	"full": {
		serveInsts: 100_000, serveCap: 1000, serveStride: 100, serveSetupReps: 5, serveWarmEpisodes: 3, serveProbeEpisodes: 6, minVerdicts: 1000,
		trainInsts: 300_000, trainRuns: 2, warmInsts: 30_000,
		reproduce:     experiments.DefaultConfig(),
		stageSumBound: 0.35,
	},
	"tiny": {
		serveInsts: 30_000, serveCap: 3, serveStride: 2, serveSetupReps: 2, serveWarmEpisodes: 1, serveProbeEpisodes: 1,
		trainInsts: 30_000, trainRuns: 1, warmInsts: 10_000,
		reproduce:     experiments.Config{Seed: 1, MaxInsts: 30_000, Runs: 1, Interval: 10_000},
		mlpEpochs:     10,
		stageSumBound: 10, // millisecond stages: the check only has to run
	},
}

// trainOpts are the timed Train's options for a variant: DefaultOptions at
// full scale with the variant's seed (variant 0 is DefaultOptions exactly).
func (s scale) trainOpts(v int) perspectron.Options {
	o := perspectron.DefaultOptions()
	o.MaxInsts, o.Runs, o.Seed = s.trainInsts, s.trainRuns, int64(1+v)
	return o
}

// trainWarm are the warm-up Train's options: a different corpus key, so the
// timed Train still collects from scratch.
func (s scale) trainWarm(v int) perspectron.Options {
	o := s.trainOpts(v)
	o.MaxInsts, o.Runs, o.Seed = s.warmInsts, 1, int64(1000+v)
	return o
}

// pinSet is one scale's pinned references, indexed by variant.
type pinSet struct {
	Detector          string     `json:"detector"`
	SamplesPerEpisode int        `json:"samples_per_episode"`
	Serve             [][]string `json:"-"` // [stream][episode], parsed from ServePins
	// ServePins holds, per stream, the space-separated pins of episodes
	// 0..(numVariants-1)·serveStride+serveCap-1 ("<digest>:<flagged count>").
	ServePins []string               `json:"serve_episodes"`
	ServeSim  []string               `json:"serve_sim_raw"`
	Train     []string               `json:"train_checksums"`
	TrainSim  []string               `json:"train_sim_raw"`
	Selected  []int                  `json:"reproduce_selected"`
	Folds     []map[string][]float64 `json:"reproduce_fold_accuracy"`
}

// loadPins reads one scale's references from the pin file.
func loadPins(path, scaleName string) (*pinSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading pinned references: %w", err)
	}
	var all map[string]*pinSet
	if err := json.Unmarshal(b, &all); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	p := all[scaleName]
	if p == nil {
		return nil, fmt.Errorf("%s has no %q references", path, scaleName)
	}
	if len(p.ServeSim) != numVariants || len(p.Train) != numVariants ||
		len(p.TrainSim) != numVariants || len(p.Folds) != numVariants {
		return nil, fmt.Errorf("%s: %q references do not cover %d variants", path, scaleName, numVariants)
	}
	for _, s := range p.ServePins {
		p.Serve = append(p.Serve, strings.Fields(s))
	}
	return p, nil
}

// parallel runs fn(0..n-1) on GOMAXPROCS goroutines and returns the first
// error.
func parallel(n int, fn func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// writePins regenerates this scale's references in the pin file from the
// code as it stands (and, at full scale, the detector fixture). Run it only
// for a change meant to alter outputs, and say so where the change is
// described.
func writePins(o opts, sz scale) error {
	p := &pinSet{
		ServeSim: make([]string, numVariants),
		Train:    make([]string, numVariants),
		TrainSim: make([]string, numVariants),
		Folds:    make([]map[string][]float64, numVariants),
	}
	fixture := filepath.Join(o.data, detectorFixture)
	if o.scale == "full" {
		det, err := perspectron.Train(perspectron.TrainingWorkloads(), sz.trainOpts(0))
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(fixture), 0o755); err != nil {
			return err
		}
		if err := det.SaveFile(fixture); err != nil {
			return err
		}
	}
	det, err := perspectron.LoadFile(fixture)
	if err != nil {
		return err
	}
	p.Detector = det.Checksum

	for v := 0; v < numVariants; v++ {
		t, err := spawnTrain(o, v)
		if err != nil {
			return err
		}
		if t.Err != "" {
			return errors.New(t.Err)
		}
		p.Train[v] = t.Checksum
	}
	if p.Train[0] != p.Detector && o.scale == "full" {
		return fmt.Errorf("fixture %s is not the variant-0 detector %s", p.Detector, p.Train[0])
	}

	err = parallel(numVariants, func(v int) error {
		var s simStats
		p.TrainSim[v] = trainSimPass(perspectron.TrainingWorkloads(), sz.trainOpts(v).CollectConfig(), &s)
		return nil
	})
	if err != nil {
		return err
	}

	streams, err := serveStreams()
	if err != nil {
		return err
	}
	// Every variant's run serves a window of one pinned episode sequence per
	// stream; replay the whole sequence in chunks across the CPUs.
	episodes := (numVariants-1)*sz.serveStride + sz.serveCap
	const chunk = 50
	pins := make([][]string, len(streams))
	lengths := make([][]int, len(streams))
	type job struct{ id, from int }
	var jobs []job
	for id := range streams {
		pins[id] = make([]string, episodes)
		lengths[id] = make([]int, episodes)
		for from := 0; from < episodes; from += chunk {
			jobs = append(jobs, job{id, from})
		}
	}
	err = parallel(len(jobs), func(i int) error {
		j := jobs[i]
		scorer, err := perspectron.NewRawScorer(det, nil)
		if err != nil {
			return err
		}
		for ep := j.from; ep < min(j.from+chunk, episodes); ep++ {
			rp, err := replayEpisode(det, streams[j.id], episodeSeed(0, j.id, ep), sz.serveInsts)
			if err != nil {
				return err
			}
			pins[j.id][ep], lengths[j.id][ep] = scoreEpisode(scorer, rp), len(rp.raws)
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.SamplesPerEpisode = lengths[0][0]
	for id := range streams {
		if slices.ContainsFunc(lengths[id], func(n int) bool { return n != p.SamplesPerEpisode }) {
			return fmt.Errorf("%s episodes differ in length", streams[id].Info().Name)
		}
		p.ServePins = append(p.ServePins, strings.Join(pins[id], " "))
	}
	for v := 0; v < numVariants; v++ {
		var s simStats
		p.ServeSim[v] = serveSimPass(streams, v, sz, det.Interval, &s)
	}

	cacheDir := filepath.Join(o.work, "pin-cache")
	if err := fillCache(cacheDir, sz.reproduce); err != nil {
		return err
	}
	var mu sync.Mutex
	err = parallel(numVariants, func(v int) error {
		out, err := reproducePass(cacheDir, sz.reproduce, v, sz)
		if err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		p.Selected = out.selected
		p.Folds[v] = out.folds
		return nil
	})
	if err != nil {
		return err
	}

	all := map[string]*pinSet{}
	if b, err := os.ReadFile(o.expected); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("decoding %s: %w", o.expected, err)
		}
	}
	all[o.scale] = p
	b, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.expected, append(b, '\n'), 0o644)
}
