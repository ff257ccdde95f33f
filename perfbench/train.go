package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"syscall"
	"time"

	"perspectron"
	"perspectron/internal/corpus"
	"perspectron/internal/features"
	"perspectron/internal/perceptron"
	"perspectron/internal/trace"
)

// childTrainArg re-executes the benchmark binary as a fresh process that
// trains once: the process-wide corpus memo cannot be emptied from outside,
// so every timed Train gets a process of its own.
const childTrainArg = "__train-child"

// trainOutcome is what a training child reports back.
type trainOutcome struct {
	TrainS   float64      `json:"train_s"`
	Checksum string       `json:"checksum"`
	Samples  int          `json:"samples"`
	Runs     int          `json:"runs"`
	Stats    corpus.Stats `json:"stats"`    // corpus.Default() traffic of the timed Train
	Memoized bool         `json:"memoized"` // the corpus was in the memo before the timed Train
	Err      string       `json:"error,omitempty"`

	wall  time.Duration // child lifetime seen by the parent
	rssMB float64       // child's peak resident set
}

// trainChild is the child's main: a small warm-up Train (set-up), then the
// timed Train with the variant's options, reported as one JSON line.
func trainChild(args []string) int {
	fs := flag.NewFlagSet(childTrainArg, flag.ContinueOnError)
	scaleName := fs.String("scale", "full", "")
	variant := fs.Int("variant", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz := scales[*scaleName]
	out := trainOutcome{}
	progs := perspectron.TrainingWorkloads()
	if _, err := perspectron.Train(progs, sz.trainWarm(*variant)); err != nil {
		out.Err = "warm-up: " + err.Error()
	} else {
		opt := sz.trainOpts(*variant)
		out.Memoized = slices.Contains(corpus.Default().Keys(), corpus.DatasetKey(progs, opt.CollectConfig()))
		before := corpus.Default().Stats()
		start := time.Now()
		det, err := perspectron.Train(progs, opt)
		out.TrainS = time.Since(start).Seconds()
		out.Stats = corpus.Default().Stats().Sub(before)
		out.Runs = len(progs) * opt.Runs
		if err != nil {
			out.Err = err.Error()
		} else if err := det.Save(io.Discard); err != nil { // fills det.Checksum
			out.Err = err.Error()
		} else {
			out.Checksum = det.Checksum
			out.Samples = det.Lineage.TrainedSamples
		}
	}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
	return 0
}

// spawnTrain runs one training child to completion.
func spawnTrain(o opts, v int) (*trainOutcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, childTrainArg, "-scale", o.scale, "-variant", fmt.Sprint(v))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("training child: %w: %s", err, stderr.String())
	}
	out := &trainOutcome{wall: time.Since(start)}
	if err := json.Unmarshal(bytes.TrimSpace(stdout.Bytes()), out); err != nil {
		return nil, fmt.Errorf("training child output %q: %w", stdout.String(), err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return out, nil
}

// checkTrain applies the output pin and the corpus accounting invariants to
// one timed Train.
func checkTrain(r *result, t *trainOutcome, pins *pinSet, v int) {
	r.attempted += t.Runs
	r.failed += t.Stats.RunsDropped
	if t.Err != "" {
		r.failed += t.Runs - t.Stats.RunsDropped
		r.check(false, "Train failed: %s", t.Err)
		return
	}
	r.check(t.Checksum == pins.Train[v], "detector checksum %s, pinned %s", t.Checksum, pins.Train[v])
	// A cold Train collects its corpus once and then reads it back from the
	// memo once more (Train looks the dataset up before preparing it), so
	// its own traffic is exactly 1 collection and 1 memory hit.
	s := t.Stats
	r.check(!t.Memoized && s.Collections == 1 && s.MemoryHits == 1 && s.DiskHits == 0 && s.RunsDropped == 0,
		"timed Train corpus traffic: memoized before %v, %d collections, %d memory hits, %d disk hits, %d runs dropped (want false/1/1/0/0)",
		t.Memoized, s.Collections, s.MemoryHits, s.DiskHits, s.RunsDropped)
}

// trainCold is the train-cold workload: fresh training processes, one after
// another, until the window closes. Set-up is everything a child does besides
// the timed Train: process start, a small warm-up Train and the checksum.
func trainCold(o opts, sz scale, pins *pinSet) (*result, error) {
	r := newResult()
	zeroLayers(r)
	v := o.variant()
	var setups, trains, rates []float64
	rss := 0.0
	start := time.Now()
	for len(trains) == 0 || time.Since(start) < o.window() {
		t, err := spawnTrain(o, v)
		if err != nil {
			return nil, err
		}
		checkTrain(r, t, pins, v)
		setups = append(setups, (t.wall - seconds(t.TrainS)).Seconds())
		trains = append(trains, t.TrainS)
		if t.TrainS > 0 {
			rates = append(rates, float64(t.Samples)/t.TrainS)
		}
		rss = max(rss, t.rssMB)
		if o.trace {
			break // one untraced Train is the stage-sum reference
		}
	}
	r.e2e["setup_s"] = median(setups)
	r.e2e["latency_p50_ms"] = median(trains) * 1000
	r.e2e["latency_p99_ms"] = maxOf(trains) * 1000
	r.e2e["samples_per_s"] = median(rates)
	r.e2e["peak_rss_mb"] = max(rss, peakRSSMB())
	r.setShares()
	if o.trace {
		before := memSnapshot()
		traceTrain(r, sz, v, pins, trains[0])
		if err := traceReproduction(r, o, sz, v, pins); err != nil {
			return nil, err
		}
		memSince(before).record(r)
	}
	return r, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// traceTrain replays Train's stages through each layer's public calls on a
// private corpus store (collect, encode, select, fit), then simulates every
// training run serially on one goroutine for the simulator's single-thread
// numbers. The serial runs must reproduce the collected corpus bit for bit.
func traceTrain(r *result, sz scale, v int, pins *pinSet, untraced float64) {
	progs := perspectron.TrainingWorkloads()
	opt := sz.trainOpts(v)
	cc := opt.CollectConfig()

	store := corpus.NewStore()
	t0 := time.Now()
	ds := store.Dataset(progs, cc)
	t1 := time.Now()
	enc := trace.NewEncoder(ds)
	X, y := enc.Matrix(ds)
	t2 := time.Now()
	selCfg := features.DefaultSelectConfig()
	selCfg.MaxFeatures = opt.MaxFeatures
	sel := features.Select(X, y, ds.Components, selCfg)
	t3 := time.Now()
	Xb, yb := enc.PackedBinaryMatrix(ds)
	Xp := trace.ProjectPacked(Xb, sel.Indices)
	t4 := time.Now()
	pcfg := perceptron.DefaultConfig()
	pcfg.Threshold = opt.Threshold
	pcfg.Seed = opt.Seed
	perceptron.NewTrainer(perceptron.New(len(sel.Indices), pcfg)).FitPacked(Xp, yb, 0)
	t5 := time.Now()

	st := store.Stats()
	r.layer["corpus.collections"] = float64(st.Collections)
	r.layer["trace.collect_s"] = t1.Sub(t0).Seconds()
	r.layer["trace.encode_ms"] = ms(t2.Sub(t1) + t4.Sub(t3))
	r.layer["features.select_ms"] = ms(t3.Sub(t2))
	r.layer["perceptron.fit_ms"] = ms(t5.Sub(t4))
	r.check(st.Collections == 1 && st.DiskHits == 0 && st.RunsDropped == 0,
		"traced collection: %d collections, %d disk hits, %d runs dropped", st.Collections, st.DiskHits, st.RunsDropped)
	stageSum(r, "train", t5.Sub(t0).Seconds(), untraced, sz)

	collected := sha256.New()
	for i := range ds.Samples {
		hashRaw(collected, ds.Samples[i].Raw)
	}
	var s simStats
	serial := trainSimPass(progs, cc, &s)
	s.record(r)
	r.layer["trace.collect_efficiency"] = s.run.Seconds() / (t1.Sub(t0).Seconds() * float64(runtime.GOMAXPROCS(0)))
	r.check(serial == pins.TrainSim[v], "serial simulator raw-stream digest %s, pinned %s", serial, pins.TrainSim[v])
	r.check(digest(collected) == serial, "parallel collection differs from the serial simulator runs")
}

// stageSum checks that the traced stage times of one operation (a Train or
// a reproduction pass) account for its untraced time within the scale's
// bound, and reports the ratio and the overhead.
func stageSum(r *result, op string, traced, untraced float64, sz scale) {
	ratio := traced / untraced
	r.layer["bench."+op+"_stage_sum_ratio"] = ratio
	r.layer["bench."+op+"_tracing_overhead_s"] = traced - untraced
	r.check(ratio >= 1-sz.stageSumBound && ratio <= 1+sz.stageSumBound,
		"%s: traced stages sum to %.3fs, untraced %.3fs: ratio %.3f outside 1±%.2f",
		op, traced, untraced, ratio, sz.stageSumBound)
}
