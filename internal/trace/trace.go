// Package trace collects labelled multi-dimensional time-series traces from
// the simulator — the paper's gem5 statistics dumps at 10K/50K/100K
// instruction granularity — and prepares them for learning: the per-
// (counter, execution-point) maximum matrix M, scaling to [0,1], and the
// k-sparse binarization PerSpectron consumes.
package trace

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"perspectron/internal/encoding"
	"perspectron/internal/isa"
	"perspectron/internal/sim"
	"perspectron/internal/stats"
	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
)

// Sample is one sampling interval of one program run.
type Sample struct {
	Program  string
	Category string
	Channel  string
	Label    workload.Label
	Run      int // run instance (seed index)
	Index    int // execution point: sampling interval number within the run
	Raw      []float64
}

// Dataset is a labelled collection of samples over a fixed feature space.
type Dataset struct {
	FeatureNames []string
	Components   []stats.Component
	Interval     uint64
	Samples      []Sample

	// Dropped lists runs Collect abandoned ("program#run: reason"): runs
	// whose workload panicked, or runs cancelled before producing a single
	// sample. Training proceeds on the surviving runs.
	Dropped []string
}

// NumFeatures returns the feature-space width.
func (d *Dataset) NumFeatures() int { return len(d.FeatureNames) }

// ClassCounts returns (#benign, #malicious).
func (d *Dataset) ClassCounts() (benign, malicious int) {
	for _, s := range d.Samples {
		if s.Label == workload.Malicious {
			malicious++
		} else {
			benign++
		}
	}
	return benign, malicious
}

// Categories returns the distinct program categories present.
func (d *Dataset) Categories() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range d.Samples {
		if !seen[s.Category] {
			seen[s.Category] = true
			out = append(out, s.Category)
		}
	}
	return out
}

// Filter returns a shallow dataset containing only samples keep selects.
func (d *Dataset) Filter(keep func(*Sample) bool) *Dataset {
	out := &Dataset{FeatureNames: d.FeatureNames, Components: d.Components,
		Interval: d.Interval, Dropped: d.Dropped}
	for i := range d.Samples {
		if keep(&d.Samples[i]) {
			out.Samples = append(out.Samples, d.Samples[i])
		}
	}
	return out
}

// CollectConfig controls trace collection.
type CollectConfig struct {
	MaxInsts uint64 // committed-path ops per program run
	Interval uint64 // sampling granularity (10K/50K/100K)
	Seed     int64
	Runs     int // independent runs (seeds) per program
}

// Collect runs every program on a fresh machine per run and gathers the
// sampled counter deltas. Collection is deterministic for a fixed config
// (per-run seeds are derived from cfg.Seed) and parallel across runs.
func Collect(progs []workload.Program, cfg CollectConfig) *Dataset {
	return CollectCtx(context.Background(), progs, cfg)
}

// CollectCtx is Collect under a context: cancelling ctx stops scheduling new
// runs and cuts off in-flight ones at their next instruction fetch. Each run
// is additionally shielded — a panicking workload is dropped (recorded in
// Dataset.Dropped) instead of killing the collection.
func CollectCtx(ctx context.Context, progs []workload.Program, cfg CollectConfig) *Dataset {
	reg := telemetry.Get()
	ctx, span := reg.StartSpan(ctx, "collect")
	defer span.End()

	probe := sim.NewMachine(sim.DefaultConfig())
	ds := &Dataset{
		FeatureNames: probe.Reg.Names(),
		Components:   probe.Reg.Components(),
		Interval:     cfg.Interval,
	}

	type job struct {
		prog workload.Program
		run  int
	}
	var jobs []job
	for _, p := range progs {
		for r := 0; r < cfg.Runs; r++ {
			jobs = append(jobs, job{p, r})
		}
	}

	results := make([][]Sample, len(jobs))
	var wg sync.WaitGroup
	var mu sync.Mutex // guards ds.Dropped
	drop := func(j job, reason string) {
		mu.Lock()
		ds.Dropped = append(ds.Dropped, fmt.Sprintf("%s#%d: %s", j.prog.Info().Name, j.run, reason))
		mu.Unlock()
	}
	ch := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range ch {
				j := jobs[ji]
				if ctx.Err() != nil {
					drop(j, "cancelled before start")
					continue
				}
				var start time.Time
				if reg != nil {
					start = time.Now()
				}
				out, err := collectOne(ctx, j.prog, j.run, cfg.Seed*1_000_003+int64(ji)*7919, cfg)
				if reg != nil {
					name := telemetry.Name("perspectron_collect_run_seconds",
						"workload", j.prog.Info().Name)
					reg.Histogram(name, telemetry.DurationBuckets).
						Observe(time.Since(start).Seconds())
				}
				if err != nil {
					drop(j, err.Error())
					continue
				}
				if len(out) == 0 && ctx.Err() != nil {
					drop(j, "cancelled with no samples")
					continue
				}
				results[ji] = out
			}
		}()
	}
	for ji := range jobs {
		ch <- ji
	}
	close(ch)
	wg.Wait()

	for _, r := range results {
		ds.Samples = append(ds.Samples, r...)
	}
	if reg != nil {
		reg.Counter("perspectron_collect_runs_total").Add(uint64(len(jobs)))
		reg.Counter("perspectron_collect_runs_dropped_total").Add(uint64(len(ds.Dropped)))
		reg.Counter("perspectron_collect_samples_total").Add(uint64(len(ds.Samples)))
	}
	return ds
}

// collectOne executes a single program run by draining its sample stream —
// the same per-sample path the online Monitor scores — converting workload
// panics into errors and stopping early when ctx ends.
func collectOne(ctx context.Context, prog workload.Program, run int, seed int64, cfg CollectConfig) ([]Sample, error) {
	m := sim.NewMachine(sim.DefaultConfig())
	src := NewRunSource(ctx, m, prog, run, seed, cfg)
	out := Drain(src)
	if err := src.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// boundedStream ends the wrapped op stream when its context is cancelled,
// checking every 1024 ops to keep the hot path cheap.
type boundedStream struct {
	ctx   context.Context
	inner isa.Stream
	n     uint32
	done  bool
}

// Next implements isa.Stream.
func (s *boundedStream) Next() *isa.Op {
	if s.done {
		return nil
	}
	s.n++
	if s.n&1023 == 0 && s.ctx.Err() != nil {
		s.done = true
		return nil
	}
	return s.inner.Next()
}

// Encoder builds the training-side views of a dataset under the maximum
// matrix M: scaled, binarized and bit-packed feature rows.
type Encoder struct {
	M *encoding.Encoding
}

// NewEncoder builds M from the training dataset: per-run sample sequences
// update the per-execution-point maxima.
func NewEncoder(train *Dataset) *Encoder {
	m := encoding.New(train.NumFeatures())
	// Group samples into per-run sequences ordered by index.
	type key struct {
		prog string
		run  int
	}
	byRun := map[key][][]float64{}
	for i := range train.Samples {
		s := &train.Samples[i]
		k := key{s.Program, s.Run}
		seq := byRun[k]
		for len(seq) <= s.Index {
			seq = append(seq, nil)
		}
		seq[s.Index] = s.Raw
		byRun[k] = seq
	}
	for _, seq := range byRun {
		compact := make([][]float64, 0, len(seq))
		for _, v := range seq {
			if v != nil {
				compact = append(compact, v)
			}
		}
		m.Observe(compact)
	}
	return &Encoder{M: m}
}

// Matrix encodes the whole dataset: X is scaled features (rows in dataset
// order), y is +1 for malicious and -1 for benign.
func (e *Encoder) Matrix(d *Dataset) (X [][]float64, y []float64) {
	return rows(d, func(s *Sample) []float64 { return e.M.Scale(s.Raw, s.Index, nil) })
}

// BinaryMatrix encodes the dataset as k-sparse binary vectors.
func (e *Encoder) BinaryMatrix(d *Dataset) (X [][]float64, y []float64) {
	return rows(d, func(s *Sample) []float64 { return e.M.Binarize(s.Raw, s.Index, nil) })
}

// PackedBinaryMatrix encodes the dataset as bit-packed k-sparse binary
// vectors through BitsPacked, the serving kernel, with every feature in its
// own slot: for finite counter values, row i has bit j set exactly where
// BinaryMatrix would put a 1.
// It feeds the popcount scoring/training kernels without materializing the
// dense float matrix.
func (e *Encoder) PackedBinaryMatrix(d *Dataset) (X []encoding.BitVec, y []float64) {
	slots := encoding.Identity(d.NumFeatures())
	return rows(d, func(s *Sample) encoding.BitVec {
		bits, _ := e.M.BitsPacked(s.Raw, slots, s.Index, nil)
		return bits
	})
}

// rows encodes every sample of d with row, in dataset order, alongside its
// ±1 label.
func rows[T any](d *Dataset, row func(*Sample) T) (X []T, y []float64) {
	X = make([]T, len(d.Samples))
	y = make([]float64, len(d.Samples))
	for i := range d.Samples {
		X[i] = row(&d.Samples[i])
		y[i] = LabelValue(d.Samples[i].Label)
	}
	return X, y
}

// LabelValue maps a label onto the perceptron's ±1 target.
func LabelValue(l workload.Label) float64 {
	if l == workload.Malicious {
		return 1
	}
	return -1
}

// Project returns copies of rows restricted to the given feature indices.
func Project(X [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		p := make([]float64, len(idx))
		for j, f := range idx {
			p[j] = row[f]
		}
		out[i] = p
	}
	return out
}

// ProjectPacked is Project over bit-packed rows: output bit j mirrors input
// bit idx[j].
func ProjectPacked(X []encoding.BitVec, idx []int) []encoding.BitVec {
	out := make([]encoding.BitVec, len(X))
	for i, row := range X {
		p := encoding.NewBitVec(len(idx))
		for j, f := range idx {
			if row.Get(f) {
				p.Set(j)
			}
		}
		out[i] = p
	}
	return out
}

// Summary returns a one-line description of the dataset, including the
// count of dropped runs when there are any.
func (d *Dataset) Summary() string {
	b, m := d.ClassCounts()
	out := fmt.Sprintf("%d samples (%d benign, %d malicious), %d features, interval %d",
		len(d.Samples), b, m, d.NumFeatures(), d.Interval)
	if len(d.Dropped) > 0 {
		out += fmt.Sprintf(" (%d runs dropped)", len(d.Dropped))
	}
	return out
}
