// Command perfbench is the repository benchmark: it drives the PerSpectron
// system end to end through its public functions, checks every output
// against pinned references (expected.json), and prints one JSON result line.
//
//	go run . --workload serve-stream --seed 1 --seconds 25 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	serve-stream  serve.New + Run, two closed-loop simulated streams
//	train-cold    perspectron.Train with an empty corpus memo
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with benchmark-side timers around each layer's public calls and prints the
// per-layer metrics. The train-cold trace also times the paper-reproduction
// pass (corpus disk-cache load, selection, Table III/IV cross-validation). The last stdout line is the result object; the line
// before it carries the host metadata. A failed output check prints
// "correct": false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// opts are the parsed command-line settings shared by every workload.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    string // "full" (the benchmark) or "tiny" (smoke tests)
	data     string // directory holding expected.json and testdata/
	work     string // scratch directory for verdict logs and caches
	expected string // pinned references; default <data>/expected.json
}

// variant maps the workload seed onto one of the pinned input variants.
func (o opts) variant() int {
	v := int(o.seed % numVariants)
	if v < 0 {
		v += numVariants
	}
	return v
}

// window is the measurement window.
func (o opts) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == childTrainArg {
		os.Exit(trainChild(os.Args[2:]))
	}
	os.Exit(run())
}

func run() int {
	var o opts
	var traceN int
	var pin bool
	flag.StringVar(&o.workload, "workload", "", "serve-stream or train-cold")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 25, "measurement window in seconds")
	flag.IntVar(&traceN, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "input size: full or tiny")
	flag.StringVar(&o.data, "data", "perfbench", "benchmark directory (expected.json, testdata/)")
	flag.StringVar(&o.work, "workdir", "", "scratch directory (default: a fresh directory under .bench_build)")
	flag.StringVar(&o.expected, "expected", "", "pinned references (default <data>/expected.json)")
	flag.BoolVar(&pin, "pin", false, "regenerate the pinned references instead of benchmarking")
	flag.Parse()
	o.trace = traceN == 1
	if o.expected == "" {
		o.expected = filepath.Join(o.data, "expected.json")
	}
	sz, ok := scales[o.scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown scale %q\n", o.scale)
		return 2
	}
	if o.seconds <= 0 || (traceN != 0 && traceN != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	work, cleanup, err := workDir(o.work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer cleanup()
	o.work = work

	if pin {
		if err := writePins(o, sz); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pinning: %v\n", err)
			return 1
		}
		return 0
	}
	pins, err := loadPins(o.expected, o.scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	var res *result
	switch o.workload {
	case "serve-stream":
		res, err = serveStream(o, sz, pins)
	case "train-cold":
		res, err = trainCold(o, sz, pins)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	printHost(o)
	return res.print(o.trace)
}

// workDir returns the scratch directory to use and a function removing it
// again. An explicit directory is created if needed and left in place.
func workDir(dir string) (string, func(), error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", nil, fmt.Errorf("creating work dir: %w", err)
		}
		return dir, func() {}, nil
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", nil, fmt.Errorf("creating .bench_build: %w", err)
	}
	d, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return "", nil, fmt.Errorf("creating work dir: %w", err)
	}
	return d, func() { os.RemoveAll(d) }, nil
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's verdict on one run. Failures are operations
// the system attempted and did not complete (shed samples, dropped runs,
// cross-validations without a result); problems lists output checks that
// did not hold, which fail the run instead.
type result struct {
	attempted int
	failed    int
	problems  []string
	e2e       map[string]float64
	layer     map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// print writes the result line and returns the exit code: 0 when every
// output check held, 1 otherwise.
func (r *result) print(traced bool) int {
	defs, values := endToEnd, r.e2e
	if traced {
		defs, values = perLayer, r.layer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			r.problems = append(r.problems, "metric not measured: "+d.name)
			out.Correct = false
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// setShares fills the failure-derived end-to-end metric.
func (r *result) setShares() {
	if r.attempted > 0 {
		r.e2e["completed_share"] = 1 - float64(r.failed)/float64(r.attempted)
	}
}

// printHost prints the host metadata line recorded next to every result.
func printHost(o opts) {
	host := map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
		"workload":   o.workload,
		"seed":       o.seed,
		"variant":    o.variant(),
		"seconds":    o.seconds,
		"scale":      o.scale,
		"trace":      o.trace,
	}
	b, _ := json.Marshal(map[string]any{"host": host})
	fmt.Println(string(b))
}
