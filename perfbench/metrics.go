package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json (the smoke test compares them).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, reported by every workload
// with --trace 0. "Latency" is the wait for one result of the workload's
// operation: a verdict (serve-stream) or a Train call (train-cold).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"completed_share", "ratio"},
	{"samples_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// perLayer is what --trace 1 reports on every workload. A layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"sim.insts_per_s", "1/s"},
	{"sim.new_machine_ms", "ms"},
	{"sim.alloc_kb_per_kinst", "KB/kinst"},
	{"trace.next_ms_per_sample", "ms"},
	{"trace.collect_s", "s"},
	{"trace.collect_efficiency", "ratio"},
	{"trace.encode_ms", "ms"},
	{"corpus.load_ms", "ms"},
	{"corpus.collections", "count"},
	{"corpus.disk_hits", "count"},
	{"features.select_ms", "ms"},
	{"perceptron.fit_ms", "ms"},
	{"perspectron.score_ns", "ns"},
	{"perspectron.attribution_us", "us"},
	{"eval.cv_perceptron_ms", "ms"},
	{"ml.cart_cv_ms", "ms"},
	{"ml.logreg_cv_ms", "ms"},
	{"ml.knn_cv_ms", "ms"},
	{"ml.mlp_cv_ms", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.queue_ms_p99", "ms"},
	{"serve.batch_ms_p50", "ms"},
	{"serve.score_ms_p50", "ms"},
	{"serve.log_ms_p50", "ms"},
	{"serve.producer_efficiency", "ratio"},
	{"runtime.gc_cycles", "count"},
	{"runtime.alloc_mb", "MB"},
	{"bench.train_stage_sum_ratio", "ratio"},
	{"bench.train_tracing_overhead_s", "s"},
	{"bench.reproduce_stage_sum_ratio", "ratio"},
	{"bench.reproduce_tracing_overhead_s", "s"},
}

// zeroLayers pre-fills every per-layer metric with 0, the "not exercised"
// reading, before a workload overwrites the layers it drives.
func zeroLayers(r *result) {
	for _, d := range perLayer {
		r.layer[d.name] = 0
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memDelta measures Go runtime allocation and GC work over a span.
type memDelta struct{ gc, bytes uint64 }

func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnapshot()
	return memDelta{gc: uint64(after.NumGC - before.NumGC), bytes: after.TotalAlloc - before.TotalAlloc}
}

func (d memDelta) record(r *result) {
	r.layer["runtime.gc_cycles"] = float64(d.gc)
	r.layer["runtime.alloc_mb"] = float64(d.bytes) / (1 << 20)
}

// peakRSSMB returns this process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit returns the git commit of the working directory, or "unknown"
// when the directory is not itself a git checkout (the source digest
// identifies the code then). Git may not search above the directory.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod file under the working
// directory, skipping hidden and build directories, so a result names the
// exact code it measured even where no git metadata exists.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
