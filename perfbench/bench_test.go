package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// benchmarkFile is BENCHMARK.json's metric contract.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricListsMatchBenchmarkFile pins the metric definitions in the code
// to BENCHMARK.json, names and units both.
func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, code reports %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, code reports %v", layer, perLayer)
	}
}

// buildBench compiles the benchmark binary once per test.
func buildBench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

type runResult struct {
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

// runTiny runs one workload at smoke-test size and decodes its last line.
func runTiny(t *testing.T, bin, workload, trace, expected string) (runResult, error) {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace,
		"--scale", "tiny", "--data", ".", "--workdir", t.TempDir()}
	if expected != "" {
		args = append(args, "--expected", expected)
	}
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v\nstderr:\n%s", workload, lines[len(lines)-1], err, stderr.String())
	}
	if runErr != nil {
		t.Logf("%s stderr:\n%s", workload, stderr.String())
	}
	return res, runErr
}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and checks that it passes its output checks and emits exactly the
// metric names BENCHMARK.json declares.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	bf := readBenchmarkFile(t)
	bin := buildBench(t)
	for _, w := range bf.Workloads {
		for _, tc := range []struct {
			trace string
			want  []string
		}{{"0", names(bf.EndToEnd)}, {"1", names(bf.PerLayer)}} {
			res, err := runTiny(t, bin, w.Name, tc.trace, "")
			if err != nil || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s --trace %s: err %v, correct %v, attempted %d", w.Name, tc.trace, err, res.Correct, res.Attempted)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s --trace %s emitted %v, BENCHMARK.json declares %v", w.Name, tc.trace, got, tc.want)
			}
		}
	}
}

func names(ms []struct{ Name, Unit string }) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	slices.Sort(out)
	return out
}

// TestTamperedPinFailsTheRun flips one pinned reference per workload and
// expects the run to report incorrect output and exit non-zero.
func TestTamperedPinFailsTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	bin := buildBench(t)
	b, err := os.ReadFile("expected.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		workload, trace string
		tamper          func(p *pinSet)
	}{
		{"serve-stream", "0", func(p *pinSet) {
			for id, s := range p.ServePins {
				eps := strings.Fields(s)
				for i, pin := range eps {
					_, flags, _ := strings.Cut(pin, ":")
					eps[i] = "00000000:" + flags
				}
				p.ServePins[id] = strings.Join(eps, " ")
			}
		}},
		{"serve-stream", "1", func(p *pinSet) {
			for v := range p.ServeSim {
				p.ServeSim[v] = "0000000000000000"
			}
		}},
		{"train-cold", "0", func(p *pinSet) {
			for v := range p.Train {
				p.Train[v] = "sha256:tampered"
			}
		}},
		{"train-cold", "1", func(p *pinSet) {
			for v := range p.Folds {
				p.Folds[v]["knn"] = []float64{0.5, 0.5, 0.5}
			}
		}},
	} {
		var all map[string]*pinSet
		if err := json.Unmarshal(b, &all); err != nil {
			t.Fatal(err)
		}
		tc.tamper(all["tiny"])
		out, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "expected.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := runTiny(t, bin, tc.workload, tc.trace, path)
		if err == nil || res.Correct {
			t.Errorf("%s --trace %s with a tampered pin: err %v, correct %v; want a failed run",
				tc.workload, tc.trace, err, res.Correct)
		}
	}
}
