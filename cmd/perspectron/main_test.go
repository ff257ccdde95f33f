package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perspectron"
)

// tinyDetector trains a small detector on bzip2 and spectreV1/fr and saves
// it under dir.
func tinyDetector(t *testing.T, dir string) string {
	t.Helper()
	opts := perspectron.DefaultOptions()
	opts.MaxInsts = 30_000
	opts.Runs = 1
	det, err := perspectron.Train([]perspectron.Workload{
		workloadByName("bzip2", "fr"), workloadByName("spectreV1", "fr"),
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "det.json")
	if err := det.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// serveCaptured runs `perspectron serve args...` in process and returns what
// it wrote to stderr.
func serveCaptured(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = saved }()
	cmdServe(args)
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestServeNoLastGoodWithoutVerdictFile checks that -no-last-good holds
// whatever -verdicts is: with the verdict log disabled, serve must not bank
// the detector as <in>.last-good.
func TestServeNoLastGoodWithoutVerdictFile(t *testing.T) {
	dir := t.TempDir()
	det := tinyDetector(t, dir)
	serveCaptured(t, "-in", det, "-workloads", "bzip2", "-insts", "20000",
		"-episodes", "1", "-poll", "-1s", "-verdicts", "", "-no-last-good")
	if _, err := os.Stat(det + ".last-good"); !os.IsNotExist(err) {
		t.Fatalf("serve -verdicts \"\" -no-last-good banked %s.last-good (stat err %v)", det, err)
	}
}

// TestServeShadowReportsEffectiveBudget checks that serve -shadow prints the
// epoch budget the trainer runs, not the unset flag's 0.
func TestServeShadowReportsEffectiveBudget(t *testing.T) {
	dir := t.TempDir()
	det := tinyDetector(t, dir)
	out := serveCaptured(t, "-in", det, "-workloads", "bzip2", "-insts", "20000",
		"-episodes", "1", "-poll", "-1s", "-verdicts", "", "-no-last-good",
		"-shadow", "-shadow-interval", "1h")
	want := "budget 50 epochs/round"
	if perspectron.DefaultIncrementEpochs != 50 || !strings.Contains(out, want) {
		t.Fatalf("serve stderr lacks %q (DefaultIncrementEpochs %d):\n%s",
			want, perspectron.DefaultIncrementEpochs, out)
	}
}
