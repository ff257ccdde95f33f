package trace

import (
	"strings"
	"testing"

	"perspectron/internal/telemetry"
	"perspectron/internal/workload"
)

func TestSummaryOmitsHealthWhenClean(t *testing.T) {
	ds := &Dataset{Interval: 10_000}
	if sum := ds.Summary(); strings.Contains(sum, "dropped") {
		t.Errorf("clean Summary mentions dropped runs: %q", sum)
	}
}

func TestCollectRecordsTelemetry(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Enable()
	t.Cleanup(telemetry.Disable)

	var attempts int32
	progs := []workload.Program{&panicProg{after: 5_000, attempts: &attempts}}
	cfg := CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1}
	ds := Collect(progs, cfg)
	if len(ds.Dropped) != 1 {
		t.Fatalf("Dropped = %v, want 1", ds.Dropped)
	}
	if got := reg.CounterValue("perspectron_collect_runs_total"); got != 1 {
		t.Errorf("runs counter = %d, want 1", got)
	}
	if got := reg.CounterValue("perspectron_collect_runs_dropped_total"); got != 1 {
		t.Errorf("dropped counter = %d, want 1", got)
	}
	name := telemetry.Name("perspectron_collect_run_seconds", "workload", "panicker")
	if got := reg.Histogram(name, telemetry.DurationBuckets).Count(); got != 1 {
		t.Errorf("per-workload run-seconds observations = %d, want 1", got)
	}
	// The phase span recorded collect wall time.
	phase := telemetry.Name(telemetry.PhaseMetric, "phase", "collect")
	if got := reg.Histogram(phase, telemetry.DurationBuckets).Count(); got != 1 {
		t.Errorf("collect phase observations = %d, want 1", got)
	}
}
