package perspectron

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"perspectron/internal/telemetry"
)

func TestSessionStreamsVerdicts(t *testing.T) {
	det := sharedDetector(t)
	ctx := context.Background()
	s, err := NewSession(ctx, det, nil, SessionConfig{
		Workload: AttackByName("spectreV1", "fr"),
		MaxInsts: 80_000,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	flagged := 0
	n := 0
	for {
		v, ok := s.Next(ctx)
		if !ok {
			break
		}
		if v.Sample != n {
			t.Fatalf("sample %d out of order (want %d)", v.Sample, n)
		}
		if v.Coverage <= 0 || v.Coverage > 1 {
			t.Fatalf("coverage %v out of range", v.Coverage)
		}
		if v.Flagged {
			flagged++
		}
		n++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatalf("no verdicts")
	}
	if flagged == 0 {
		t.Fatalf("spectreV1 never flagged across %d verdicts", n)
	}
	// The streaming path and the batch Monitor agree on detection.
	rep, err := det.Monitor(AttackByName("spectreV1", "fr"), 80_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatalf("Monitor disagrees with session on detection")
	}
}

func TestSessionWithClassifier(t *testing.T) {
	det := sharedDetector(t)
	cls := sharedClassifier(t)
	ctx := context.Background()
	s, err := NewSession(ctx, det, cls, SessionConfig{
		Workload: AttackByName("flush+reload", ""),
		MaxInsts: 60_000,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	votes := map[string]int{}
	for {
		v, ok := s.Next(ctx)
		if !ok {
			break
		}
		if v.Class == "" {
			t.Fatalf("classifier session produced empty class")
		}
		votes[v.Class]++
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if votes["flush_reload"] == 0 {
		t.Fatalf("flush+reload never voted flush_reload: %v", votes)
	}
}

// TestSessionsShareModelConcurrently is the thread-safety contract behind
// the serving runtime: many sessions score against ONE detector and ONE
// classifier simultaneously. Run under -race this proves scoring never
// writes shared model state: each session's RawScorer owns its indices and
// scratch.
func TestSessionsShareModelConcurrently(t *testing.T) {
	det := sharedDetector(t)
	cls := sharedClassifier(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			s, err := NewSession(ctx, det, cls, SessionConfig{
				Workload: AttackByName("spectreV1", "fr"),
				MaxInsts: 40_000,
				Seed:     seed,
			})
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			for {
				if _, ok := s.Next(ctx); !ok {
					break
				}
			}
			errs <- s.Err()
		}(int64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSessionNextDeadline(t *testing.T) {
	det := sharedDetector(t)
	s, err := NewSession(context.Background(), det, nil, SessionConfig{
		Workload: AttackByName("spectreV1", "fr"),
		MaxInsts: 40_000,
		Seed:     5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// An already-expired per-sample deadline: Next gives up immediately and
	// the ctx error distinguishes it from end-of-run.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if v, ok := s.Next(expired); ok {
		t.Fatalf("Next returned verdict %+v under expired ctx", v)
	}
	if expired.Err() == nil {
		t.Fatalf("expired ctx reports no error")
	}
	// The session survives a missed deadline: a live ctx still drains it.
	live, cancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel2()
	n := 0
	for {
		_, ok := s.Next(live)
		if !ok {
			break
		}
		n++
	}
	if live.Err() != nil {
		t.Fatalf("drain hit the long deadline")
	}
	if n == 0 {
		t.Fatalf("session dead after missed deadline")
	}
}

func TestMonitorCtxCancelled(t *testing.T) {
	det := sharedDetector(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := det.MonitorCtx(ctx, AttackByName("spectreV1", "fr"), 40_000, 5); err == nil {
		t.Fatalf("cancelled MonitorCtx returned no error")
	}
	if _, err := sharedClassifier(t).ClassifyCtx(ctx, AttackByName("flush+reload", ""), 40_000, 5); err == nil {
		t.Fatalf("cancelled ClassifyCtx returned no error")
	}
}

// TestMonitorCtxNestsSpan checks that MonitorCtx's phase span nests under
// the caller's span instead of rooting its own path.
func TestMonitorCtxNestsSpan(t *testing.T) {
	det := sharedDetector(t)
	reg := telemetry.Enable()
	defer telemetry.Disable()
	ctx, outer := telemetry.StartSpan(context.Background(), "outer")
	if _, err := det.MonitorCtx(ctx, AttackByName("spectreV1", "fr"), 20_000, 5); err != nil {
		t.Fatal(err)
	}
	outer.End()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `perspectron_phase_seconds_count{phase="outer/monitor"}`; !strings.Contains(buf.String(), want) {
		t.Fatalf("exposition lacks %s", want)
	}
}

func TestServeModeString(t *testing.T) {
	cases := map[ServeMode]string{
		ModeClassifier: "classifier",
		ModeDetector:   "detector",
		ModeThreshold:  "threshold",
		ServeMode(9):   "mode(9)",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("ServeMode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestNewSessionErrors(t *testing.T) {
	if _, err := NewSession(context.Background(), nil, nil, SessionConfig{Workload: BenignWorkloads()[0]}); err == nil {
		t.Fatalf("model-less session accepted")
	}
	if _, err := NewSession(context.Background(), sharedDetector(t), nil, SessionConfig{}); err == nil {
		t.Fatalf("workload-less session accepted")
	}
}
