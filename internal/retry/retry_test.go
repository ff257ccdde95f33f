package retry

import (
	"context"
	"testing"
	"time"

	"perspectron/internal/telemetry"
)

func TestBackoffDeterministicForSeed(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2, Jitter: 0.5}
	a, b := NewBackoff(p, 42), NewBackoff(p, 42)
	for i := 0; i < 8; i++ {
		da, db := a.Next(), b.Next()
		if da != db {
			t.Fatalf("attempt %d: same seed diverged: %v vs %v", i, da, db)
		}
	}
	c := NewBackoff(p, 43)
	same := true
	a = NewBackoff(p, 42)
	for i := 0; i < 8; i++ {
		if a.Next() != c.Next() {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical jitter sequences")
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2}
	b := NewBackoff(p, 1) // Jitter 0: exact sequence
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Next(); got != w*time.Millisecond {
			t.Fatalf("backoff %d = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 100 * time.Millisecond, Jitter: 0.5}
	b := NewBackoff(p, 7)
	for i := 0; i < 100; i++ {
		d := b.Next()
		if d < 50*time.Millisecond || d > 150*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [50ms, 150ms]", d)
		}
	}
}

func TestBackoffReset(t *testing.T) {
	p := Policy{Base: 10 * time.Millisecond, Max: time.Second, Factor: 2}
	b := NewBackoff(p, 1)
	b.Next()
	if got := b.Next(); got != 20*time.Millisecond {
		t.Fatalf("second backoff = %v, want 20ms", got)
	}
	b.Reset()
	if got := b.Next(); got != 10*time.Millisecond {
		t.Fatalf("after Reset first backoff = %v, want 10ms", got)
	}
}

func TestSleepCancelCutsBackoffShort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if Sleep(ctx, "test", 10*time.Second) {
		t.Fatalf("Sleep reported a full backoff under a cancelled context")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("cancel did not cut the backoff sleep short")
	}
	if Sleep(ctx, "test", 0) {
		t.Fatalf("zero Sleep under a cancelled context reported success")
	}
}

func TestSleepRecordsBackoffTelemetry(t *testing.T) {
	reg := telemetry.Enable()
	defer telemetry.Disable()
	h := reg.Histogram(telemetry.Name("perspectron_retry_backoff_seconds", "op", "unit"),
		telemetry.DurationBuckets)
	before := h.Count()
	if !Sleep(context.Background(), "unit", time.Millisecond) {
		t.Fatalf("uncancelled Sleep did not complete")
	}
	if got := h.Count(); got != before+1 {
		t.Fatalf("backoff observations = %d, want %d", got, before+1)
	}
}
