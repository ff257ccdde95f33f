package trace

import (
	"context"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perspectron/internal/isa"
	"perspectron/internal/sim"
	"perspectron/internal/workload"
	"perspectron/internal/workload/benign"
)

// plainStream emits computational ops forever (or up to limit when > 0).
type plainStream struct {
	op    isa.Op
	n     uint64
	limit uint64
}

func (s *plainStream) Next() *isa.Op {
	if s.limit > 0 && s.n >= s.limit {
		return nil
	}
	s.n++
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op
}

// panicProg's streams panic after emitting `after` ops; attempts counts the
// streams opened.
type panicProg struct {
	after    uint64
	attempts *int32
}

func (p *panicProg) Info() workload.Info {
	return workload.Info{Name: "panicker", Label: workload.Benign, Category: "test"}
}

func (p *panicProg) Stream(_ *rand.Rand) isa.Stream {
	atomic.AddInt32(p.attempts, 1)
	return &panicStream{after: p.after}
}

type panicStream struct {
	op    isa.Op
	n     uint64
	after uint64
}

func (s *panicStream) Next() *isa.Op {
	s.n++
	if s.n > s.after {
		panic("workload bug")
	}
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op
}

func TestCollectRecoversFromPanickingWorkload(t *testing.T) {
	var attempts int32
	progs := []workload.Program{
		benign.All()[0],
		&panicProg{after: 5_000, attempts: &attempts},
	}
	cfg := CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 1}
	ds := Collect(progs, cfg)
	if len(ds.Samples) == 0 {
		t.Fatalf("healthy workload produced no samples alongside a panicking one")
	}
	for _, s := range ds.Samples {
		if s.Program == "panicker" {
			t.Fatalf("panicking run leaked samples into the dataset")
		}
	}
	if len(ds.Dropped) != 1 || !strings.Contains(ds.Dropped[0], "panicker#0") ||
		!strings.Contains(ds.Dropped[0], "panicked") {
		t.Fatalf("dropped record = %v, want one panicker entry", ds.Dropped)
	}
	if got := atomic.LoadInt32(&attempts); got != 1 {
		t.Fatalf("panicking run attempted %d times, want exactly 1", got)
	}
	if sum := ds.Summary(); !strings.Contains(sum, "(1 runs dropped)") {
		t.Fatalf("Summary does not surface the dropped run: %q", sum)
	}
}

// endless is a benign-looking program that never terminates on its own.
type endless struct{}

func (endless) Info() workload.Info {
	return workload.Info{Name: "endless", Label: workload.Benign, Category: "test"}
}
func (endless) Stream(_ *rand.Rand) isa.Stream { return &plainStream{} }

func TestCollectTimeoutCutsRunawayRun(t *testing.T) {
	cfg := CollectConfig{
		MaxInsts: 1 << 62, // effectively unbounded: only the deadline stops it
		Interval: 10_000,
		Seed:     1,
		Runs:     1,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	ds := CollectCtx(ctx, []workload.Program{endless{}}, cfg)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timeout did not bound the run (%v elapsed)", elapsed)
	}
	// The run was truncated, not discarded: its partial samples survive.
	if len(ds.Samples) == 0 {
		t.Fatalf("timed-out run contributed no samples")
	}
}

func TestCollectCtxCancelStopsScheduling(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: every run must be dropped
	progs := []workload.Program{benign.All()[0], benign.All()[1]}
	ds := CollectCtx(ctx, progs, CollectConfig{MaxInsts: 30_000, Interval: 10_000, Seed: 1, Runs: 2})
	if len(ds.Samples) != 0 {
		t.Fatalf("cancelled collection still produced %d samples", len(ds.Samples))
	}
	if len(ds.Dropped) != 4 {
		t.Fatalf("dropped %d runs, want all 4: %v", len(ds.Dropped), ds.Dropped)
	}
}

func TestRunSourceNextCtxDeadline(t *testing.T) {
	m := sim.NewMachine(sim.DefaultConfig())
	// A stream that produces one interval quickly, then stalls far longer
	// than the per-sample deadline (and ends itself after the stall window,
	// so the producer goroutine is reclaimed promptly).
	src := NewRunSource(context.Background(), m, &stallProg{stallAfter: 15_000, delay: 10 * time.Millisecond, stallOps: 60},
		0, 1, CollectConfig{MaxInsts: 1 << 40, Interval: 10_000})
	defer src.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	s, ok := src.NextCtx(ctx)
	cancel()
	if !ok || s == nil {
		t.Fatalf("first sample not delivered before the stall")
	}
	ctx, cancel = context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok := src.NextCtx(ctx); ok {
		t.Fatalf("stalled source delivered a sample inside the deadline")
	}
	if ctx.Err() == nil {
		t.Fatalf("NextCtx returned false without a context error on a live run")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("NextCtx did not honor the per-sample deadline")
	}
}

// stallProg streams plain ops, then sleeps `delay` per op after stallAfter
// ops — a pathologically slow sample source. After stallOps stalled ops the
// stream ends, bounding how long a stuck producer goroutine lingers.
type stallProg struct {
	stallAfter uint64
	delay      time.Duration
	stallOps   uint64
}

func (p *stallProg) Info() workload.Info {
	return workload.Info{Name: "staller", Label: workload.Benign, Category: "test"}
}

func (p *stallProg) Stream(_ *rand.Rand) isa.Stream {
	return &stallStream{after: p.stallAfter, delay: p.delay, stallOps: p.stallOps}
}

type stallStream struct {
	op       isa.Op
	n        uint64
	after    uint64
	delay    time.Duration
	stallOps uint64
}

func (s *stallStream) Next() *isa.Op {
	s.n++
	if s.n > s.after {
		if s.n > s.after+s.stallOps {
			return nil
		}
		time.Sleep(s.delay)
	}
	s.op = isa.Op{Kind: isa.KindPlain, Class: isa.IntAlu, PC: 0x4000 + 4*s.n}
	return &s.op
}

func TestFilterCarriesDropped(t *testing.T) {
	ds := &Dataset{Dropped: []string{"x#0: run panicked"}}
	if got := ds.Filter(func(*Sample) bool { return true }); len(got.Dropped) != 1 {
		t.Fatalf("Filter lost the Dropped record")
	}
}
