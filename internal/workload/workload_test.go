package workload

import (
	"math/rand"
	"testing"

	"perspectron/internal/isa"
)

func newB() *Builder { return NewBuilder(rand.New(rand.NewSource(1))) }

func TestBuilderEmitAssignsPCs(t *testing.T) {
	b := newB()
	b.Plain(isa.IntAlu)
	b.Plain(isa.IntAlu)
	if b.queue[0].PC == 0 || b.queue[1].PC == 0 {
		t.Fatalf("auto PCs not assigned")
	}
	if b.queue[0].PC == b.queue[1].PC {
		t.Fatalf("auto PCs not advancing")
	}
}

func TestBuilderBranchStableSite(t *testing.T) {
	b := newB()
	b.Branch(5, true)
	b.Branch(5, false)
	if b.queue[0].PC != b.queue[1].PC {
		t.Fatalf("same site produced different PCs")
	}
	if b.queue[0].PC != SitePC(5) {
		t.Fatalf("site PC mismatch")
	}
}

func TestBuilderMemoryHelpers(t *testing.T) {
	b := newB()
	b.Load(0x100)
	b.LoadShared(0x200)
	b.LoadDep(0x300)
	b.Store(0x400)
	b.Flush(0x500)
	if b.queue[0].Kind != isa.KindLoad || b.queue[0].Addr != 0x100 {
		t.Fatalf("Load wrong")
	}
	if !b.queue[1].Shared {
		t.Fatalf("LoadShared not shared")
	}
	if !b.queue[2].DependsOnPrev {
		t.Fatalf("LoadDep not dependent")
	}
	if b.queue[3].Kind != isa.KindStore {
		t.Fatalf("Store wrong")
	}
	if b.queue[4].Kind != isa.KindFlush {
		t.Fatalf("Flush wrong")
	}
}

func TestTimedLoadBracketsWithRdtsc(t *testing.T) {
	b := newB()
	b.TimedLoad(0x100, false)
	if len(b.queue) < 3 {
		t.Fatalf("timed load too short: %d ops", len(b.queue))
	}
	if b.queue[0].Class != isa.IntAlu || b.queue[2].Class != isa.IntAlu {
		t.Fatalf("timing reads missing")
	}
	if b.queue[1].Kind != isa.KindLoad {
		t.Fatalf("middle op not a load")
	}
	// Every 8th timed access adds an lfence.
	fences := 0
	for i := 0; i < 16; i++ {
		b.TimedLoad(0x200, false)
	}
	for _, op := range b.queue {
		if op.Kind == isa.KindFence {
			fences++
		}
	}
	if fences != 2 {
		t.Fatalf("fences = %d, want 2 for 17 timed loads", fences)
	}
}

func TestFaultingLoadCarriesTransient(t *testing.T) {
	b := newB()
	body := []isa.Op{{Kind: isa.KindLoad, Addr: 0x999}}
	b.FaultingLoad(0xffff800000000000, body)
	op := b.queue[0]
	if len(op.Transient) != 1 || op.Transient[0].Addr != 0x999 {
		t.Fatalf("transient body lost")
	}
}

func TestLoopStreamCycles(t *testing.T) {
	calls := 0
	p := NewLoop(Info{Name: "t", Label: Benign}, nil, func(b *Builder) {
		calls++
		b.Plain(isa.IntAlu)
		b.Plain(isa.IntAlu)
	})
	s := p.Stream(rand.New(rand.NewSource(1)))
	for i := 0; i < 7; i++ {
		if s.Next() == nil {
			t.Fatalf("stream ended early")
		}
	}
	if calls != 4 { // ceil(7/2)
		t.Fatalf("iterations = %d, want 4", calls)
	}
}

func TestLoopStreamSetupRunsFirst(t *testing.T) {
	p := NewLoop(Info{Name: "t"}, func(b *Builder) {
		b.Load(0xAAAA)
	}, func(b *Builder) {
		b.Plain(isa.IntAlu)
	})
	s := p.Stream(rand.New(rand.NewSource(1)))
	op := s.Next()
	if op == nil || op.Kind != isa.KindLoad || op.Addr != 0xAAAA {
		t.Fatalf("setup op not first: %+v", op)
	}
}

func TestLoopStreamEmptyIterationEnds(t *testing.T) {
	p := NewLoop(Info{Name: "t"}, nil, func(b *Builder) {})
	s := p.Stream(rand.New(rand.NewSource(1)))
	if s.Next() != nil {
		t.Fatalf("empty iteration did not end the stream")
	}
}

func TestLeakMarksPositions(t *testing.T) {
	p := NewLoop(Info{Name: "t", Label: Malicious}, nil, func(b *Builder) {
		b.Plain(isa.IntAlu)
		b.Plain(isa.IntAlu)
		b.MarkLeak()
		b.Plain(isa.IntAlu)
	})
	s := p.Stream(rand.New(rand.NewSource(1))).(*LoopStream)
	for i := 0; i < 6; i++ {
		s.Next()
	}
	marks := s.LeakMarks()
	if len(marks) != 2 {
		t.Fatalf("marks = %v", marks)
	}
	if marks[0] != 2 || marks[1] != 5 {
		t.Fatalf("mark positions = %v, want [2 5]", marks)
	}
}

func TestIterationCounter(t *testing.T) {
	var iters []int
	p := NewLoop(Info{Name: "t"}, nil, func(b *Builder) {
		iters = append(iters, b.Iteration())
		b.Plain(isa.IntAlu)
	})
	s := p.Stream(rand.New(rand.NewSource(1)))
	for i := 0; i < 3; i++ {
		s.Next()
	}
	if len(iters) != 3 || iters[0] != 1 || iters[2] != 3 {
		t.Fatalf("iterations = %v", iters)
	}
}

func TestLabelString(t *testing.T) {
	if Benign.String() != "benign" || Malicious.String() != "malicious" {
		t.Fatalf("label strings wrong")
	}
}

func TestQuiesceAndFence(t *testing.T) {
	b := newB()
	b.Quiesce(123)
	b.Fence()
	if b.queue[0].Kind != isa.KindQuiesce || b.queue[0].WaitCycles != 123 {
		t.Fatalf("quiesce wrong: %+v", b.queue[0])
	}
	if b.queue[1].Kind != isa.KindFence {
		t.Fatalf("fence wrong")
	}
}

func TestCallRetIndirect(t *testing.T) {
	b := newB()
	b.Call(1, 0x2000)
	b.Ret(2, 0x1004, nil)
	b.Indirect(3, 0x3000, []isa.Op{{Kind: isa.KindLoad, Addr: 1}})
	if b.queue[0].Kind != isa.KindCall || b.queue[0].Target != 0x2000 {
		t.Fatalf("call wrong")
	}
	if b.queue[1].Kind != isa.KindRet {
		t.Fatalf("ret wrong")
	}
	if b.queue[2].Kind != isa.KindIndirect || len(b.queue[2].Transient) != 1 {
		t.Fatalf("indirect wrong")
	}
}
