package pipeline_test

import (
	"math/rand"
	"testing"

	"perspectron"
	"perspectron/internal/pipeline"
	"perspectron/internal/sim"
)

// serveStreams are perfbench's serve-stream workloads: bzip2 and spectreV1
// over flush+reload.
func serveStreams(t testing.TB) []perspectron.Workload {
	t.Helper()
	var progs []perspectron.Workload
	for _, w := range perspectron.BenignWorkloads() {
		if w.Info().Name == "bzip2" {
			progs = append(progs, w)
		}
	}
	if a := perspectron.AttackByName("spectreV1", "fr"); a != nil {
		progs = append(progs, a)
	}
	if len(progs) != 2 {
		t.Fatalf("serve streams not found")
	}
	return progs
}

// TestIQCountMatchesScan steps every training workload and both serve
// streams on a default machine and checks the running IQ count against a
// scan of the window at every read, in rename and in histograms alike.
func TestIQCountMatchesScan(t *testing.T) {
	progs := append(perspectron.TrainingWorkloads(), serveStreams(t)...)
	insts := uint64(40_000)
	if testing.Short() {
		insts = 10_000
	}
	full := 0
	for i, prog := range progs {
		m := sim.NewMachine(sim.DefaultConfig())
		reads := 0
		pipeline.ProbeIQ(m.Pipe, func(count, scan int) {
			reads++
			if count != scan {
				t.Fatalf("%s: read %d at cycle %d: running IQ count %d, window scan %d",
					prog.Info().Name, reads, m.Pipe.Cycle(), count, scan)
			}
			if count >= 64 {
				full++
			}
		}, nil)
		m.Run(prog.Stream(rand.New(rand.NewSource(int64(i)+1))), insts, 10_000)
		if reads == 0 {
			t.Fatalf("%s: the IQ occupancy was never read", prog.Info().Name)
		}
	}
	if full == 0 {
		t.Fatalf("no read saw a full IQ: the capacity branch went unchecked")
	}
}

// recordServeMix records every IQ read of one serve-mix episode pair, one
// read sequence per episode (each machine starts at cycle 0).
func recordServeMix(b *testing.B) [][]pipeline.IQRead {
	var episodes [][]pipeline.IQRead
	for _, prog := range serveStreams(b) {
		m := sim.NewMachine(sim.DefaultConfig())
		var reads []pipeline.IQRead
		pipeline.ProbeIQ(m.Pipe, nil, &reads)
		m.Run(prog.Stream(rand.New(rand.NewSource(1))), 100_000, 10_000)
		episodes = append(episodes, reads)
	}
	return episodes
}

// BenchmarkIQCount replays the IQ occupancy reads of a serve-mix episode
// pair (bzip2 and spectreV1/fr, 100K instructions each) through the seed
// window scan and through the running count, on the same recorded dispatch
// and retire sequence.
func BenchmarkIQCount(b *testing.B) {
	episodes := recordServeMix(b)
	b.Run("scan", func(b *testing.B) { replayIQ(b, episodes, true) })
	b.Run("count", func(b *testing.B) { replayIQ(b, episodes, false) })
}

func replayIQ(b *testing.B, episodes [][]pipeline.IQRead, scan bool) {
	outs := make([][]int, len(episodes))
	for e := range episodes {
		outs[e] = make([]int, len(episodes[e]))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for e, reads := range episodes {
			pipeline.ReplayIQ(reads, scan, outs[e])
		}
	}
	b.StopTimer()
	for e, reads := range episodes {
		for i, r := range reads {
			if outs[e][i] != r.Count {
				b.Fatalf("episode %d read %d: replayed occupancy %d, recorded %d",
					e, i, outs[e][i], r.Count)
			}
		}
	}
}
