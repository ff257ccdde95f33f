package pipeline

import (
	"math/rand"
	"testing"
)

// TestIQCountMatchesMultiset drives iqCount with random completion cycles,
// including ones beyond the bucket ring and clock jumps past it, and checks
// every read against a brute-force count of the ops still pending.
func TestIQCountMatchesMultiset(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var q iqCount
		var all []uint64
		cycle := uint64(0)
		for step := 0; step < 5_000; step++ {
			switch k := r.Intn(10); {
			case k < 6:
				lat := uint64(1 + r.Intn(300))
				if r.Intn(20) == 0 {
					lat = uint64(iqRing - 2 + r.Intn(3*iqRing))
				}
				q.add(cycle + lat)
				all = append(all, cycle+lat)
			case k < 9:
				cycle += uint64(r.Intn(4))
			default:
				cycle += uint64(r.Intn(3 * iqRing))
			}
			if r.Intn(3) > 0 {
				continue
			}
			want := 0
			for _, d := range all {
				if d > cycle {
					want++
				}
			}
			if got := q.at(cycle); got != want {
				t.Fatalf("trial %d step %d cycle %d: count %d, want %d", trial, step, cycle, got, want)
			}
		}
	}
}
