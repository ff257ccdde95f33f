package cache

import (
	"math/rand"
	"testing"
)

// mapSnoopFilter is the map-backed snoop filter the bus used before the
// open-addressed set, kept verbatim as the oracle: a line hits when it is
// tracked; otherwise it is inserted, and the insert that takes the set past
// 1<<16 lines empties it, the inserted line included.
type mapSnoopFilter struct {
	set map[uint64]struct{}
}

func newMapSnoopFilter() *mapSnoopFilter {
	return &mapSnoopFilter{set: make(map[uint64]struct{})}
}

func (f *mapSnoopFilter) insert(ln uint64) bool {
	if _, ok := f.set[ln]; ok {
		return true
	}
	f.set[ln] = struct{}{}
	if len(f.set) > 1<<16 {
		f.set = make(map[uint64]struct{})
	}
	return false
}

const testLineMask = ^uint64(63)

// agreeOnLines feeds lines to the open-addressed filter and to the map
// oracle and fails at the first access where their hit/miss results differ.
// It returns the number of hits.
func agreeOnLines(t testing.TB, lines []uint64) int {
	t.Helper()
	var open snoopFilter
	oracle := newMapSnoopFilter()
	hits := 0
	for i, ln := range lines {
		got, want := open.insert(ln), oracle.insert(ln)
		if got != want {
			t.Fatalf("access %d (line %#x): open filter hit=%v, map oracle hit=%v", i, ln, got, want)
		}
		if got {
			hits++
		}
	}
	return hits
}

// snoopWorkload draws n masked line addresses: hot lines from a small working
// set, reuse of recently seen lines, and a stream of fresh lines that pushes
// the distinct count past the filter's capacity when n is large enough.
func snoopWorkload(r *rand.Rand, n int) []uint64 {
	lines := make([]uint64, 0, n)
	fresh := uint64(0x4000_0000)
	for len(lines) < n {
		switch k := r.Intn(10); {
		case k < 5:
			lines = append(lines, uint64(r.Intn(2048))<<6)
		case k < 7 && len(lines) > 0:
			lines = append(lines, lines[len(lines)-1-r.Intn(min(len(lines), 256))])
		default:
			fresh += 64 * uint64(1+r.Intn(4))
			lines = append(lines, fresh&testLineMask)
		}
	}
	return lines
}

func TestSnoopFilterMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2_000
		if seed > 2 {
			n = 400_000 // about 120K distinct lines: at least one reset
		}
		lines := snoopWorkload(r, n)
		if agreeOnLines(t, lines) == 0 {
			t.Fatalf("seed %d: workload produced no snoop hits", seed)
		}
	}
	// Random raw addresses over the full 64-bit space, masked as the bus
	// masks them; line 0 and the top line included.
	r := rand.New(rand.NewSource(9))
	lines := []uint64{0, 0, ^uint64(0) & testLineMask, ^uint64(0) & testLineMask}
	for i := 0; i < 100_000; i++ {
		lines = append(lines, r.Uint64()&testLineMask, uint64(r.Intn(100))<<6)
	}
	agreeOnLines(t, lines)
}

// TestSnoopFilterResetDropsInsertedLine pins the capacity reset: the insert
// of line 1<<16+1 empties the filter, so neither that line nor the first
// one is tracked afterwards, while the next insert starts a fresh set.
func TestSnoopFilterResetDropsInsertedLine(t *testing.T) {
	var lines []uint64
	for i := uint64(0); i <= snoopCapacity; i++ {
		lines = append(lines, i<<6)
	}
	last := uint64(snoopCapacity) << 6
	lines = append(lines, last, last, 0, 0)
	agreeOnLines(t, lines)

	var f snoopFilter
	for i := uint64(0); i < snoopCapacity; i++ {
		f.insert(i << 6)
	}
	if !f.insert(0) {
		t.Fatalf("filter at capacity lost line 0")
	}
	if f.insert(last) {
		t.Fatalf("insert past capacity reported a hit")
	}
	if f.n != 0 {
		t.Fatalf("filter holds %d lines after the reset, want 0", f.n)
	}
	if f.insert(last) {
		t.Fatalf("line inserted by the resetting access survived the reset")
	}
	if !f.insert(last) {
		t.Fatalf("line not tracked after re-insertion")
	}
}

// FuzzSnoopFilter decodes bytes into a line sequence over a small alphabet;
// a byte >= 0xF0 inserts a run of fresh distinct lines long enough, after a
// few of them, to cross the capacity reset.
func FuzzSnoopFilter(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 1})
	f.Add([]byte{5, 0xF8, 5, 0xFF, 0xFF, 5, 0xF0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		var lines []uint64
		fresh := uint64(1 << 40)
		for _, b := range data {
			if b < 0xF0 {
				lines = append(lines, uint64(b)<<6)
				continue
			}
			for i := 0; i < int(b-0xEF)*4096; i++ {
				fresh += 64
				lines = append(lines, fresh)
			}
			lines = append(lines, fresh) // re-touch the run's last line
		}
		agreeOnLines(t, lines)
	})
}

// BenchmarkSnoopFilter replays one synthetic bus line sequence (hot set,
// recent reuse, fresh streaming lines; 300K accesses crossing one capacity
// reset) through the map oracle and through the open-addressed filter, a
// fresh filter per iteration.
func BenchmarkSnoopFilter(b *testing.B) {
	lines := snoopWorkload(rand.New(rand.NewSource(1)), 300_000)
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := newMapSnoopFilter()
			for _, ln := range lines {
				f.insert(ln)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var f snoopFilter
			for _, ln := range lines {
				f.insert(ln)
			}
		}
	})
}
