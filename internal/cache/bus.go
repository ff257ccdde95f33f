package cache

import (
	"math/bits"

	"perspectron/internal/stats"
)

// TransType enumerates the coherent bus transaction types whose distribution
// gem5 reports as <bus>.trans_dist::<type>. The paper's feature analysis
// leans on ReadSharedReq, ReadResp, CleanEvict and WritebackClean.
type TransType int

const (
	TransReadReq TransType = iota
	TransReadResp
	TransWriteReq
	TransWriteResp
	TransReadSharedReq
	TransReadExReq
	TransReadExResp
	TransWritebackDirty
	TransWritebackClean
	TransCleanEvict
	TransUpgradeReq
	TransFlushReq
	TransInvalidateReq
	TransInvalidateResp
	NumTransTypes
)

var transNames = [NumTransTypes]string{
	"ReadReq", "ReadResp", "WriteReq", "WriteResp", "ReadSharedReq",
	"ReadExReq", "ReadExResp", "WritebackDirty", "WritebackClean",
	"CleanEvict", "UpgradeReq", "FlushReq", "InvalidateReq", "InvalidateResp",
}

// String returns the gem5 transaction name.
func (t TransType) String() string {
	if t < 0 || t >= NumTransTypes {
		return "unknown"
	}
	return transNames[t]
}

// Bus models a transaction-counting crossbar between cache levels. It is not
// a timing model of arbitration; it adds a fixed per-hop latency and records
// the transaction distribution, snoop filter activity and byte throughput,
// which is what the detector observes.
type Bus struct {
	Name    string
	latency uint64

	Trans [NumTransTypes]*stats.Counter

	SnoopRequests *stats.Counter
	SnoopHits     *stats.Counter
	SnoopTraffic  *stats.Counter
	PktCount      *stats.Counter
	PktSize       *stats.Counter
	ReqLayerBusy  *stats.Counter
	RespLayerBusy *stats.Counter

	PktSizeDist []*stats.Counter

	snoop    snoopFilter
	lineMask uint64
}

// snoopCapacity bounds the snoop filter: the insert that takes it past this
// many tracked lines empties it, that line included.
const snoopCapacity = 1 << 16

// snoopFilter is the set of lines that have crossed a bus: an open-addressed
// hash set with linear probing over masked line addresses. A slot holds
// line|1, so 0 marks an empty slot (line addresses have their low bits
// clear). The table starts small and doubles past half full, so a bus that
// sees few lines stays small.
type snoopFilter struct {
	slots []uint64
	n     int
	shift uint // 64 - log2(len(slots))
}

// snoopMinSlots is the table size the filter starts at on its first insert.
const snoopMinSlots = 1024

// insert reports whether line was already tracked, adding it if not. The
// insert that takes the filter past snoopCapacity lines empties it.
func (f *snoopFilter) insert(line uint64) bool {
	if f.slots == nil {
		f.grow(snoopMinSlots)
	}
	key := line | 1
	mask := uint64(len(f.slots) - 1)
	i := (key * 0x9e3779b97f4a7c15) >> f.shift
	for {
		switch f.slots[i] {
		case key:
			return true
		case 0:
			f.slots[i] = key
			f.n++
			if f.n > snoopCapacity {
				clear(f.slots)
				f.n = 0
			} else if 2*f.n > len(f.slots) {
				f.grow(2 * len(f.slots))
			}
			return false
		}
		i = (i + 1) & mask
	}
}

// grow rehashes the filter into a table of size slots (a power of two).
func (f *snoopFilter) grow(size int) {
	old := f.slots
	f.slots = make([]uint64, size)
	f.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, key := range old {
		if key == 0 {
			continue
		}
		i := (key * 0x9e3779b97f4a7c15) >> f.shift
		for f.slots[i] != 0 {
			i = (i + 1) & mask
		}
		f.slots[i] = key
	}
}

// NewBus creates a bus named name (e.g. "tol2bus", "membus") with the given
// per-hop latency and registers its counters.
func NewBus(name string, latency uint64, lineBytes int, reg *stats.Registry) *Bus {
	b := &Bus{
		Name:     name,
		latency:  latency,
		lineMask: ^uint64(lineBytes - 1),
	}
	for t := TransType(0); t < NumTransTypes; t++ {
		b.Trans[t] = reg.NewRaw(stats.CompBus, name+".trans_dist::"+t.String(),
			name+" "+t.String()+" transactions")
	}
	b.SnoopRequests = reg.NewRaw(stats.CompBus, name+".snoop_filter.tot_requests", "snoop filter requests")
	b.SnoopHits = reg.NewRaw(stats.CompBus, name+".snoop_filter.hit_single_requests", "snoop filter hits")
	b.SnoopTraffic = reg.NewRaw(stats.CompBus, name+".snoop_traffic", "snoop traffic bytes")
	b.PktCount = reg.NewRaw(stats.CompBus, name+".pkt_count", "total packets")
	b.PktSize = reg.NewRaw(stats.CompBus, name+".pkt_size", "total packet bytes")
	b.ReqLayerBusy = reg.NewRaw(stats.CompBus, name+".reqLayer0.occupancy", "request layer occupancy")
	b.RespLayerBusy = reg.NewRaw(stats.CompBus, name+".respLayer0.occupancy", "response layer occupancy")
	b.PktSizeDist = distCounters(reg, stats.CompBus, name+".pkt_size_dist", 8)
	return b
}

// Send records a transaction of type t carrying bytes payload and returns
// the bus hop latency. Request types implicitly generate their paired
// response transaction (ReadReq -> ReadResp etc.), matching how gem5's
// distribution counts both directions.
func (b *Bus) Send(t TransType, addr uint64, bytes int) uint64 {
	b.record(t, addr, bytes)
	switch t {
	case TransReadReq, TransReadSharedReq:
		b.record(TransReadResp, addr, bytes)
	case TransReadExReq:
		b.record(TransReadExResp, addr, bytes)
	case TransWriteReq:
		b.record(TransWriteResp, addr, 0)
	case TransInvalidateReq:
		b.record(TransInvalidateResp, addr, 0)
	}
	return b.latency
}

func (b *Bus) record(t TransType, addr uint64, bytes int) {
	b.Trans[t].Inc()
	b.PktCount.Inc()
	b.PktSize.Add(float64(bytes))
	b.PktSizeDist[log2Bucket(uint64(bytes)+1, len(b.PktSizeDist))].Inc()
	b.ReqLayerBusy.Add(float64(b.latency))
	if isResponse(t) {
		b.RespLayerBusy.Add(float64(b.latency))
	}
	// Snoop filter: track which lines have crossed this bus; repeat
	// requests for tracked lines hit in the filter.
	b.SnoopRequests.Inc()
	if b.snoop.insert(addr & b.lineMask) {
		b.SnoopHits.Inc()
		b.SnoopTraffic.Add(float64(bytes))
	}
}

func isResponse(t TransType) bool {
	switch t {
	case TransReadResp, TransWriteResp, TransReadExResp, TransInvalidateResp:
		return true
	}
	return false
}

// Latency returns the per-hop latency.
func (b *Bus) Latency() uint64 { return b.latency }
