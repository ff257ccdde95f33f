package pipeline

// scanIQ is the IQ occupancy model the pipeline used before the running
// count, kept verbatim as the oracle of inIQ: a scan of the in-flight window
// for entries that complete after the current cycle.
func scanIQ(p *Pipeline) int {
	inIQ := 0
	for i := p.head; i < len(p.window); i++ {
		if p.window[i].done > p.cycle {
			inIQ++
		}
	}
	return inIQ
}

// IQRead is one IQ occupancy read of a live pipeline, recorded for replay.
type IQRead struct {
	Cycle     uint64 // the clock at the read
	Committed uint64 // ops retired before the read
	// New holds the completion cycles of the ops dispatched since the
	// previous read, oldest first, with 0 for ops already retired (they
	// completed at or before this read's cycle).
	New   []uint64
	Count int // the occupancy the pipeline read
}

// ProbeIQ hooks every IQ occupancy read of p, in rename and in histograms.
// check, when set, receives the running count and the scanIQ oracle;
// record, when set, collects each read for ReplayIQ.
func ProbeIQ(p *Pipeline, check func(count, scan int), record *[]IQRead) {
	var seen uint64 // ops dispatched before the previous read
	p.iqProbe = func(n int) {
		if check != nil {
			check(n, scanIQ(p))
		}
		if record == nil {
			return
		}
		r := IQRead{Cycle: p.cycle, Committed: p.committed, Count: n}
		total := p.committed + uint64(p.windowLen())
		for seq := seen; seq < total; seq++ {
			if seq < p.committed {
				r.New = append(r.New, 0)
				continue
			}
			r.New = append(r.New, p.window[p.head+int(seq-p.committed)].done)
		}
		seen = total
		*record = append(*record, r)
	}
}

// ReplayIQ replays recorded reads on a bare pipeline, keeping its window as
// the live one was kept, and stores each read's occupancy in out: through
// the running count, or through the scanIQ oracle when scan is set.
func ReplayIQ(reads []IQRead, scan bool, out []int) {
	cfg := DefaultConfig()
	p := &Pipeline{cfg: cfg, window: make([]inflight, 0, 2*cfg.ROBEntries+2)}
	var base uint64 // sequence number of window[0]
	for i := range reads {
		r := &reads[i]
		for _, d := range r.New {
			p.window = append(p.window, inflight{done: d})
			if !scan && d > p.cycle {
				p.pending.add(d)
			}
		}
		p.cycle = r.Cycle
		p.head = int(r.Committed - base)
		if scan {
			out[i] = scanIQ(p)
		} else {
			out[i] = p.inIQ()
		}
		if p.head > cfg.ROBEntries {
			base += uint64(p.head)
			p.compact()
		}
	}
}
