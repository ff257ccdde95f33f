package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"perspectron"
	"perspectron/internal/sim"
	"perspectron/internal/trace"
)

// simStats accumulates single-thread simulator work measured from outside:
// machine construction, RunStream wall time, committed instructions and
// heap bytes allocated while running.
type simStats struct {
	machines   int
	newMachine time.Duration
	run        time.Duration
	insts      uint64
	alloc      uint64
}

func (s simStats) record(r *result) {
	if s.run <= 0 || s.insts == 0 {
		return
	}
	r.layer["sim.insts_per_s"] = float64(s.insts) / s.run.Seconds()
	r.layer["sim.new_machine_ms"] = ms(s.newMachine) / float64(s.machines)
	r.layer["sim.alloc_kb_per_kinst"] = float64(s.alloc) / 1024 / (float64(s.insts) / 1000)
}

// simEpisode runs prog on a fresh default machine on the calling goroutine,
// folding every raw counter-delta vector into h in delivery order.
func simEpisode(prog perspectron.Workload, seed int64, maxInsts, interval uint64, h hash.Hash, st *simStats) {
	t0 := time.Now()
	m := sim.NewMachine(sim.DefaultConfig())
	t1 := time.Now()
	stream := prog.Stream(rand.New(rand.NewSource(seed)))
	before := memSnapshot()
	t2 := time.Now()
	m.RunStream(stream, maxInsts, interval, func(_ int, v []float64) bool {
		hashRaw(h, v)
		return true
	})
	st.run += time.Since(t2)
	st.alloc += memSince(before).bytes
	st.newMachine += t1.Sub(t0)
	st.machines++
	st.insts += m.Pipe.Committed()
}

// trainSimPass simulates every training run serially on the calling
// goroutine, in collection order and with CollectCtx's first-attempt seeds,
// and returns the digest of all raw counter streams.
func trainSimPass(progs []perspectron.Workload, cc trace.CollectConfig, st *simStats) string {
	h := sha256.New()
	ji := 0
	for _, p := range progs {
		for run := 0; run < cc.Runs; run++ {
			simEpisode(p, cc.Seed*1_000_003+int64(ji)*7919, cc.MaxInsts, cc.Interval, h, st)
			ji++
		}
	}
	return digest(h)
}

// serveSimPass simulates the first serveProbeEpisodes episodes of each serve
// stream serially and returns the digest of their raw counter streams.
func serveSimPass(streams []perspectron.Workload, v int, sz scale, interval uint64, st *simStats) string {
	h := sha256.New()
	for id, prog := range streams {
		for ep := 0; ep < sz.serveProbeEpisodes; ep++ {
			simEpisode(prog, episodeSeed(serveSeed(v, sz), id, ep), sz.serveInsts, interval, h, st)
		}
	}
	return digest(h)
}

// hashRaw folds one counter-delta vector into h, bit for bit.
func hashRaw(h hash.Hash, v []float64) {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(x))
	}
	h.Write(buf)
}

func digest(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// episodeDigest pins one served episode: a short hash of every sample's
// exact score and flag, then ":" and the flagged count.
func episodeDigest(scores []float64, flags []bool) string {
	h := sha256.New()
	for i := range scores {
		fmt.Fprintf(h, "%d %016x %t\n", i, math.Float64bits(scores[i]), flags[i])
	}
	return hex.EncodeToString(h.Sum(nil))[:8] + ":" + strconv.Itoa(countTrue(flags))
}

// pinFlags extracts the flagged count from an episode pin.
func pinFlags(pin string) int {
	_, n, _ := strings.Cut(pin, ":")
	k, _ := strconv.Atoi(n)
	return k
}

// replayed is one episode streamed serially through Session.NextRaw.
type replayed struct {
	raws []perspectron.RawSample
	wait time.Duration // summed NextRaw waits
}

// replayEpisode streams one serve episode through a Session on its own,
// timing each NextRaw hand-off.
func replayEpisode(det *perspectron.Detector, prog perspectron.Workload, seed int64, maxInsts uint64) (*replayed, error) {
	ctx := context.Background()
	sess, err := perspectron.NewSession(ctx, det, nil, perspectron.SessionConfig{
		Workload: prog, MaxInsts: maxInsts, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	out := &replayed{}
	for {
		t := time.Now()
		rs, ok := sess.NextRaw(ctx)
		if !ok {
			break
		}
		out.wait += time.Since(t)
		out.raws = append(out.raws, rs)
	}
	if err := sess.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// scoreEpisode scores a replayed episode the way serve's shard scorers do
// and returns its pin.
func scoreEpisode(scorer *perspectron.RawScorer, ep *replayed) string {
	scores := make([]float64, len(ep.raws))
	flags := make([]bool, len(ep.raws))
	for i, rs := range ep.raws {
		scores[i], flags[i], _ = scorer.Detect(rs)
	}
	return episodeDigest(scores, flags)
}

// serveProbe holds the per-layer readings of the serve-stream trace.
type serveProbe struct {
	sim             simStats
	nextMsPerSample float64
	scoreNs         float64
	attributionUs   float64
}

func (p serveProbe) record(r *result) {
	p.sim.record(r)
	r.layer["trace.next_ms_per_sample"] = p.nextMsPerSample
	r.layer["perspectron.score_ns"] = p.scoreNs
	r.layer["perspectron.attribution_us"] = p.attributionUs
}

// scoreReps repeats each timed scoring call so one reading spans far more
// than the clock's resolution.
const scoreReps = 50

// probeServe replays the first episodes of each serve stream serially: the
// Session.NextRaw hand-off, RawScorer.Detect and Attribution timings, then a
// bare single-thread RunStream of the same episodes. The replayed verdicts
// must match the served pins and the bare simulator's raw counter streams
// must match both the hand-off's and the pinned digest.
func probeServe(r *result, o opts, sz scale, v int, pins *pinSet) (serveProbe, error) {
	var p serveProbe
	det, err := perspectron.LoadFile(filepath.Join(o.data, detectorFixture))
	if err != nil {
		return p, err
	}
	scorer, err := perspectron.NewRawScorer(det, nil)
	if err != nil {
		return p, err
	}
	streams, err := serveStreams()
	if err != nil {
		return p, err
	}
	var eps []*replayed
	var wait time.Duration
	samples := 0
	handoff := sha256.New()
	for id, prog := range streams {
		for ep := 0; ep < sz.serveProbeEpisodes; ep++ {
			rp, err := replayEpisode(det, prog, episodeSeed(serveSeed(v, sz), id, ep), sz.serveInsts)
			if err != nil {
				return p, fmt.Errorf("replaying %s episode %d: %w", prog.Info().Name, ep, err)
			}
			eps = append(eps, rp)
			wait += rp.wait
			samples += len(rp.raws)
			for _, rs := range rp.raws {
				hashRaw(handoff, rs.Raw)
			}
			got, want := scoreEpisode(scorer, rp), pins.Serve[id][v*sz.serveStride+ep]
			r.check(got == want, "replayed %s episode %d: digest %s, pinned %s", prog.Info().Name, ep, got, want)
		}
	}
	bare := serveSimPass(streams, v, sz, det.Interval, &p.sim)
	r.check(bare == pins.ServeSim[v], "simulator raw-stream digest %s, pinned %s", bare, pins.ServeSim[v])
	r.check(digest(handoff) == bare, "Session.NextRaw delivered different counters than a bare RunStream")
	p.nextMsPerSample = ms(wait) / float64(samples)

	start := time.Now()
	for i := 0; i < scoreReps; i++ {
		for _, ep := range eps {
			for _, rs := range ep.raws {
				scorer.Detect(rs)
			}
		}
	}
	p.scoreNs = float64(time.Since(start).Nanoseconds()) / float64(scoreReps*samples)

	var attr time.Duration
	attributed := 0
	for _, ep := range eps {
		for _, rs := range ep.raws {
			if _, flagged, _ := scorer.Detect(rs); !flagged {
				continue
			}
			t := time.Now()
			for i := 0; i < scoreReps; i++ {
				if _, _, err := scorer.Attribution(5); err != nil {
					return p, err
				}
			}
			attr += time.Since(t)
			attributed += scoreReps
		}
	}
	if attributed > 0 {
		p.attributionUs = float64(attr.Nanoseconds()) / 1000 / float64(attributed)
	}
	return p, nil
}
