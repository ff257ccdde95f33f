package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"perspectron"
	"perspectron/internal/serve"
)

// serveStreams returns the two monitored streams: a benign SPEC-like
// kernel and Spectre v1 leaking over flush+reload.
func serveStreams() ([]perspectron.Workload, error) {
	var bzip2 perspectron.Workload
	for _, w := range perspectron.BenignWorkloads() {
		if w.Info().Name == "bzip2" {
			bzip2 = w
		}
	}
	attack := perspectron.AttackByName("spectreV1", "fr")
	if bzip2 == nil || attack == nil {
		return nil, errors.New("serve streams bzip2 / spectreV1 not found")
	}
	return []perspectron.Workload{bzip2, attack}, nil
}

// serveSeed is the supervisor seed of an input variant. Serve derives
// episode e's seed as Seed + 101·e (see episodeSeed), so variant v serves
// the pinned episode sequence from episode v·serveStride on.
func serveSeed(v int, sz scale) int64 { return int64(v*sz.serveStride) * 101 }

// episodeSeed mirrors serve's per-episode seed derivation (worker id and
// episode number varied off Config.Seed), so the traced replay and the pin
// generator simulate exactly the episodes the supervisor served.
func episodeSeed(base int64, worker, episode int) int64 {
	return base + int64(worker)*10_007 + int64(episode)*101
}

// episode collects one served episode's verdicts by sample index.
type episode struct {
	scores []float64
	flags  []bool
	seen   map[int]bool
}

// verdicts folds a verdict log's sample records (recovery stamps skipped)
// into what the checks and metrics need, without keeping the records.
type verdicts struct {
	records, shed, errors int64
	modes                 map[string]int64 // scored records per ladder mode
	duplicates            int64
	lat, queue, batch     []float64
	score, logMs          []float64
	eps                   map[string]map[int]*episode // stream -> episode
}

func (vs *verdicts) add(rec serve.VerdictRecord) {
	if rec.Mode == serve.ModeRecovery {
		return
	}
	vs.records++
	switch {
	case rec.Shed:
		vs.shed++
		return
	case rec.Mode == "error":
		vs.errors++
		return
	}
	vs.modes[rec.Mode]++
	vs.lat = append(vs.lat, rec.LatencyMs)
	vs.queue = append(vs.queue, rec.QueueMs)
	vs.batch = append(vs.batch, rec.BatchMs)
	vs.score = append(vs.score, rec.ScoreMs)
	vs.logMs = append(vs.logMs, rec.LatencyMs-rec.QueueMs-rec.BatchMs-rec.ScoreMs)
	if vs.eps[rec.Worker] == nil {
		vs.eps[rec.Worker] = map[int]*episode{}
	}
	e := vs.eps[rec.Worker][rec.Episode]
	if e == nil {
		e = &episode{seen: map[int]bool{}}
		vs.eps[rec.Worker][rec.Episode] = e
	}
	if e.seen[rec.Sample] {
		vs.duplicates++
	}
	e.seen[rec.Sample] = true
	for len(e.scores) <= rec.Sample {
		e.scores = append(e.scores, 0)
		e.flags = append(e.flags, false)
	}
	e.scores[rec.Sample], e.flags[rec.Sample] = rec.Score, rec.Flagged
}

// readVerdicts streams the verdict log at path through serve's scanner.
func readVerdicts(path string) (*verdicts, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	vs := &verdicts{modes: map[string]int64{}, eps: map[string]map[int]*episode{}}
	sc := serve.NewVerdictScanner(bufio.NewReader(f))
	for rec, ok := sc.Next(); ok; rec, ok = sc.Next() {
		vs.add(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading verdict log: %w", err)
	}
	if sc.Corrupt() > 0 {
		return nil, fmt.Errorf("verdict log has %d corrupt lines", sc.Corrupt())
	}
	return vs, nil
}

// serveRun is one supervisor lifetime's observable outcome.
type serveRun struct {
	wall   time.Duration
	vs     *verdicts
	health serve.Health
	state  serve.ServeState
	mem    memDelta
}

// runServe copies the detector checkpoint into dir, starts a supervisor in
// crash-safe file mode with the service defaults, serves until the timeout
// or until the first stream has served maxEpisodes, drains, and reads back
// the verdict log and the durable ledger. Stopping at the first stream's cap
// keeps both streams busy for the whole measured span.
func runServe(o opts, sz scale, dir string, seed int64, maxEpisodes int, timeout time.Duration) (*serveRun, error) {
	streams, err := serveStreams()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	detPath := filepath.Join(dir, "detector.json")
	if err := copyFile(filepath.Join(o.data, detectorFixture), detPath); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "verdicts.jsonl")
	sup, err := serve.New(serve.Config{
		DetectorPath:   detPath,
		Workloads:      streams,
		MaxInsts:       sz.serveInsts,
		Seed:           seed,
		MaxEpisodes:    maxEpisodes,
		VerdictLogPath: logPath,
	})
	if err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	stop := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, w := range sup.Health().Workers {
					if w.Episodes >= int64(maxEpisodes) {
						cancel()
						return
					}
				}
			}
		}
	}()
	before := memSnapshot()
	start := time.Now()
	err = sup.Run(ctx)
	run := &serveRun{wall: time.Since(start), mem: memSince(before), health: sup.Health()}
	close(stop)
	watch.Wait()
	if err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
		return nil, fmt.Errorf("serve.Run: %w", err)
	}
	if run.vs, err = readVerdicts(logPath); err != nil {
		return nil, err
	}
	b, err := os.ReadFile(logPath + ".state")
	if err != nil {
		return nil, fmt.Errorf("reading ledger: %w", err)
	}
	if err := json.Unmarshal(b, &run.state); err != nil {
		return nil, fmt.Errorf("decoding ledger: %w", err)
	}
	return run, nil
}

// serveStream is the serve-stream workload: a few set-ups (checkpoint load,
// supervisor start-up with recovery, a warm-up until one stream has served
// a few episodes), then one supervisor serving both streams for the window.
func serveStream(o opts, sz scale, pins *pinSet) (*result, error) {
	r := newResult()
	zeroLayers(r)
	v := o.variant()
	var setups []float64
	for i := 0; i < sz.serveSetupReps; i++ {
		start := time.Now()
		det, err := perspectron.LoadFile(filepath.Join(o.data, detectorFixture))
		if err != nil {
			return nil, fmt.Errorf("loading detector: %w", err)
		}
		r.check(det.Checksum == pins.Detector, "detector fixture checksum %s, pinned %s", det.Checksum, pins.Detector)
		dir := filepath.Join(o.work, fmt.Sprintf("serve-setup-%d", i))
		if _, err := runServe(o, sz, dir, serveSeed(v, sz), sz.serveWarmEpisodes, time.Minute); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		os.RemoveAll(dir)
	}
	r.e2e["setup_s"] = median(setups)

	run, err := runServe(o, sz, filepath.Join(o.work, "serve"), serveSeed(v, sz), sz.serveCap, o.window())
	if err != nil {
		return nil, err
	}
	checkServe(r, run, pins, v, sz)
	vs := run.vs
	r.check(len(vs.lat) >= sz.minVerdicts, "%d scored verdicts, the p99 needs at least %d", len(vs.lat), sz.minVerdicts)
	perSec := float64(len(vs.lat)) / run.wall.Seconds()
	r.e2e["samples_per_s"] = perSec
	r.e2e["latency_p50_ms"] = median(vs.lat)
	r.e2e["latency_p99_ms"] = quantile(vs.lat, 0.99)
	r.setShares()
	r.e2e["peak_rss_mb"] = peakRSSMB()
	if !o.trace {
		return r, nil
	}

	r.layer["serve.queue_ms_p50"] = median(vs.queue)
	r.layer["serve.queue_ms_p99"] = quantile(vs.queue, 0.99)
	r.layer["serve.batch_ms_p50"] = median(vs.batch)
	r.layer["serve.score_ms_p50"] = median(vs.score)
	r.layer["serve.log_ms_p50"] = median(vs.logMs)
	run.mem.record(r)
	p, err := probeServe(r, o, sz, v, pins)
	if err != nil {
		return nil, err
	}
	p.record(r)
	if p.nextMsPerSample > 0 {
		streams := float64(len(run.health.Workers))
		r.layer["serve.producer_efficiency"] = perSec / (streams / (p.nextMsPerSample / 1000))
	}
	return r, nil
}

// checkServe applies the accounting invariants and the output pins to one
// serve run, and counts the run's attempted and failed samples.
func checkServe(r *result, run *serveRun, pins *pinSet, v int, sz scale) {
	var enq, shed int64
	for _, sh := range run.health.Shards {
		r.check(sh.Enqueued == sh.Scored+sh.Shed, "shard %d: enqueued %d != scored %d + shed %d",
			sh.Shard, sh.Enqueued, sh.Scored, sh.Shed)
		enq += sh.Enqueued
		shed += sh.Shed
	}
	vs, st := run.vs, run.state
	r.check(vs.records == enq, "verdict log holds %d sample records, %d enqueued", vs.records, enq)
	r.check(vs.shed == shed, "verdict log holds %d shed records, shards shed %d", vs.shed, shed)
	r.check(st.Enqueued == st.Records+st.Lost, "ledger: enqueued %d != records %d + lost %d",
		st.Enqueued, st.Records, st.Lost)
	r.check(st.Records == vs.records, "ledger records %d, log holds %d", st.Records, vs.records)
	if d := run.health.Durable; d != nil {
		r.check(d.Enqueued == st.Enqueued && d.Records == st.Records && d.Lost == st.Lost,
			"health ledger %d/%d/%d disagrees with the state file %d/%d/%d",
			d.Enqueued, d.Records, d.Lost, st.Enqueued, st.Records, st.Lost)
	} else {
		r.check(false, "health reports no durable ledger in file mode")
	}
	r.check(vs.duplicates == 0, "%d duplicate verdicts", vs.duplicates)
	for mode, n := range vs.modes {
		r.check(mode == "detector", "%d verdicts scored in mode %q", n, mode)
	}

	failed := shed + vs.errors + st.Lost
	names := map[string]int{}
	for i, w := range run.health.Workers {
		names[w.Worker] = i
	}
	for worker, byEp := range vs.eps {
		id, ok := names[worker]
		if !ok || id >= len(pins.Serve) {
			r.check(false, "verdicts from unpinned stream %s", worker)
			continue
		}
		want := pins.Serve[id][v*sz.serveStride:]
		var order []int
		for ep := range byEp {
			order = append(order, ep)
		}
		sort.Ints(order)
		flagged, pinnedFlagged := 0, 0
		for i, ep := range order {
			e := byEp[ep]
			complete := len(e.seen) == pins.SamplesPerEpisode && len(e.scores) == pins.SamplesPerEpisode
			r.check(ep == i, "stream %s: episode %d missing", worker, i)
			if !complete {
				if i != len(order)-1 {
					failed += int64(len(e.seen)) // cut short mid-run: an episode failure
				}
				continue // the last episode is cut by the drain at the deadline
			}
			if ep >= len(want) {
				r.check(false, "stream %s: episode %d beyond the %d pinned", worker, ep, len(want))
				continue
			}
			got := episodeDigest(e.scores, e.flags)
			r.check(got == want[ep], "stream %s episode %d: verdict digest %s, pinned %s", worker, ep, got, want[ep])
			flagged += countTrue(e.flags)
			pinnedFlagged += pinFlags(want[ep])
		}
		r.check(flagged == pinnedFlagged, "stream %s: %d flagged verdicts, pinned %d", worker, flagged, pinnedFlagged)
	}
	r.attempted = int(enq)
	r.failed = int(failed)
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
