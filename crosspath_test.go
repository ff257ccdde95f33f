package perspectron

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"
)

// crossPathWorkloads returns the attack and benign streams the cross-path
// property scores: spectreV1 on the flush+reload channel and bzip2.
func crossPathWorkloads(t *testing.T) []Workload {
	t.Helper()
	ws := []Workload{AttackByName("spectreV1", "fr")}
	for _, w := range BenignWorkloads() {
		if w.Info().Name == "bzip2" {
			ws = append(ws, w)
		}
	}
	if len(ws) != 2 {
		t.Fatalf("bzip2 missing from the benign corpus")
	}
	return ws
}

// sameFloat compares by IEEE-754 bit pattern, so -0/+0 or any last-ulp
// drift between two scoring paths fails.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestScoringPathsAgree is the cross-path property behind the one scoring
// core: every public way to score a run — Monitor, MonitorFaulty with no
// faults, MonitorWithPolicy with a policy that never acts, Session.Next,
// Session.NextRaw through a RawScorer, and AttributeFired over the fired
// set — must produce bitwise-identical per-sample scores, flags and
// coverage; Classify's votes must equal the session and RawScorer classes;
// and Session.Attribution must equal RawScorer.Attribution.
func TestScoringPathsAgree(t *testing.T) {
	det := sharedDetector(t)
	cls := sharedClassifier(t)
	ctx := context.Background()
	const maxInsts = 60_000
	const seed = 7
	never := func(float64, []Mitigation) []Mitigation { return nil }

	for _, w := range crossPathWorkloads(t) {
		name := w.Info().Name
		mon, err := det.Monitor(w, maxInsts, seed)
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := det.MonitorFaulty(w, maxInsts, seed, FaultConfig{})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := det.MonitorWithPolicy(w, maxInsts, seed, never)
		if err != nil {
			t.Fatal(err)
		}
		votes, err := cls.Classify(w, maxInsts, seed)
		if err != nil {
			t.Fatal(err)
		}

		cfg := SessionConfig{Workload: w, MaxInsts: maxInsts, Seed: seed}
		inline, err := NewSession(ctx, det, cls, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer inline.Close()
		rawSess, err := NewSession(ctx, det, cls, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer rawSess.Close()
		scorer, err := NewRawScorer(det, cls)
		if err != nil {
			t.Fatal(err)
		}

		sessVotes := map[string]int{}
		coverageSum := 0.0
		n := 0
		for {
			v, ok1 := inline.Next(ctx)
			rs, ok2 := rawSess.NextRaw(ctx)
			if ok1 != ok2 {
				t.Fatalf("%s: streams diverged at sample %d", name, n)
			}
			if !ok1 {
				break
			}
			score, flagged, coverage := scorer.Detect(rs)
			if !sameFloat(score, v.Score) || flagged != v.Flagged || !sameFloat(coverage, v.Coverage) {
				t.Fatalf("%s sample %d: RawScorer.Detect (%v %v %v) != Session.Next (%v %v %v)",
					name, n, score, flagged, coverage, v.Score, v.Flagged, v.Coverage)
			}
			reScore, _, err := det.AttributeFired(scorer.LastFired(nil), 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameFloat(reScore, score) {
				t.Fatalf("%s sample %d: AttributeFired %v != Detect %v", name, n, reScore, score)
			}
			class, classScore, _ := scorer.Classify(rs)
			if class != v.Class || !sameFloat(classScore, v.ClassScore) {
				t.Fatalf("%s sample %d: RawScorer.Classify (%s %v) != Session.Next (%s %v)",
					name, n, class, classScore, v.Class, v.ClassScore)
			}
			sessFired, sessAttr, err := inline.Attribution(0)
			if err != nil {
				t.Fatal(err)
			}
			rawFired, rawAttr, err := scorer.Attribution(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(sessFired) != len(rawFired) || len(sessAttr) != len(rawAttr) {
				t.Fatalf("%s sample %d: Session.Attribution has %d fired / %d contributions, RawScorer %d / %d",
					name, n, len(sessFired), len(sessAttr), len(rawFired), len(rawAttr))
			}
			for i := range sessFired {
				if sessFired[i] != rawFired[i] {
					t.Fatalf("%s sample %d: fired[%d] session %d != raw %d", name, n, i, sessFired[i], rawFired[i])
				}
			}
			for i := range sessAttr {
				if sessAttr[i] != rawAttr[i] {
					t.Fatalf("%s sample %d: attr[%d] session %+v != raw %+v", name, n, i, sessAttr[i], rawAttr[i])
				}
			}

			for _, rep := range []struct {
				path string
				r    *Report
			}{{"Monitor", mon}, {"MonitorFaulty", faulty}, {"MonitorWithPolicy", &pol.Report}} {
				if n >= len(rep.r.Samples) {
					t.Fatalf("%s: %s has %d samples, session has more", name, rep.path, len(rep.r.Samples))
				}
				sp := rep.r.Samples[n]
				if sp.Index != v.Sample || sp.Insts != v.Insts || !sameFloat(sp.Score, v.Score) || sp.Flagged != v.Flagged {
					t.Fatalf("%s sample %d: %s %+v != Session.Next %+v", name, n, rep.path, sp, *v)
				}
			}
			sessVotes[v.Class]++
			coverageSum += v.Coverage
			n++
		}
		if n == 0 {
			t.Fatalf("%s: no samples compared", name)
		}
		meanCoverage := coverageSum / float64(n)
		for _, rep := range []struct {
			path string
			r    *Report
		}{{"Monitor", mon}, {"MonitorFaulty", faulty}, {"MonitorWithPolicy", &pol.Report}} {
			if len(rep.r.Samples) != n {
				t.Fatalf("%s: %s has %d samples, session %d", name, rep.path, len(rep.r.Samples), n)
			}
			if !sameFloat(rep.r.Coverage, meanCoverage) {
				t.Fatalf("%s: %s coverage %v != session mean %v", name, rep.path, rep.r.Coverage, meanCoverage)
			}
			if rep.r.FirstFlag != mon.FirstFlag || rep.r.Detected != mon.Detected || rep.r.Degraded != mon.Degraded {
				t.Fatalf("%s: %s (first %d detected %v degraded %v) != Monitor (%d %v %v)", name, rep.path,
					rep.r.FirstFlag, rep.r.Detected, rep.r.Degraded, mon.FirstFlag, mon.Detected, mon.Degraded)
			}
		}
		if len(votes.Votes) != len(sessVotes) {
			t.Fatalf("%s: Classify votes %v != session classes %v", name, votes.Votes, sessVotes)
		}
		for class, k := range sessVotes {
			if votes.Votes[class] != k {
				t.Fatalf("%s: Classify votes %v != session classes %v", name, votes.Votes, sessVotes)
			}
		}
	}
}

// TestConcurrentMonitorOnLoadedModel: Monitor and Classify on one freshly
// Loaded model from several goroutines at once. Models are read-only while
// scoring, so under -race this must report no data race.
func TestConcurrentMonitorOnLoadedModel(t *testing.T) {
	var buf bytes.Buffer
	if err := sharedDetector(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	det, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := sharedClassifier(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	cls, err := LoadClassifier(&buf)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 2; i++ {
		seed := int64(i + 1)
		wg.Add(2)
		go func() {
			defer wg.Done()
			_, err := det.Monitor(AttackByName("spectreV1", "fr"), 30_000, seed)
			errs <- err
		}()
		go func() {
			defer wg.Done()
			_, err := cls.Classify(AttackByName("flush+reload", ""), 30_000, seed)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
