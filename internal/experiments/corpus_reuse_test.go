package experiments

import (
	"testing"

	"perspectron"
	"perspectron/internal/corpus"
)

// TestSingleCollectionAcrossExperiments is the collect-once acceptance test:
// a sweep of base-corpus experiments — including the perspectron.Train and
// TrainClassifier calls that Multiway, Weights, Fig3 and Sched make — must
// trigger exactly one base-corpus collection in the shared artifact store.
// Fig5 then adds exactly its two longer-granularity corpora; its 10K-interval
// request is served from the store.
func TestSingleCollectionAcrossExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments")
	}
	cfg := QuickConfig()
	cfg.Seed = 424242 // unique to this test: no other corpus shares the key

	store := corpus.Default()
	before := store.Stats()

	Table1(cfg)
	Table3(cfg)
	Multiway(cfg)
	Weights(cfg)
	Fig3(cfg)
	Sched(cfg)

	// Detector training through the public API, exactly as FaultTol invokes
	// it: same workload identities, same collect config, same store.
	if _, err := perspectron.Train(perspectron.TrainingWorkloads(), cfg.options()); err != nil {
		t.Fatal(err)
	}

	d := store.Stats().Sub(before)
	if d.Collections != 1 {
		t.Fatalf("base-corpus experiments ran %d collections, want exactly 1 (stats delta: %s)",
			d.Collections, d)
	}
	if d.MemoryHits == 0 {
		t.Fatalf("no memory hits recorded across the sweep (stats delta: %s)", d)
	}

	// Fig5 sweeps 10K/50K/100K granularities: the 10K corpus is the one
	// already collected above; only the two longer-interval corpora are new.
	mid := store.Stats()
	Fig5(cfg)
	d5 := store.Stats().Sub(mid)
	if d5.Collections != 2 {
		t.Fatalf("Fig5 ran %d collections, want exactly 2 (50K and 100K; stats delta: %s)",
			d5.Collections, d5)
	}
}
