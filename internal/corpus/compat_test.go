package corpus

import (
	"compress/gzip"
	"context"
	"encoding/gob"
	"os"
	"testing"

	"perspectron/internal/stats"
	"perspectron/internal/trace"
	"perspectron/internal/workload"
)

// TestDatasetKeyGolden pins the dataset key of the tiny corpus. On-disk
// caches are addressed by this key, so a change to the fingerprint's bytes
// silently orphans every existing cache (and the CI cache-reuse step).
func TestDatasetKeyGolden(t *testing.T) {
	const want = "7b12b1f42a058822a401826da744df63"
	if got := DatasetKey(tinyCorpus(), tinyConfig()); got != want {
		t.Fatalf("DatasetKey = %s, want %s", got, want)
	}
}

// legacyDataset is trace.Dataset as earlier versions wrote it to disk: it
// also carried a Retried count of re-attempted collection runs.
type legacyDataset struct {
	FeatureNames []string
	Components   []stats.Component
	Interval     uint64
	Samples      []trace.Sample
	Dropped      []string
	Retried      int
}

type legacyArtifact struct {
	Format  int
	Key     string
	Dataset *legacyDataset
}

// TestStoreLoadsLegacyRetriedArtifact: an artifact whose gob Dataset still
// has a Retried field is a disk hit that serves the same samples.
func TestStoreLoadsLegacyRetriedArtifact(t *testing.T) {
	fresh := NewStore().Dataset(tinyCorpus(), tinyConfig())
	dir := t.TempDir()
	key := DatasetKey(tinyCorpus(), tinyConfig())

	s := NewStore()
	f, err := os.Create(s.path(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	zw := gzip.NewWriter(f)
	err = gob.NewEncoder(zw).Encode(legacyArtifact{Format: diskFormat, Key: key, Dataset: &legacyDataset{
		FeatureNames: fresh.FeatureNames,
		Components:   fresh.Components,
		Interval:     fresh.Interval,
		Samples:      fresh.Samples,
		Retried:      2,
	}})
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	s.collect = func(context.Context, []workload.Program, trace.CollectConfig) *trace.Dataset {
		t.Fatal("legacy artifact was re-collected instead of loaded")
		return nil
	}
	if err := s.SetCacheDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded := s.Dataset(tinyCorpus(), tinyConfig())
	if !identical(fresh, loaded) {
		t.Fatalf("legacy artifact did not load byte-identical samples")
	}
	if st := s.Stats(); st.Collections != 0 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want pure disk hit", st)
	}
}
