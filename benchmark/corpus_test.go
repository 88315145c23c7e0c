package main

import (
	"testing"

	"dcprof/internal/analysis"
	"dcprof/internal/metric"
)

// TestDenseCorpusPinned pins the port of the dense-d6-40fn-v1 shape to
// what BENCH_merge_scale.json's generator (scaleProfile in
// internal/analysis/shard_test.go) produces: the merged node counts of
// its two corpora, and one sample per generated sample. The counts must
// hold on every seed, because the seed may move values but not shape.
func TestDenseCorpusPinned(t *testing.T) {
	for _, c := range []struct {
		files, samples, nodes int
	}{
		{1000, 120, 12964},
		{10000, 40, 7204},
	} {
		for _, seed := range []int64{1, 2} {
			db := analysis.Merge(denseProfiles(seed, 0, c.files, c.samples), 1)
			if got := db.Merged.NumNodes(); got != c.nodes {
				t.Errorf("seed %d: %d files x %d samples merge to %d nodes, want %d", seed, c.files, c.samples, got, c.nodes)
			}
			if got, want := db.Merged.Total()[metric.Samples], uint64(c.files*c.samples); got != want {
				t.Errorf("seed %d: %d files x %d samples carry %d samples, want %d", seed, c.files, c.samples, got, want)
			}
		}
	}
}

// TestDenseCorpusSeedMovesValues: two seeds must not be the same input.
func TestDenseCorpusSeedMovesValues(t *testing.T) {
	a := denseProfile(1, 0, 40).Total()[metric.Latency]
	b := denseProfile(2, 0, 40).Total()[metric.Latency]
	if a == b {
		t.Errorf("seeds 1 and 2 generate the same latencies (total %d)", a)
	}
}
