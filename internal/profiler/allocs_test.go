package profiler

import (
	"fmt"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// TestSamplePathAllocFree: the steady-state sample path — the loop
// BenchmarkSamplePath times — allocates nothing per sample, with the
// temporal recorder on and with it off. The opt-in wall-clock gate checks
// the same beside its timings; this is the count alone, on every run.
func TestSamplePathAllocFree(t *testing.T) {
	for _, window := range []uint64{DefaultConfig().TemporalWindow, 0} {
		cfg := DefaultConfig()
		cfg.Period = 1
		cfg.TemporalWindow = window
		r := testing.Benchmark(func(b *testing.B) { benchSamplePath(b, cfg) })
		if r.N == 0 {
			t.Fatalf("window %d: the sample-path benchmark did not run", window)
		}
		if a := r.AllocsPerOp(); a != 0 {
			t.Errorf("window %d: %d allocations per sample over %d samples, want 0", window, a, r.N)
		}
	}
}

// TestNewContextAllocs: a sample in a calling context the tree has not
// seen costs one allocation for each node it creates. The metric rows of
// the new leaves come from the tree's slab, a small fraction of an
// allocation each, so they must not become a second allocation per node.
func TestNewContextAllocs(t *testing.T) {
	const leaves, depth = 20_000, 8 // 4^8 > leaves: every path is fresh
	var ids [4]cct.FrameID
	for i := range ids {
		ids[i] = cct.InternFrame(cct.Frame{Kind: cct.KindCall, Module: "exe", Name: fmt.Sprint("ctx", i), File: "ctx.c"})
	}
	paths := make([][]cct.FrameID, leaves)
	for i := range paths {
		paths[i] = make([]cct.FrameID, depth)
		for d, x := 0, i; d < depth; d, x = d+1, x/4 {
			paths[i][depth-1-d] = ids[x%4]
		}
	}
	var v metric.Vector
	v[metric.Samples], v[metric.Latency] = 1, 30
	var tr *cct.Tree
	allocs := testing.AllocsPerRun(1, func() {
		tr = cct.New()
		for _, p := range paths {
			tr.AddSampleIDs(p, &v)
		}
	})
	nodes := tr.NumNodes()
	if got := tr.Total()[metric.Samples]; got != leaves {
		t.Fatalf("tree holds %d samples, want %d", got, leaves)
	}
	if per := allocs / float64(nodes); per > 1.05 {
		t.Errorf("%.0f allocations for %d new nodes (%d of them sampled leaves): %.3f a node, want <= 1.05",
			allocs, nodes, leaves, per)
	}
}
