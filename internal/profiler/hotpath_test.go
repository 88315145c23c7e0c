package profiler

// Hot-path cache correctness: the last-block and last-node caches must make
// steady-state sampling cheap WITHOUT ever changing attribution — every
// test here drives a workload where a stale cache entry would visibly
// misattribute, and checks both the profile and the telemetry counters that
// prove the caches actually engaged.

import (
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/mem"
	"dcprof/internal/metric"
	"dcprof/internal/telemetry"
)

// TestBlockCacheServesRepeatsAndInvalidatesOnFree: consecutive samples in
// the same block are served by the thread's 1-entry cache; freeing the
// block republishes the snapshot, so the very next sample at the same
// address must classify as unknown data, never as the dead block.
func TestBlockCacheServesRepeatsAndInvalidatesOnFree(t *testing.T) {
	reg := telemetry.New()
	cfg := DefaultConfig()
	cfg.Period = 1
	cfg.Telemetry = reg
	f := newFixture(t, cfg)

	f.th.At(5)
	big := f.th.Malloc(64 * 1024)
	const loads = 20
	for i := 0; i < loads; i++ {
		f.th.Load(big+64, 8)
	}
	f.th.Free(big)
	// Same address, block gone: must land in unknown data. A stale cache
	// hit would charge the freed heap variable instead.
	for i := 0; i < loads; i++ {
		f.th.Load(big+64, 8)
	}
	f.finish()

	prof := f.mergedProfile()
	heapN := prof.Trees[cct.ClassHeap].Total()[metric.Samples]
	unkN := prof.Trees[cct.ClassUnknown].Total()[metric.Samples]
	if heapN > loads {
		t.Errorf("heap samples = %d, want <= %d (post-free samples leaked into heap tree)", heapN, loads)
	}
	if unkN < loads-2 {
		t.Errorf("unknown samples = %d, want >= %d (post-free loads)", unkN, loads-2)
	}

	s := reg.Snapshot()
	if got := s.Counters["profiler.heapmap.cache_hits"]; got < loads/2 {
		t.Errorf("heapmap.cache_hits = %d, want >= %d (repeat samples in one block)", got, loads/2)
	}
	// One tracked alloc + one tracked free = exactly two snapshot rebuilds.
	if got := s.Counters["profiler.heapmap.snapshot_rebuilds"]; got != 2 {
		t.Errorf("heapmap.snapshot_rebuilds = %d, want 2", got)
	}
	if got := s.Gauges["profiler.cct.interner_frames"]; got.Value == 0 {
		t.Error("cct.interner_frames gauge never set")
	}
}

// TestLastNodeCacheCoalescesSteadyState: a run of identical samples must be
// attributed through the last-node cache (telemetry proves it) and produce
// exactly the same single-node profile a cache-free insert would.
func TestLastNodeCacheCoalescesSteadyState(t *testing.T) {
	reg := telemetry.New()
	cfg := DefaultConfig()
	cfg.Period = 1
	cfg.Telemetry = reg
	f := newFixture(t, cfg)

	f.th.At(5)
	big := f.th.Malloc(64 * 1024)
	const loads = 64
	for i := 0; i < loads; i++ {
		f.th.Load(big+mem.Addr(i%8)*64, 8)
	}
	f.finish()

	s := reg.Snapshot()
	hits := s.Counters["profiler.sample.lastnode_hits"]
	misses := s.Counters["profiler.sample.lastnode_misses"]
	if hits < loads/2 {
		t.Errorf("lastnode_hits = %d, want >= %d for a steady-state run", hits, loads/2)
	}
	// Every recorded sample is either a hit or a miss; none may vanish.
	taken, dropped := s.Counters["profiler.samples.taken"], s.Counters["profiler.samples.dropped"]
	if hits+misses != taken-dropped {
		t.Errorf("lastnode hits+misses = %d, want taken-dropped = %d", hits+misses, taken-dropped)
	}

	// All loads were issued at one (context, statement): they must coalesce
	// onto a single leaf holding every heap sample.
	heap := f.mergedProfile().Trees[cct.ClassHeap]
	var leaves int
	var leafSamples uint64
	heap.Walk(func(n *cct.Node, _ int) bool {
		if n.Frame().Kind == cct.KindStmt && n.Metrics() != (metric.Vector{}) {
			leaves++
			leafSamples = n.Metric(metric.Samples)
		}
		return true
	})
	if leaves != 1 {
		t.Fatalf("distinct sampled leaves = %d, want 1 (cache must not split attribution)", leaves)
	}
	if leafSamples < loads-1 {
		t.Errorf("leaf samples = %d, want >= %d", leafSamples, loads-1)
	}
}

// TestLastNodeCacheAcrossContextChanges alternates calling contexts and
// storage classes mid-run: the cache must invalidate on every switch and
// attribution must stay exactly separated per (context, class).
func TestLastNodeCacheAcrossContextChanges(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)

	f.th.At(5)
	big := f.th.Malloc(64 * 1024)
	for round := 0; round < 4; round++ {
		f.th.At(5)
		f.th.Load(big, 8) // heap sample from main
		f.th.Call(f.work)
		f.th.At(12)
		f.th.Load(big, 8) // heap sample from main→work: deeper context
		f.th.Work(2)      // non-mem samples from main→work
		f.th.Ret()
	}
	f.finish()

	heap := f.mergedProfile().Trees[cct.ClassHeap]
	// Two distinct statement leaves under the one heap variable: main:5 and
	// work:12, each with its own sample count.
	counts := map[string]uint64{}
	heap.Walk(func(n *cct.Node, _ int) bool {
		if n.Frame().Kind == cct.KindStmt && n.Metrics() != (metric.Vector{}) {
			counts[n.Frame().Name] += n.Metric(metric.Samples)
		}
		return true
	})
	if len(counts) != 2 {
		t.Fatalf("sampled heap leaves = %v, want separate main and work leaves", counts)
	}
	if counts["main"] < 3 || counts["work"] < 3 {
		t.Errorf("per-context heap samples = %v, want >= 3 each", counts)
	}
	if got := f.mergedProfile().Trees[cct.ClassNonMem].Total()[metric.Samples]; got == 0 {
		t.Error("non-mem samples lost across class switches")
	}
}

// TestLeafMemoInvalidatedByUnload: leafID memoizes IP→statement, but a
// dlclose changes what an IP means. Samples taken inside a module, then
// again at the same IP after the module unloads, must be dropped — a stale
// memo entry would keep attributing them to the dead module.
func TestLeafMemoInvalidatedByUnload(t *testing.T) {
	reg := telemetry.New()
	cfg := DefaultConfig()
	cfg.Period = 1
	cfg.Telemetry = reg
	f := newFixture(t, cfg)

	lib := f.proc.LoadMap.Load("libplugin.so")
	fnPlug := lib.AddFunc("plugin_work", "plugin.c", 10)
	f.th.Call(fnPlug)
	f.th.At(12)
	big := f.th.Malloc(64 * 1024)
	f.th.Load(big, 8) // memoizes this IP as plugin.c:12

	if !f.proc.LoadMap.Unload(lib) {
		t.Fatal("unload failed")
	}
	dropBefore := reg.Snapshot().Counters["profiler.samples.dropped"]
	plugBefore := moduleStmtSamples(f.prof.Profiles(), "libplugin.so")
	f.th.Load(big, 8) // same IP, module gone: must drop, not reuse the memo
	f.th.Load(big, 8)
	f.th.Ret()
	f.finish()

	if dropAfter := reg.Snapshot().Counters["profiler.samples.dropped"]; dropAfter <= dropBefore {
		t.Errorf("samples.dropped = %d -> %d, want post-unload samples dropped", dropBefore, dropAfter)
	}
	// Samples taken while the module was loaded stay; but the dead module's
	// leaves must not grow afterwards (allowing one in-flight skid sample).
	plugAfter := moduleStmtSamples(f.prof.Profiles(), "libplugin.so")
	if plugAfter > plugBefore+1 {
		t.Errorf("unloaded-module samples grew %d -> %d; stale leaf memo", plugBefore, plugAfter)
	}
}

// moduleStmtSamples sums samples on statement leaves of the named module.
func moduleStmtSamples(profs []*cct.Profile, module string) uint64 {
	var total uint64
	for _, p := range profs {
		for _, tree := range p.Trees {
			tree.Walk(func(n *cct.Node, _ int) bool {
				if n.Frame().Kind == cct.KindStmt && n.Frame().Module == module {
					total += n.Metric(metric.Samples)
				}
				return true
			})
		}
	}
	return total
}
