// Package micro implements the paper's two motivating micro-examples:
//
//   - Figure 1: a kernel `A[i] = B[i] + C[idx[i]]` where code-centric
//     profiling can only say "line 4 is slow", while data-centric profiling
//     decomposes line 4's latency per variable and exposes the indirectly
//     accessed C as the real problem (the paper's inset: A 10%, B 5%,
//     C 85%).
//
//   - Figure 2: a loop executing `var[i] = malloc(size)` 100 times. A
//     trace-based tool records 100 allocations (millions at scale); the
//     CCT's allocation-path identity coalesces them into one logical
//     variable.
package micro

import (
	"dcprof/internal/apps/appkit"
	"dcprof/internal/apps/bench"
	"dcprof/internal/cache"
	"dcprof/internal/cct"
	"dcprof/internal/machine"
	"dcprof/internal/mem"
	"dcprof/internal/metric"
	"dcprof/internal/profiler"
	"dcprof/internal/sim"
	"dcprof/internal/view"
)

// Fig1Result is the per-variable decomposition of the kernel line's latency.
type Fig1Result struct {
	// LineLatency is the total latency attributed to the kernel line
	// (everything a code-centric profiler can report).
	LineLatency uint64
	// ShareA, ShareB, ShareC decompose it per variable.
	ShareA, ShareB, ShareC float64
	// Run metadata.
	Result *bench.Result
}

// Fig1Config sizes the Figure 1 kernel.
type Fig1Config struct {
	// Elems is the array length.
	Elems int
	// Iters repeats the kernel.
	Iters int
	// Period is the IBS sampling period.
	Period uint64
}

// DefaultFig1Config returns the standard size.
func DefaultFig1Config() Fig1Config {
	return Fig1Config{Elems: 1 << 16, Iters: 4, Period: 16}
}

// RunFig1 executes the kernel under IBS and decomposes the kernel line's
// latency by variable.
func RunFig1(cfg Fig1Config) *Fig1Result {
	ccfg := appkit.TinyCacheConfig()
	ccfg.DRAMService = cache.DefaultConfig().DRAMService
	node := sim.NewNode(machine.Tiny(), ccfg)
	proc := sim.NewProcess(node, 0, 0, 1, nil)
	pc := profiler.DefaultConfig()
	pc.Period = cfg.Period
	prof := profiler.Attach(proc, pc)

	exe := proc.LoadMap.Load("fig1")
	fMain := exe.AddFunc("main", "fig1.c", 1)

	th := proc.Start()
	th.Call(fMain)

	n := cfg.Elems
	th.At(2)
	prof.Label(th, "A")
	a := th.Malloc(uint64(n) * 8)
	prof.Label(th, "B")
	b := th.Malloc(uint64(n) * 8)
	prof.Label(th, "C")
	c := th.Malloc(uint64(n) * 8)

	// idx is an indirection table with a cache-hostile permutation.
	idx := func(i int) int { return (i * 40503) % n }

	for it := 0; it < cfg.Iters; it++ {
		th.At(4) // the kernel line: A[i] = B[i] + C[idx[i]]
		for i := 0; i < n; i++ {
			th.Load(b+mem.Addr(i*8), 8)
			th.Load(c+mem.Addr(idx(i)*8), 8)
			th.Store(a+mem.Addr(i*8), 8)
			th.Work(2)
		}
	}
	th.Ret()
	proc.Finish()

	res := &bench.Result{App: "fig1", Variant: "kernel", Cycles: th.Clock(), Profiles: prof.Profiles()}
	db := res.Merged(1)

	out := &Fig1Result{Result: res}
	var perVar [3]uint64
	names := []string{"A", "B", "C"}
	for _, v := range view.RankVariables(db.Merged, metric.Latency) {
		accs := view.TopAccesses(v.Node, metric.Latency, 1)
		var onLine uint64
		for _, acc := range accs {
			if acc.Line == 4 {
				onLine += acc.Value
			}
		}
		for k, name := range names {
			if v.Name == name {
				perVar[k] = onLine
			}
		}
	}
	total := perVar[0] + perVar[1] + perVar[2]
	out.LineLatency = total
	if total > 0 {
		out.ShareA = float64(perVar[0]) / float64(total)
		out.ShareB = float64(perVar[1]) / float64(total)
		out.ShareC = float64(perVar[2]) / float64(total)
	}
	return out
}

// Fig2Result reports the allocation-coalescing behaviour.
type Fig2Result struct {
	// Allocations is how many heap blocks the loop allocated.
	Allocations int
	// TrackedAllocations is how many the profiler tracked.
	TrackedAllocations uint64
	// VariablesInProfile is how many logical variables the merged profile
	// contains — 1, because all allocations share one call path.
	VariablesInProfile int
	// SamplesOnVariable counts the samples attributed to it.
	SamplesOnVariable uint64
	// Result carries the run.
	Result *bench.Result
}

// RunFig2 allocates `count` blocks in a loop (all from one call path),
// touches them from several threads, and reports how the profile
// represents them.
func RunFig2(count int, blockBytes uint64) *Fig2Result {
	node := sim.NewNode(machine.Tiny(), appkit.TinyCacheConfig())
	proc := sim.NewProcess(node, 0, 0, 4, nil)
	pc := profiler.DefaultConfig()
	pc.Period = 8
	prof := profiler.Attach(proc, pc)

	exe := proc.LoadMap.Load("fig2")
	fMain := exe.AddFunc("main", "fig2.c", 1)
	fOL := exe.AddFunc("touch.omp_fn.0", "fig2.c", 10)

	th := proc.Start()
	th.Call(fMain)

	blocks := make([]mem.Addr, count)
	th.At(3) // for (i = 0; i < 100; i++) var[i] = malloc(size);
	for i := range blocks {
		blocks[i] = th.Malloc(blockBytes)
	}

	// Touch all blocks from an OpenMP region (as the paper's scaled
	// scenario: the loop runs in every thread of every process).
	proc.ParallelFor(th, fOL, 4, count, func(t *sim.Thread, lo, hi int) {
		t.At(12)
		for i := lo; i < hi; i++ {
			for off := uint64(0); off < blockBytes; off += 64 {
				t.Load(blocks[i]+mem.Addr(off), 8)
			}
		}
	})
	th.Ret()
	proc.Finish()

	res := &bench.Result{App: "fig2", Variant: "alloc-loop", Cycles: th.Clock(), Profiles: prof.Profiles()}
	db := res.Merged(1)

	out := &Fig2Result{Allocations: count, Result: res}
	tracked, _, _ := prof.Stats()
	out.TrackedAllocations = tracked
	db.Merged.Trees[cct.ClassHeap].Walk(func(n *cct.Node, _ int) bool {
		if n.Frame().Kind == cct.KindHeapData {
			out.VariablesInProfile++
			inc := n.Inclusive()
			out.SamplesOnVariable += inc[metric.Samples]
			return false
		}
		return true
	})
	return out
}
