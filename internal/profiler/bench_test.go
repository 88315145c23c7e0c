package profiler

import (
	"testing"

	"dcprof/internal/cache"
	"dcprof/internal/cct"
	"dcprof/internal/heapmap"
	"dcprof/internal/machine"
	"dcprof/internal/mem"
	"dcprof/internal/sim"
)

// benchSetup builds a profiled single-thread environment with a deep call
// stack, the worst case for the sample and allocation paths.
func benchSetup(cfg Config, depth int) (*Profiler, *sim.Thread) {
	node := sim.NewNode(machine.Tiny(), cache.DefaultConfig())
	p := sim.NewProcess(node, 0, 0, 1, nil)
	prof := Attach(p, cfg)
	exe := p.LoadMap.Load("exe")
	th := p.Start()
	for i := 0; i < depth; i++ {
		th.Call(exe.AddFunc("fn", "f.c", 10*i+1))
	}
	th.At(5)
	return prof, th
}

// BenchmarkSamplePath measures the full per-sample cost: PMU delivery,
// unwind, classification against a populated heap map, CCT insertion.
// Steady state must run at 0 allocs/op (the hot-path gate enforces it).
func BenchmarkSamplePath(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Period = 1 // every access samples
	benchSamplePath(b, cfg)
}

// BenchmarkSamplePathNoTemporal is BenchmarkSamplePath with the temporal
// recorder off — the baseline the hot-path gate compares against to bound
// what timestamping adds to the sample path.
func BenchmarkSamplePathNoTemporal(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Period = 1
	cfg.TemporalWindow = 0
	benchSamplePath(b, cfg)
}

func benchSamplePath(b *testing.B, cfg Config) {
	prof, th := benchSetup(cfg, 12)
	var bufs []mem.Addr
	for i := 0; i < 512; i++ {
		bufs = append(bufs, th.Malloc(8192))
	}
	_ = prof
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Load(bufs[i%len(bufs)], 8)
	}
}

// BenchmarkSamplePathParallel drives N concurrent sampling threads — each
// animating its own simulated thread inside one parallel region — against
// a large shared live-heap map. Before the copy-on-write heap map, every
// sample serialized on the process-global blocksMu; now the only shared
// state on the path is read via atomic snapshots, so threads scale.
func BenchmarkSamplePathParallel(b *testing.B) {
	const nThreads = 8
	cfg := DefaultConfig()
	cfg.Period = 1
	node := sim.NewNode(machine.Power7Node(), cache.DefaultConfig())
	p := sim.NewProcess(node, 0, 0, nThreads, nil)
	prof := Attach(p, cfg)
	exe := p.LoadMap.Load("exe")
	fMain := exe.AddFunc("main", "main.c", 1)
	fRegion := exe.AddFunc("region", "main.c", 40)
	th := p.Start()
	th.Call(fMain)
	th.At(5)
	var bufs []mem.Addr
	for i := 0; i < 2048; i++ {
		bufs = append(bufs, th.Malloc(8192))
	}
	_ = prof
	perThread := b.N/nThreads + 1
	b.ReportAllocs()
	b.ResetTimer()
	p.Parallel(th, fRegion, nThreads, func(t *sim.Thread, tid int) {
		t.At(42)
		for i := 0; i < perThread; i++ {
			t.Load(bufs[(i*nThreads+tid)%len(bufs)], 8)
		}
	})
}

// BenchmarkAllocPathTrampoline vs NoTrampoline: the §4.1.3 unwind
// optimization, measured in host time AND reported in charged simulated
// cycles per allocation.
func benchAllocPath(b *testing.B, trampoline bool) {
	cfg := DefaultConfig()
	cfg.Period = 1 << 30
	cfg.UseTrampoline = trampoline
	cfg.SizeThreshold = 0 // track everything
	_, th := benchSetup(cfg, 24)
	before := th.Overhead()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := th.Malloc(64)
		th.Free(a)
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(th.Overhead()-before)/float64(b.N), "sim-cycles/alloc")
	}
}

func BenchmarkAllocPathTrampoline(b *testing.B)   { benchAllocPath(b, true) }
func BenchmarkAllocPathNoTrampoline(b *testing.B) { benchAllocPath(b, false) }

// classifyBench populates a profiler with a large live heap.
func classifyBench(b *testing.B) (*Profiler, []mem.Addr) {
	cfg := DefaultConfig()
	cfg.Period = 1 << 30
	prof, th := benchSetup(cfg, 4)
	var bufs []mem.Addr
	for i := 0; i < 4096; i++ {
		bufs = append(bufs, th.Malloc(8192))
	}
	return prof, bufs
}

// BenchmarkClassify measures address classification against a large live
// heap map — the per-sample lookup the paper keeps on the fast path.
func BenchmarkClassify(b *testing.B) {
	prof, bufs := classifyBench(b)
	var c heapmap.Cache[[]cct.FrameID]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prof.classify(bufs[i%len(bufs)]+16, &c)
	}
}

// BenchmarkClassifyParallel runs the classification path from GOMAXPROCS
// goroutines at once. With the lock-free snapshot map this scales near
// linearly; with the old RWMutex-guarded map every goroutine serialized on
// the read lock's shared cache line.
func BenchmarkClassifyParallel(b *testing.B) {
	prof, bufs := classifyBench(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var c heapmap.Cache[[]cct.FrameID]
		i := 0
		for pb.Next() {
			prof.classify(bufs[i%len(bufs)]+16, &c)
			i++
		}
	})
}
