package profiler

import (
	"bytes"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/mem"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/sim"
)

func TestSmallAllocSampling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	cfg.SmallAllocSamplePeriod = 10 // track every 10th small allocation
	f := newFixture(t, cfg)

	f.th.At(5)
	var addrs []mem.Addr
	for i := 0; i < 100; i++ {
		addrs = append(addrs, f.th.Malloc(64)) // all below the 4K threshold
	}
	tracked, skipped, _ := f.prof.Stats()
	if tracked != 10 || skipped != 90 {
		t.Fatalf("tracked=%d skipped=%d, want 10/90", tracked, skipped)
	}
	// Touch all blocks: only tracked ones attribute to heap data.
	f.th.At(7)
	for _, a := range addrs {
		f.th.Load(a, 8)
	}
	f.finish()
	prof := f.mergedProfile()
	heap := prof.Trees[cct.ClassHeap].Total()[metric.Samples]
	unknown := prof.Trees[cct.ClassUnknown].Total()[metric.Samples]
	if heap == 0 {
		t.Error("sampled small allocations got no heap attribution")
	}
	if unknown == 0 {
		t.Error("unsampled small allocations should stay unknown")
	}
	if heap > unknown {
		t.Errorf("heap=%d unknown=%d; only ~10%% of blocks are tracked", heap, unknown)
	}
}

func TestSmallAllocSamplingOffByDefault(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(t, cfg)
	f.th.At(5)
	for i := 0; i < 50; i++ {
		f.th.Malloc(64)
	}
	tracked, skipped, _ := f.prof.Stats()
	if tracked != 0 || skipped != 50 {
		t.Errorf("tracked=%d skipped=%d, want 0/50", tracked, skipped)
	}
	f.finish()
}

func TestStackVarAttribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)

	base := f.th.StackAddr(4096)
	f.prof.RegisterStackVar(f.th, "local_buf", base, 1024)

	f.th.At(9)
	for i := 0; i < 32; i++ {
		f.th.Store(base+mem.Addr(i*32), 8)
	}
	// An unregistered stack address stays anonymous.
	f.th.Store(f.th.StackAddr(64*1024), 8)
	f.finish()

	prof := f.mergedProfile()
	unknown := prof.Trees[cct.ClassUnknown]
	varNode, ok := unknown.Root.Lookup(cct.Frame{Kind: cct.KindStackVar, Module: "exe", Name: "local_buf"})
	if !ok {
		for _, c := range unknown.Root.Children() {
			t.Logf("unknown child: %v", c.Frame())
		}
		t.Fatal("stack variable dummy node missing")
	}
	inc := varNode.Inclusive()
	if inc[metric.Samples] < 32 {
		t.Errorf("stack var samples = %d, want >= 32", inc[metric.Samples])
	}
	// The anonymous access is outside the variable subtree.
	if got := unknown.Total()[metric.Samples]; got <= inc[metric.Samples] {
		t.Errorf("anonymous stack access missing: total=%d var=%d", got, inc[metric.Samples])
	}
}

func TestStackVarUnregister(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)
	base := f.th.StackAddr(4096)
	f.prof.RegisterStackVar(f.th, "tmp", base, 512)
	f.th.At(4)
	f.th.Load(base, 8)
	f.th.Work(1) // drain the skid window before unregistering
	f.prof.UnregisterStackVar(f.th, base)
	f.th.Load(base, 8) // now anonymous
	f.finish()

	unknown := f.mergedProfile().Trees[cct.ClassUnknown]
	varNode, ok := unknown.Root.Lookup(cct.Frame{Kind: cct.KindStackVar, Module: "exe", Name: "tmp"})
	if !ok {
		t.Fatal("stack var node missing")
	}
	if got := varNode.Inclusive()[metric.Samples]; got != 1 {
		t.Errorf("samples after unregister = %d, want 1", got)
	}
}

func TestStackVarReregisterReplaces(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)
	base := f.th.StackAddr(4096)
	f.prof.RegisterStackVar(f.th, "first", base, 512)
	f.prof.RegisterStackVar(f.th, "second", base+8, 256) // overlapping frame reuse
	f.th.At(4)
	f.th.Load(base+16, 8)
	f.finish()
	unknown := f.mergedProfile().Trees[cct.ClassUnknown]
	if _, ok := unknown.Root.Lookup(cct.Frame{Kind: cct.KindStackVar, Module: "exe", Name: "second"}); !ok {
		t.Error("re-registration did not take effect")
	}
}

func TestStackVarsAreThreadLocal(t *testing.T) {
	// Another thread touching the registered range must not resolve it.
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)
	exe := f.proc.LoadMap.Modules()[0]
	fOL := exe.AddFunc("ol", "main.c", 30)

	base := f.th.StackAddr(4096)
	f.prof.RegisterStackVar(f.th, "mine", base, 1024)
	f.proc.Parallel(f.th, fOL, 2, func(w *sim.Thread, tid int) {
		w.At(31)
		w.Load(base, 8)
	})
	f.finish()
	unknown := f.mergedProfile().Trees[cct.ClassUnknown]
	varNode, ok := unknown.Root.Lookup(cct.Frame{Kind: cct.KindStackVar, Module: "exe", Name: "mine"})
	if !ok {
		t.Fatal("var node missing")
	}
	inc := varNode.Inclusive()
	// Only the owner (tid 0, the master) resolved its accesses.
	if inc[metric.Samples] != 1 {
		t.Errorf("samples = %d, want exactly the owner's 1", inc[metric.Samples])
	}
}

func TestTraceRecordsSamples(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)
	tr := f.prof.EnableTrace()

	f.th.At(5)
	buf := f.th.Malloc(8192)
	for i := 0; i < 50; i++ {
		f.th.Load(buf+mem.Addr(i*64), 8)
	}
	f.finish()

	if tr.Len() < 50 {
		t.Fatalf("trace records = %d, want >= 50", tr.Len())
	}
	recs := tr.Records()
	for _, r := range recs[:5] {
		if r.EA < buf || r.EA >= buf+8192 {
			t.Errorf("trace EA %#x outside block", r.EA)
		}
	}
	var sink bytes.Buffer
	n, err := tr.WriteTo(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != tr.Bytes() || int64(sink.Len()) != n {
		t.Errorf("WriteTo = %d bytes, Bytes() = %d, sink = %d", n, tr.Bytes(), sink.Len())
	}
}

func TestTraceGrowsWhereProfileDoesNot(t *testing.T) {
	// The paper's space argument: double the execution, the trace doubles,
	// the profile stays put (same contexts).
	run := func(iters int) (traceBytes, profileBytes int64) {
		cfg := DefaultConfig()
		cfg.Period = 1
		// The space argument is about the cumulative CCT; the temporal
		// sidecar grows (slowly) with execution time by design.
		cfg.TemporalWindow = 0
		f := newFixture(t, cfg)
		tr := f.prof.EnableTrace()
		f.th.At(5)
		buf := f.th.Malloc(64 * 1024)
		f.th.At(7)
		for i := 0; i < iters; i++ {
			f.th.Load(buf+mem.Addr((i%1024)*64), 8)
		}
		f.finish()
		pb, err := profio.EncodedSize(f.mergedProfile())
		if err != nil {
			t.Fatal(err)
		}
		return tr.Bytes(), pb
	}
	t1, p1 := run(2000)
	t2, p2 := run(4000)
	if t2 < t1*18/10 {
		t.Errorf("trace did not grow with execution: %d -> %d", t1, t2)
	}
	if p2 > p1*11/10 {
		t.Errorf("profile grew with execution length: %d -> %d", p1, p2)
	}
}
