package cache

import (
	"testing"

	"dcprof/internal/machine"
	"dcprof/internal/mem"
)

func testHierarchy() (*Hierarchy, *mem.PageTable) {
	topo := machine.Tiny() // 2 sockets x 2 cores, 2 domains
	h := NewHierarchy(topo, DefaultConfig())
	pt := mem.NewPageTable(topo.NUMADomains, mem.FirstTouch{})
	return h, pt
}

func TestColdMissThenHit(t *testing.T) {
	h, pt := testHierarchy()
	a := mem.HeapBase

	r1 := h.Access(0, 0, a, false, pt, 0)
	if r1.Source != SrcLocalDRAM {
		t.Errorf("cold access source = %v, want LMEM", r1.Source)
	}
	if !r1.TLBMiss {
		t.Error("cold access should miss TLB")
	}
	if r1.Remote {
		t.Error("first touch from core 0 must be local")
	}
	if r1.HomeDomain != 0 {
		t.Errorf("home = %d, want 0", r1.HomeDomain)
	}

	r2 := h.Access(0, 0, a, false, pt, r1.Latency)
	if r2.Source != SrcL1 {
		t.Errorf("second access source = %v, want L1", r2.Source)
	}
	if r2.TLBMiss {
		t.Error("second access should hit TLB")
	}
	if r2.Latency >= r1.Latency {
		t.Errorf("L1 hit latency %d not below DRAM latency %d", r2.Latency, r1.Latency)
	}
}

func TestRemoteClassification(t *testing.T) {
	h, pt := testHierarchy()
	a := mem.HeapBase
	// Core 0 (domain 0) touches first.
	h.Access(0, 0, a, true, pt, 0)
	// Core 3 (domain 1) accesses a different line in the same page that is
	// not yet cached on its socket.
	b := a + 8*LineSize
	r := h.Access(3, 0, b, false, pt, 0)
	if r.Source != SrcRemoteDRAM {
		t.Errorf("source = %v, want RMEM", r.Source)
	}
	if !r.Remote || r.HomeDomain != 0 {
		t.Errorf("remote=%v home=%d, want true,0", r.Remote, r.HomeDomain)
	}
	// Remote DRAM costs more than local DRAM.
	c := b + 8*LineSize
	local := h.Access(0, 0, c, false, pt, 0)
	d := c + 8*LineSize
	h.Access(0, 0, d, true, pt, 0) // place page... same page actually
	remote := h.Access(3, 0, d+LineSize, false, pt, 0)
	if remote.Source == SrcRemoteDRAM && local.Source == SrcLocalDRAM &&
		remote.Latency <= local.Latency {
		t.Errorf("remote latency %d not above local %d", remote.Latency, local.Latency)
	}
}

func TestSameSocketL3Sharing(t *testing.T) {
	h, pt := testHierarchy()
	a := mem.HeapBase
	h.Access(0, 0, a, false, pt, 0) // core 0 fills socket 0's L3
	r := h.Access(1, 0, a, false, pt, 0)
	if r.Source != SrcL3 {
		t.Errorf("same-socket neighbour source = %v, want L3", r.Source)
	}
	// A core on the other socket does not share that L3.
	r2 := h.Access(2, 0, a, false, pt, 0)
	if r2.Source == SrcL1 || r2.Source == SrcL2 || r2.Source == SrcL3 {
		t.Errorf("cross-socket access served by cache (%v) without fetch", r2.Source)
	}
}

func TestASIDIsolation(t *testing.T) {
	h, pt := testHierarchy()
	a := mem.HeapBase
	h.Access(0, 0, a, false, pt, 0)
	// Same virtual address, different address space: must not hit.
	pt2 := mem.NewPageTable(2, mem.FirstTouch{})
	r := h.Access(0, 1, a, false, pt2, 0)
	if r.Source == SrcL1 || r.Source == SrcL2 {
		t.Errorf("cross-ASID alias hit in %v", r.Source)
	}
}

func TestL1CapacityEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 0
	topo := machine.Tiny()
	h := NewHierarchy(topo, cfg)
	pt := mem.NewPageTable(2, mem.FirstTouch{})

	// Touch L1Ways+1 lines mapping to the same L1 set, then re-touch the
	// first: it must have been evicted from L1 (though L2 may hold it).
	setSpan := mem.Addr(cfg.L1Sets * LineSize)
	base := mem.HeapBase
	for i := 0; i <= cfg.L1Ways; i++ {
		h.Access(0, 0, base+mem.Addr(i)*setSpan, false, pt, 0)
	}
	r := h.Access(0, 0, base, false, pt, 0)
	if r.Source == SrcL1 {
		t.Error("line survived in L1 past associativity limit")
	}
	if r.Source != SrcL2 {
		t.Errorf("evicted L1 line should hit L2, got %v", r.Source)
	}
}

func TestPrefetcherHelpsSequentialStreams(t *testing.T) {
	run := func(degree int) uint64 {
		cfg := DefaultConfig()
		cfg.PrefetchDegree = degree
		h := NewHierarchy(machine.Tiny(), cfg)
		pt := mem.NewPageTable(2, mem.FirstTouch{})
		var total uint64
		for i := 0; i < 256; i++ { // sequential 8-byte loads
			r := h.Access(0, 0, mem.HeapBase+mem.Addr(i*8), false, pt, total)
			total += r.Latency
		}
		return total
	}
	with := run(2)
	without := run(0)
	if with >= without {
		t.Errorf("prefetching did not help: with=%d without=%d", with, without)
	}
}

func TestLargeStrideDefeatsPrefetchAndTLB(t *testing.T) {
	cfg := DefaultConfig()
	h := NewHierarchy(machine.Tiny(), cfg)
	pt := mem.NewPageTable(2, mem.FirstTouch{})
	var unit, strided uint64
	// 128 unit-stride accesses within few pages.
	for i := 0; i < 128; i++ {
		r := h.Access(0, 0, mem.HeapBase+mem.Addr(i*8), false, pt, unit)
		unit += r.Latency
	}
	// 128 page-stride accesses: every one a TLB+cache miss.
	for i := 0; i < 128; i++ {
		r := h.Access(1, 0, mem.HeapBase+0x100000+mem.Addr(i*mem.PageSize), false, pt, strided)
		strided += r.Latency
	}
	if strided < 3*unit {
		t.Errorf("page-stride stream (%d cy) not clearly slower than unit stride (%d cy)", strided, unit)
	}
}

func TestDRAMQueueingContention(t *testing.T) {
	// A window holds windowCycles/service fetches; once full, further
	// fetches in that window spill to the next and pay queueing delay.
	var c controller
	const service = 8
	capacity := windowCycles / service
	for i := 0; i < capacity; i++ {
		if d := c.fetch(0, service); d > windowCycles {
			t.Fatalf("in-window fetch %d queued %d cycles", i, d)
		}
	}
	if !c.saturated(0, service) {
		t.Error("window not reported saturated at capacity")
	}
	d := c.fetch(0, service)
	if d < windowCycles-1 {
		t.Errorf("overflow fetch queued only %d cycles, want ~window", d)
	}
	// A fetch far in the future sees an empty window.
	if d := c.fetch(100*windowCycles, service); d != 0 {
		t.Errorf("future fetch queued %d cycles", d)
	}
	if c.saturated(100*windowCycles+1, service) {
		t.Error("future window reported saturated")
	}
	acc, busy := c.stats()
	if acc != uint64(capacity)+2 || busy != (uint64(capacity)+2)*service {
		t.Errorf("stats = %d accesses, %d busy", acc, busy)
	}
}

func TestSnapshotCounters(t *testing.T) {
	h, pt := testHierarchy()
	h.Access(0, 0, mem.HeapBase, false, pt, 0)            // LMEM
	h.Access(0, 0, mem.HeapBase, false, pt, 0)            // L1
	h.Access(3, 0, mem.HeapBase+4*LineSize, false, pt, 0) // RMEM (page homed at 0)
	s := h.Snapshot()
	if s.Accesses != 3 {
		t.Errorf("accesses = %d, want 3", s.Accesses)
	}
	if s.BySource[SrcL1] != 1 || s.BySource[SrcLocalDRAM] != 1 || s.BySource[SrcRemoteDRAM] != 1 {
		t.Errorf("source counts = %v", s.BySource)
	}
	if s.TLBMisses == 0 {
		t.Error("no TLB misses recorded")
	}
	var dramTotal uint64
	for _, n := range s.DRAMAccesses {
		dramTotal += n
	}
	if dramTotal < 2 {
		t.Errorf("DRAM accesses = %d, want >= 2", dramTotal)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.L1Sets = 3
	if err := bad.Validate(); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	bad = good
	bad.L3Ways = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ways accepted")
	}
	bad = good
	bad.PrefetchDegree = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative prefetch degree accepted")
	}
}

func TestDataSourceStrings(t *testing.T) {
	want := map[DataSource]string{
		SrcL1: "L1", SrcL2: "L2", SrcL3: "L3",
		SrcLocalDRAM: "LMEM", SrcRemoteDRAM: "RMEM",
	}
	for src, name := range want {
		if got := src.String(); got != name {
			t.Errorf("%d.String() = %q, want %q", src, got, name)
		}
	}
}

func TestConcurrentAccessesRaceFree(t *testing.T) {
	topo := machine.MagnyCours48()
	h := NewHierarchy(topo, DefaultConfig())
	pt := mem.NewPageTable(topo.NUMADomains, mem.FirstTouch{})
	done := make(chan struct{}, topo.NumCores())
	for core := 0; core < topo.NumCores(); core++ {
		go func(core int) {
			defer func() { done <- struct{}{} }()
			var now uint64
			base := mem.HeapBase + mem.Addr(core*4096*16)
			for i := 0; i < 2000; i++ {
				r := h.Access(core, 0, base+mem.Addr(i*32), i%3 == 0, pt, now)
				now += r.Latency
			}
		}(core)
	}
	for i := 0; i < topo.NumCores(); i++ {
		<-done
	}
	s := h.Snapshot()
	if s.Accesses != uint64(topo.NumCores())*2000 {
		t.Errorf("accesses = %d, want %d", s.Accesses, topo.NumCores()*2000)
	}
}

// TestAccessAllocFree gates the per-access path at zero heap allocations:
// an L1 hit, and a DRAM miss on a homed page whose controller window is
// already booked (a new window is one map entry, paid once per 2,048
// simulated cycles, not per access).
func TestAccessAllocFree(t *testing.T) {
	h, pt := testHierarchy()
	a := mem.HeapBase
	h.Access(0, 0, a, false, pt, 0)
	if allocs := testing.AllocsPerRun(1000, func() { h.Access(0, 0, a, false, pt, 0) }); allocs != 0 {
		t.Errorf("L1 hit: %v allocs per access, want 0", allocs)
	}

	const runs = 200
	page := func(i int) mem.Addr { return a + mem.PageSize*mem.Addr(1+i) }
	for i := 0; i <= runs+2; i++ {
		pt.Resolve(page(i), 0)
		// A warm-up miss in page i books window i of domain 0's
		// controller; the measured miss reads the page's first line.
		h.Access(0, 0, page(i)+32*LineSize, false, pt, uint64(i)*windowCycles)
	}
	i, misses := 0, 0
	allocs := testing.AllocsPerRun(runs, func() {
		if r := h.Access(0, 0, page(i), false, pt, uint64(i)*windowCycles); r.Source == SrcLocalDRAM {
			misses++
		}
		i++
	})
	if misses != runs+1 {
		t.Fatalf("%d of %d measured accesses missed to DRAM", misses, runs+1)
	}
	if allocs != 0 {
		t.Errorf("DRAM miss: %v allocs per access, want 0", allocs)
	}
}
