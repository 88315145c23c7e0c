package cache

import (
	"fmt"
	"sync"

	"dcprof/internal/machine"
	"dcprof/internal/mem"
)

// l3Shards is the number of independently locked shards each socket's
// shared L3 is split into; the low bits of the line key select the shard and
// the remaining bits the set within it, so concurrent accesses to different
// shards proceed in parallel.
const l3Shards = 64

// Hierarchy is the memory system of one node: per-core private caches and
// TLB, per-socket shared L3, and per-NUMA-domain DRAM controllers. It is
// safe for concurrent use by goroutines simulating hardware threads.
//
// An access writes only state its own core owns (caches, TLB, statistics,
// all under the core's lock, which SMT siblings share) plus the genuinely
// shared state: the socket's L3 shard and the home domain's DRAM
// controller, each under its own lock, and the page table on a first touch.
// Topology questions are answered from tables built at construction.
type Hierarchy struct {
	topo machine.Topology
	cfg  Config

	cores   []coreState
	l3      []l3State
	l3Shift uint // log2(shards): low key bits consumed by shard selection
	dram    []controller

	// remoteLat[a*NUMADomains+b] is the interconnect cost of a line
	// fetched by domain a from memory homed in domain b.
	remoteLat []uint64
}

type coreState struct {
	mu     sync.Mutex
	l1     *setAssoc
	l2     *setAssoc
	tlb    *setAssoc
	domain int // the core's NUMA domain
	socket int // the core's socket

	// Statistics, guarded by mu; Snapshot sums them over cores.
	accesses  uint64
	tlbMisses uint64
	srcCount  [NumSources]uint64

	_ [64]byte // keep adjacent cores' hot fields on separate cache lines
}

type l3Shard struct {
	mu  sync.Mutex
	arr *setAssoc
	_   [32]byte // reduce false sharing between shards
}

type l3State struct {
	shards []l3Shard
}

// NewHierarchy builds the memory system for the given topology.
func NewHierarchy(topo machine.Topology, cfg Config) *Hierarchy {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &Hierarchy{
		topo:  topo,
		cfg:   cfg,
		cores: make([]coreState, topo.NumCores()),
		l3:    make([]l3State, topo.Sockets),
		dram:  make([]controller, topo.NUMADomains),
	}
	for i := range h.cores {
		cs := &h.cores[i]
		cs.l1 = newSetAssoc(cfg.L1Sets, cfg.L1Ways)
		cs.l2 = newSetAssoc(cfg.L2Sets, cfg.L2Ways)
		cs.tlb = newSetAssoc(cfg.TLBSets, cfg.TLBWays)
		cs.domain = topo.DomainOfCore(i)
		cs.socket = topo.SocketOfCore(i)
	}
	n := topo.NUMADomains
	h.remoteLat = make([]uint64, n*n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			// RemoteHop is calibrated for a cross-package (2-hop)
			// access; on-package die-to-die links (Magny-Cours) cost
			// one hop.
			h.remoteLat[a*n+b] = cfg.RemoteHop * uint64(topo.DomainDistance(a, b)) / 2
		}
	}
	shards := l3Shards
	setsPerShard := cfg.L3Sets / shards
	if setsPerShard == 0 {
		shards = cfg.L3Sets // tiny L3 in tests: one set per shard
		setsPerShard = 1
	}
	for s := shards; s > 1; s >>= 1 {
		h.l3Shift++
	}
	for i := range h.l3 {
		h.l3[i].shards = make([]l3Shard, shards)
		for j := range h.l3[i].shards {
			h.l3[i].shards[j].arr = newSetAssoc(setsPerShard, cfg.L3Ways)
		}
	}
	return h
}

// Topology returns the node topology the hierarchy was built for.
func (h *Hierarchy) Topology() machine.Topology { return h.topo }

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// lineKey salts a line number with the address-space id so distinct
// processes never alias in shared caches. Keys are always nonzero.
func lineKey(asid int, addr mem.Addr) uint64 {
	return uint64(asid+1)<<45 | uint64(addr)>>6
}

func pageKey(asid int, addr mem.Addr) uint64 {
	return uint64(asid+1)<<45 | uint64(addr)>>mem.PageShift
}

// Access simulates one load or store issued by `core` in address space
// `asid` at thread-local time `now`, resolving NUMA placement through pt.
// It returns the latency and the hardware-visible characterization of the
// access. A multi-byte access is treated as touching its first line (the
// sim layer splits accesses that cross lines).
func (h *Hierarchy) Access(core, asid int, addr mem.Addr, write bool, pt *mem.PageTable, now uint64) AccessResult {
	if core < 0 || core >= len(h.cores) {
		panic(fmt.Sprintf("cache: core %d out of range [0,%d)", core, len(h.cores)))
	}
	cs := &h.cores[core]
	lk := lineKey(asid, addr)
	pk := pageKey(asid, addr)
	myDomain := cs.domain

	var res AccessResult

	cs.mu.Lock()
	cs.accesses++
	if _, ok := cs.tlb.lookup(pk); !ok {
		res.TLBMiss = true
		res.Latency += h.cfg.TLBMissLat
		cs.tlb.insert(pk)
		cs.tlbMisses++
	}
	t := now + res.Latency // issue time after translation

	if _, ok := cs.l1.lookup(lk); ok {
		cs.srcCount[SrcL1]++
		cs.mu.Unlock()
		res.Latency += h.cfg.L1Lat
		res.Source = SrcL1
		finishHit(&res, addr, pt)
		return res
	}
	if i, ok := cs.l2.lookup(lk); ok {
		if residual, origin, home, late := cs.l2.pending(i, t); late {
			// Late prefetch: the line's background fill is still in
			// flight. The access pays the residual latency and is
			// classified by the fill's memory source — this is how
			// bandwidth-saturated streams stay visible to the PMU.
			cs.l1.insert(lk)
			h.prefetch(cs, asid, addr, pt, t)
			cs.srcCount[origin]++
			cs.mu.Unlock()
			res.Latency += residual + h.cfg.L2Lat
			res.QueueDelay = residual
			res.Source = origin
			res.HomeDomain = home
			res.Remote = home != myDomain
			return res
		}
		cs.l1.insert(lk)
		h.prefetch(cs, asid, addr, pt, t)
		cs.srcCount[SrcL2]++
		cs.mu.Unlock()
		res.Latency += h.cfg.L2Lat
		res.Source = SrcL2
		finishHit(&res, addr, pt)
		return res
	}
	// Probe the socket's shared L3.
	socket := cs.socket
	if hit, residual, origin, home, late := h.l3Lookup(socket, lk, t); hit {
		cs.l2.insert(lk)
		cs.l1.insert(lk)
		h.prefetch(cs, asid, addr, pt, t)
		if late {
			cs.srcCount[origin]++
			cs.mu.Unlock()
			res.Latency += residual + h.cfg.L3Lat
			res.QueueDelay = residual
			res.Source = origin
			res.HomeDomain = home
			res.Remote = home != myDomain
			return res
		}
		cs.srcCount[SrcL3]++
		cs.mu.Unlock()
		res.Latency += h.cfg.L3Lat
		res.Source = SrcL3
		finishHit(&res, addr, pt)
		return res
	}

	// Cross-socket intervention: a line recently used on another socket is
	// served from that socket's L3 across the interconnect instead of from
	// memory (SMP coherence, as on POWER7 / HyperTransport probes).
	for s := range h.l3 {
		if s == socket || !h.l3Present(s, lk) {
			continue
		}
		cs.l2.insert(lk)
		cs.l1.insert(lk)
		h.l3Insert(socket, lk)
		h.prefetch(cs, asid, addr, pt, t)
		cs.srcCount[SrcRemoteL3]++
		cs.mu.Unlock()
		res.Latency += h.cfg.L3Lat + h.cfg.RemoteHop
		res.Source = SrcRemoteL3
		finishHit(&res, addr, pt)
		if res.HomeDomain >= 0 {
			res.Remote = res.HomeDomain != myDomain
		}
		return res
	}

	// Full miss: fetch from the home domain's DRAM controller.
	home := pt.Resolve(addr, myDomain)
	res.HomeDomain = home
	res.Remote = home != myDomain

	lat := h.cfg.MemLat
	if res.Remote {
		lat += h.remoteLat[myDomain*len(h.dram)+home]
		res.Source = SrcRemoteDRAM
	} else {
		res.Source = SrcLocalDRAM
	}
	res.QueueDelay = h.dram[home].fetch(t, h.cfg.DRAMService)
	lat += res.QueueDelay + h.cfg.DRAMService
	res.Latency += lat

	h.l3Insert(socket, lk)
	cs.l2.insert(lk)
	cs.l1.insert(lk)
	h.prefetch(cs, asid, addr, pt, t+lat)
	cs.srcCount[res.Source]++
	cs.mu.Unlock()
	return res
}

// finishHit fills in NUMA fields for cache hits (the home is whatever the
// page table already records; unplaced means the line was installed by a
// prefetch in this domain — treat as local).
func finishHit(res *AccessResult, addr mem.Addr, pt *mem.PageTable) {
	if home, ok := pt.Home(addr); ok {
		res.HomeDomain = home
	} else {
		res.HomeDomain = -1
	}
}

// prefetch implements a next-line prefetcher: on an L1 miss it pulls the
// following PrefetchDegree lines into L2 and L3 as background fills, never
// crossing a page boundary. A fill from memory consumes DRAM controller
// bandwidth at the home domain and completes at a future time; a demand
// access that arrives before then pays the residual (see setAssoc.pending).
// Caller holds cs.mu.
func (h *Hierarchy) prefetch(cs *coreState, asid int, addr mem.Addr, pt *mem.PageTable, now uint64) {
	for d := 1; d <= h.cfg.PrefetchDegree; d++ {
		next := addr + mem.Addr(d*LineSize)
		if mem.PageOf(next) != mem.PageOf(addr) {
			return
		}
		lk := lineKey(asid, next)
		if cs.l2.present(lk) {
			continue
		}
		if h.l3Present(cs.socket, lk) {
			// On-socket already: cheap L3->L2 fill, effectively ready.
			cs.l2.insert(lk)
			continue
		}
		// Fill from memory in the background — unless the home controller
		// is backed up past the throttle point (finite miss queues).
		home := pt.Resolve(next, cs.domain)
		if h.cfg.PrefetchThrottle > 0 && h.dram[home].saturated(now, h.cfg.DRAMService) {
			continue
		}
		qd := h.dram[home].fetch(now, h.cfg.DRAMService)
		lat := h.cfg.MemLat + qd + h.cfg.DRAMService
		src := SrcLocalDRAM
		if home != cs.domain {
			lat += h.remoteLat[cs.domain*len(h.dram)+home]
			src = SrcRemoteDRAM
		}
		ready := now + lat
		h.l3InsertPending(cs.socket, lk, ready, lat, src, home)
		way, _ := cs.l2.insert(lk)
		cs.l2.setPending(way, ready, lat, src, home)
	}
}

// l3shard picks the shard for a key; the shard index consumes the key's low
// bits, and the shard's internal set index uses the bits above them (the
// setAssoc masks them itself since shard arrays are power-of-two sized).
func (h *Hierarchy) l3shard(socket int, key uint64) *l3Shard {
	shards := h.l3[socket].shards
	return &shards[key%uint64(len(shards))]
}

func (h *Hierarchy) l3Lookup(socket int, key uint64, now uint64) (hit bool, residual uint64, origin DataSource, home int, late bool) {
	sh := h.l3shard(socket, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.arr.lookup(key >> h.l3Shift) // drop shard-selection bits
	if !ok {
		return false, 0, 0, 0, false
	}
	residual, origin, home, late = sh.arr.pending(i, now)
	return true, residual, origin, home, late
}

func (h *Hierarchy) l3Present(socket int, key uint64) bool {
	sh := h.l3shard(socket, key)
	sh.mu.Lock()
	ok := sh.arr.present(key >> h.l3Shift)
	sh.mu.Unlock()
	return ok
}

func (h *Hierarchy) l3Insert(socket int, key uint64) {
	sh := h.l3shard(socket, key)
	sh.mu.Lock()
	sh.arr.insert(key >> h.l3Shift)
	sh.mu.Unlock()
}

func (h *Hierarchy) l3InsertPending(socket int, key uint64, ready, cost uint64, origin DataSource, home int) {
	sh := h.l3shard(socket, key)
	sh.mu.Lock()
	way, _ := sh.arr.insert(key >> h.l3Shift)
	sh.arr.setPending(way, ready, cost, origin, home)
	sh.mu.Unlock()
}

// Stats is a snapshot of hierarchy-wide counters.
type Stats struct {
	Accesses  uint64
	TLBMisses uint64
	BySource  [NumSources]uint64
	// DRAM per-domain: fetches served and busy cycles.
	DRAMAccesses []uint64
	DRAMBusy     []uint64
}

// Snapshot returns current aggregate counters, summed over the cores.
func (h *Hierarchy) Snapshot() Stats {
	s := Stats{
		DRAMAccesses: make([]uint64, len(h.dram)),
		DRAMBusy:     make([]uint64, len(h.dram)),
	}
	for i := range h.cores {
		cs := &h.cores[i]
		cs.mu.Lock()
		s.Accesses += cs.accesses
		s.TLBMisses += cs.tlbMisses
		for src, n := range cs.srcCount {
			s.BySource[src] += n
		}
		cs.mu.Unlock()
	}
	for i := range h.dram {
		s.DRAMAccesses[i], s.DRAMBusy[i] = h.dram[i].stats()
	}
	return s
}
