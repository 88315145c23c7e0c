package profiler

import (
	"sort"
	"sync"
	"sync/atomic"

	"dcprof/internal/cache"
	"dcprof/internal/cct"
	"dcprof/internal/heapmap"
	"dcprof/internal/loadmap"
	"dcprof/internal/mem"
	"dcprof/internal/metric"
	"dcprof/internal/pmu"
	"dcprof/internal/sim"
	"dcprof/internal/temporal"
)

// Profiler attaches data-centric measurement to one simulated process.
type Profiler struct {
	cfg  Config
	proc *sim.Process

	// blocks maps live tracked heap ranges to their allocation contexts:
	// each block's allocation call path (ending in the allocation
	// statement, the allocator entry point, and the "heap data accesses"
	// mark), pre-interned and immutable once created, so the sample hot
	// path can prepend it with a single slice reference and no string
	// hashing. Written by allocating threads, read by every sampling
	// thread; lookups are lock-free against a copy-on-write snapshot, so
	// samplers never block behind an allocating thread (or each other).
	blocks heapmap.Map[[]cct.FrameID]

	// states holds per-thread profiler state (thread-local CCTs; no locks
	// on the sample path, as in the paper).
	statesMu sync.Mutex
	states   map[*sim.Thread]*tstate

	// staticPrefix caches the one-frame interned prefix per static symbol.
	// sync.Map: read-mostly, written once per distinct symbol.
	staticPrefix sync.Map // *loadmap.StaticVar -> []cct.FrameID

	// trackedAllocs / skippedAllocs count tracking decisions (stats);
	// atomics, so allocation wrappers never serialize on unrelated locks.
	trackedAllocs atomic.Uint64
	skippedAllocs atomic.Uint64
	// smallAllocSeen counts below-threshold allocations for the sampling
	// extension.
	smallAllocSeen atomic.Uint64

	// allocKindIDs holds the interned allocator-entry frames (malloc,
	// calloc, realloc), resolved once at Attach.
	allocKindIDs [3]cct.FrameID
	// plainHeapMark is the interned unlabeled heap-data separator.
	plainHeapMark cct.FrameID

	// trace, when non-nil, records every memory sample MemProf-style (see
	// EnableTrace and the tracecmp experiment).
	trace *Trace

	// tel holds the self-observability instruments (all nil when
	// Config.Telemetry is nil — every update degrades to one branch).
	tel instruments
}

// tstate is the per-thread measurement state.
type tstate struct {
	prof    *Profiler
	t       *sim.Thread
	profile *cct.Profile

	pendingLabel string
	// stackVars maps registered stack-variable ranges to their dummy-node
	// prefixes (§7 extension). Thread-local: its mutex is never contended.
	stackVars heapmap.Map[[]cct.FrameID]

	// stackIDs mirrors the thread's live stack as interned FrameIDs; the
	// bottom ConvCacheDepth frames are known current (same invalidation
	// rule as the trampoline, tracked separately so refreshing on samples
	// does not perturb the simulated trampoline state or its charges).
	stackIDs []cct.FrameID
	// stackEpoch increments whenever stackIDs changes; the last-node cache
	// keys on it to prove the calling context is unchanged.
	stackEpoch uint64

	// frameIDs memoizes live-frame -> FrameID conversion per (function,
	// call line). Function symbol data is immutable, so entries never go
	// stale.
	frameIDs map[frameKey]cct.FrameID
	// leafIDs memoizes IP -> statement-frame resolution. Unlike frameIDs
	// it can go stale (module load/unload changes what an IP resolves to),
	// so it is revalidated against the load map's generation.
	leafIDs map[uint64]leafEntry
	leafGen uint64

	// Last-node cache: consecutive samples at the same (class, variable
	// prefix, calling context, leaf) skip InsertPath entirely.
	lastNode   *cct.Node
	lastClass  cct.Class
	lastLeaf   cct.FrameID
	lastEpoch  uint64
	lastPrefix []cct.FrameID

	// blockCache is the thread's 1-entry heap-map cache (sample locality:
	// consecutive samples usually land in the same block).
	blockCache heapmap.Cache[[]cct.FrameID]

	// rec buckets samples into sim-time windows (nil when
	// Config.TemporalWindow is zero). Thread-local, zero-alloc in steady
	// state; its output becomes profile.Temporal at collection time.
	rec *temporal.Recorder

	// pathBuf is scratch for building sample paths without allocating.
	pathBuf []cct.FrameID
}

// frameKey identifies a converted call frame: the function symbol is
// canonical per load, and the call line completes the CCT identity.
type frameKey struct {
	fn   *loadmap.Function
	line int
}

// leafEntry caches one IP resolution, including the negative case
// (unloaded module) so repeatedly-sampled dead IPs stay cheap.
type leafEntry struct {
	id cct.FrameID
	ok bool
}

// Attach wraps the process's runtime events with profiler instrumentation.
// Call before Process.Start / World.Run.
func Attach(p *sim.Process, cfg Config) *Profiler {
	if cfg.Period == 0 {
		cfg.Period = DefaultConfig().Period
	}
	prof := &Profiler{
		cfg:    cfg,
		proc:   p,
		states: make(map[*sim.Thread]*tstate),
		tel:    newInstruments(cfg.Telemetry),
	}
	for _, k := range []sim.AllocKind{sim.AllocMalloc, sim.AllocCalloc, sim.AllocRealloc} {
		prof.allocKindIDs[k] = cct.InternFrame(cct.Frame{
			Kind: cct.KindCall, Module: "libc", Name: k.String(), File: "stdlib.h",
		})
	}
	prof.plainHeapMark = cct.InternFrame(cct.Frame{Kind: cct.KindHeapData})
	p.SetHooks(prof)
	return prof
}

// charge bills profiler-induced cycles to the thread and mirrors them into
// the overhead counter, keeping the simulated and telemetry views of
// measurement cost in lockstep.
func (p *Profiler) charge(t *sim.Thread, cycles uint64) {
	t.ChargeOverhead(cycles)
	p.tel.overheadCycles.Add(cycles)
}

// Config returns the profiler's configuration.
func (p *Profiler) Config() Config { return p.cfg }

// ThreadStart implements sim.Hooks: it programs the thread's PMU and
// creates its CCTs.
func (p *Profiler) ThreadStart(t *sim.Thread) {
	ts := &tstate{
		prof:     p,
		t:        t,
		profile:  cct.NewProfile(p.proc.Rank, t.ID, p.cfg.EventString()),
		frameIDs: make(map[frameKey]cct.FrameID),
		leafIDs:  make(map[uint64]leafEntry),
		leafGen:  t.Proc.LoadMap.Gen(),
	}
	if p.cfg.TemporalWindow > 0 {
		ts.rec = temporal.NewRecorder(p.cfg.TemporalWindow)
	}
	var sampler pmu.Sampler
	if p.cfg.Mode == ModeMarked {
		sampler = pmu.NewMarked(p.cfg.Marked, p.cfg.Period, ts.handle)
	} else {
		sampler = pmu.NewIBS(p.cfg.Period, ts.handle)
	}
	t.SetSampler(sampler)
	p.charge(t, p.cfg.ThreadSetupCycles)

	p.statesMu.Lock()
	p.states[t] = ts
	p.statesMu.Unlock()
}

// ThreadEnd implements sim.Hooks.
func (p *Profiler) ThreadEnd(t *sim.Thread) {}

// state returns the thread's profiler state.
func (p *Profiler) state(t *sim.Thread) *tstate {
	p.statesMu.Lock()
	ts := p.states[t]
	p.statesMu.Unlock()
	if ts == nil {
		panic("profiler: event from thread without ThreadStart")
	}
	return ts
}

// Label names the calling thread's *next* allocation; views display it
// beside the allocation call path (standing in for the paper's manual
// source annotation of figures).
func (p *Profiler) Label(t *sim.Thread, name string) {
	p.state(t).pendingLabel = name
}

// frameIDFor converts one live stack frame to its interned CCT identity,
// memoized per thread.
func (ts *tstate) frameIDFor(f sim.Frame) cct.FrameID {
	k := frameKey{fn: f.Fn, line: f.CallLine}
	if id, ok := ts.frameIDs[k]; ok {
		return id
	}
	id := cct.InternFrame(cct.Frame{
		Kind:   cct.KindCall,
		Module: f.Fn.Module.Name,
		Name:   f.Fn.Name,
		File:   f.Fn.File,
		Line:   f.CallLine,
	})
	ts.frameIDs[k] = id
	ts.prof.tel.internerFrames.Set(int64(cct.DefaultInterner().Len()))
	return id
}

// syncStack refreshes stackIDs to mirror the live stack, converting only
// the frames above the unchanged bottom prefix, and reports whether the
// calling context is byte-identical to the last synced one.
func (ts *tstate) syncStack(frames []sim.Frame) {
	known := ts.t.ConvCacheDepth()
	if known > len(ts.stackIDs) {
		known = len(ts.stackIDs)
	}
	if known == len(frames) && known == len(ts.stackIDs) {
		return // unchanged since last sync: epoch stays put
	}
	ts.stackEpoch++
	ts.stackIDs = ts.stackIDs[:known]
	for i := known; i < len(frames); i++ {
		ts.stackIDs = append(ts.stackIDs, ts.frameIDFor(frames[i]))
	}
	ts.t.SetConvCacheDepth(len(frames))
}

// OnAlloc implements sim.Hooks: the malloc-family wrapper.
func (p *Profiler) OnAlloc(t *sim.Thread, addr mem.Addr, size uint64, kind sim.AllocKind) {
	p.charge(t, p.cfg.WrapCycles)
	ts := p.state(t)
	label := ts.pendingLabel
	ts.pendingLabel = ""
	if !p.cfg.TrackAllocations {
		return
	}
	if p.cfg.SizeThreshold > 0 && size < p.cfg.SizeThreshold && !p.trackSmallAlloc() {
		p.skippedAllocs.Add(1)
		p.tel.allocSkipped.Inc()
		return
	}

	// Unwind the allocation calling context. With the trampoline, only the
	// suffix above the marked frame must be walked; without it, the whole
	// stack is unwound every time. The charge models the simulated unwind;
	// the host-side conversion reuse is tracked separately by syncStack.
	frames := t.Frames()
	depth := len(frames)
	known := 0
	if p.cfg.UseTrampoline {
		known = t.TrampolineDepth()
		if known > 0 {
			p.tel.trampHits.Inc()
			p.tel.trampFramesSaved.Add(uint64(known))
		} else {
			p.tel.trampMisses.Inc()
		}
	}
	p.charge(t, p.cfg.contextCost()+p.cfg.AllocUnwindBase+
		p.cfg.UnwindFrameCycles*uint64(depth-known))
	ts.syncStack(frames)
	t.SetTrampolineDepth(depth)

	// Allocation context = stack + allocation statement + allocator entry
	// + heap-data mark. Copied so it stays immutable.
	stmtID, okStmt := ts.leafID(t.IP())
	if !okStmt {
		// Allocating from a function that resolves to no module cannot
		// happen while the function executes; keep a defensive identity.
		stmtID = cct.InternFrame(stmtFrameAt(t))
	}
	mark := p.plainHeapMark
	if label != "" {
		mark = cct.InternFrame(cct.Frame{Kind: cct.KindHeapData, Name: label})
	}
	prefix := make([]cct.FrameID, 0, depth+3)
	prefix = append(prefix, ts.stackIDs...)
	prefix = append(prefix, stmtID, p.allocKindIDs[kind], mark)

	// A racing free of an overlapping stale range cannot happen (allocator
	// hands out disjoint live ranges), so Insert only fails on profiler
	// bookkeeping bugs.
	if err := p.blocks.Insert(uint64(addr), uint64(addr)+size, prefix); err != nil {
		panic("profiler: heap map corrupt: " + err.Error())
	}
	p.trackedAllocs.Add(1)
	p.tel.allocTracked.Inc()
	p.tel.liveBlocks.Add(1)
	p.tel.heapRebuilds.Inc()
	p.tel.internerFrames.Set(int64(cct.DefaultInterner().Len()))
}

// OnFree implements sim.Hooks: frees are always wrapped (cheaply — no
// calling context is collected for them) so stale ranges never
// mis-attribute later samples. Removing the block republishes the heap-map
// snapshot, which atomically invalidates every thread's last-block cache —
// address reuse after free/realloc cannot hit a stale entry.
func (p *Profiler) OnFree(t *sim.Thread, addr mem.Addr, size uint64) {
	p.charge(t, p.cfg.WrapCycles)
	_, tracked := p.blocks.RemoveAt(uint64(addr))
	if tracked {
		p.tel.liveBlocks.Add(-1)
		p.tel.heapRebuilds.Inc()
	}
}

// handle is the PMU interrupt handler, running on the sampled thread.
func (ts *tstate) handle(s *pmu.Sample) {
	t := ts.t
	prof := ts.prof
	cfg := &prof.cfg
	frames := t.Frames()
	depth := len(frames)
	prof.charge(t, cfg.SampleBaseCycles+cfg.UnwindFrameCycles*uint64(depth))
	prof.tel.samplesTaken.Inc()
	prof.tel.unwindDepth.Observe(uint64(depth))

	ts.recordTrace(s)

	ip := s.PreciseIP
	if cfg.UseSkidIP {
		ip = s.SkidIP
	} else if s.SkidIP != s.PreciseIP {
		prof.tel.samplesSkid.Inc()
	}
	leaf, ok := ts.leafID(ip)
	if !ok {
		prof.tel.samplesDropped.Inc()
		return // IP in unloaded module; drop, as the real tool must
	}
	ts.syncStack(frames)

	var v metric.Vector
	v[metric.Samples] = 1
	if !s.IsMem {
		ts.record(cct.ClassNonMem, nil, leaf, &v)
		return
	}
	mi := &s.Mem
	v[metric.Latency] = mi.Latency
	v[sourceMetric(mi)] = 1
	if mi.TLBMiss {
		v[metric.TLBMiss] = 1
	}
	if mi.Write {
		v[metric.Stores] = 1
	}

	class, varPrefix := prof.classify(mi.EA, &ts.blockCache)
	if class == cct.ClassUnknown {
		if prefix, ok := ts.stackVarPrefix(mi.EA); ok {
			varPrefix = prefix
		}
	}
	ts.record(class, varPrefix, leaf, &v)
}

// samePrefix reports whether two immutable prefix slices are the same
// slice (variable prefixes are shared, never rebuilt, so identity implies
// equality).
func samePrefix(a, b []cct.FrameID) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// record attributes the vector at prefix ++ stack ++ leaf in the class's
// tree. Steady state — same storage class, same variable, same calling
// context, same statement as the previous sample — adds the vector to the
// cached node directly, skipping path insertion.
func (ts *tstate) record(class cct.Class, prefix []cct.FrameID, leaf cct.FrameID, v *metric.Vector) {
	if n := ts.lastNode; n != nil && class == ts.lastClass && leaf == ts.lastLeaf &&
		ts.stackEpoch == ts.lastEpoch && samePrefix(prefix, ts.lastPrefix) {
		ts.prof.tel.lastNodeHits.Inc()
		if ts.rec != nil {
			// Before the add: the recorder snapshots cumulative metrics
			// at a node's first touch per window.
			ts.rec.Record(ts.t.Clock(), class, n)
		}
		ts.profile.Trees[class].Add(n, v)
		return
	}
	ts.prof.tel.lastNodeMisses.Inc()
	buf := ts.pathBuf[:0]
	buf = append(buf, prefix...)
	buf = append(buf, ts.stackIDs...)
	buf = append(buf, leaf)
	ts.pathBuf = buf
	t := ts.profile.Trees[class]
	n := t.InsertPathIDs(buf)
	if ts.rec != nil {
		ts.rec.Record(ts.t.Clock(), class, n)
	}
	t.Add(n, v)
	ts.lastNode, ts.lastClass, ts.lastLeaf = n, class, leaf
	ts.lastEpoch, ts.lastPrefix = ts.stackEpoch, prefix
}

// classify resolves an effective address to its storage class and, for heap
// and static data, the interned variable prefix to hang the access path
// under. The heap lookup is lock-free; cache is the calling thread's
// 1-entry locality cache (pass a scratch Cache when classifying outside a
// sampling thread).
func (p *Profiler) classify(ea mem.Addr, cache *heapmap.Cache[[]cct.FrameID]) (cct.Class, []cct.FrameID) {
	prefix, ok, cached := p.blocks.LookupCached(uint64(ea), cache)
	p.tel.heapLookups.Inc()
	if ok {
		if cached {
			p.tel.blockCacheHits.Inc()
		}
		p.tel.heapHits.Inc()
		return cct.ClassHeap, prefix
	}
	if sv, found := p.proc.LoadMap.FindStatic(ea); found {
		if fr, ok := p.staticPrefix.Load(sv); ok {
			return cct.ClassStatic, fr.([]cct.FrameID)
		}
		fr := []cct.FrameID{cct.InternFrame(cct.Frame{
			Kind: cct.KindStaticVar, Module: sv.Module.Name, Name: sv.Name,
		})}
		actual, _ := p.staticPrefix.LoadOrStore(sv, fr)
		return cct.ClassStatic, actual.([]cct.FrameID)
	}
	return cct.ClassUnknown, nil
}

// leafID resolves a sampled IP to its interned statement frame, memoized
// per thread and revalidated against the load map generation (an unload
// makes cached resolutions stale; a load can make negative entries stale).
func (ts *tstate) leafID(ip uint64) (cct.FrameID, bool) {
	lm := ts.t.Proc.LoadMap
	if g := lm.Gen(); g != ts.leafGen {
		clear(ts.leafIDs)
		ts.leafGen = g
	}
	if e, ok := ts.leafIDs[ip]; ok {
		return e.id, e.ok
	}
	mod, fn, line, ok := lm.ResolveIP(ip)
	var id cct.FrameID
	if ok {
		id = cct.InternFrame(cct.Frame{
			Kind: cct.KindStmt, Module: mod.Name, Name: fn.Name, File: fn.File, Line: line,
		})
	}
	ts.leafIDs[ip] = leafEntry{id: id, ok: ok}
	return id, ok
}

// stmtFrameAt is the statement frame for the thread's current position
// (used as the allocation point in allocation contexts).
func stmtFrameAt(t *sim.Thread) cct.Frame {
	fn := t.Func()
	return cct.Frame{Kind: cct.KindStmt, Module: fn.Module.Name, Name: fn.Name, File: fn.File, Line: t.Line()}
}

// sourceMetric maps a data source to its metric id.
func sourceMetric(mi *pmu.MemInfo) metric.ID {
	switch mi.Source {
	case cache.SrcL1:
		return metric.FromL1
	case cache.SrcL2:
		return metric.FromL2
	case cache.SrcL3:
		return metric.FromL3
	case cache.SrcRemoteL3:
		return metric.FromRL3
	case cache.SrcLocalDRAM:
		return metric.FromLMEM
	default:
		return metric.FromRMEM
	}
}

// Profiles returns the per-thread profiles collected so far, ordered by
// thread id. Call after the process finished.
func (p *Profiler) Profiles() []*cct.Profile {
	p.statesMu.Lock()
	defer p.statesMu.Unlock()
	out := make([]*cct.Profile, 0, len(p.states))
	for _, ts := range p.states {
		if ts.rec != nil {
			ts.profile.Temporal = ts.rec.Series()
		}
		out = append(out, ts.profile)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Thread < out[j].Thread })
	return out
}

// Stats reports allocation-tracking decisions.
func (p *Profiler) Stats() (tracked, skipped uint64, liveTracked int) {
	return p.trackedAllocs.Load(), p.skippedAllocs.Load(), p.blocks.Len()
}
