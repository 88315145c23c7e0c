package main

import (
	"fmt"
	"math/rand"

	"dcprof/internal/cache"
	"dcprof/internal/cct"
	"dcprof/internal/loadmap"
	"dcprof/internal/machine"
	"dcprof/internal/mem"
	"dcprof/internal/profiler"
	"dcprof/internal/sim"
	"dcprof/internal/telemetry"
)

// The synthetic program collect_dense profiles. It is written against the
// public sim + profiler API (the pattern of runTwoPhase in
// temporal_e2e_test.go) and shaped so that attribution, not simulation,
// is as large a share of the run as the API allows: every instruction
// samples (IBS period 1), the calling context is 12 deep and changes
// every 32 accesses so the profiler's last-node cache cannot serve
// everything, accesses spread over 512 labelled heap blocks, statics and
// untracked memory, and tracked malloc/free pairs run throughout.
//
// The pairs are rarer than one per 64 accesses: the simulator retires 150
// instructions inside each malloc and each free, and at period 1 every one
// of them is a non-memory sample, so frequent allocation would turn the
// run into non-memory samples at one statement — the profiler's cheapest
// path. At the rates below about two thirds of the samples are memory
// samples.
const (
	progFuncs       = 64
	progDepth       = 12   // call depth inside the parallel region
	progBranchBits  = 10   // levels with a two-way callee choice -> 1024 contexts
	progBlocks      = 512  // labelled heap blocks
	progBlockBytes  = 8192 // above the profiler's 4 KiB tracking threshold
	progStatics     = 8
	progStaticBytes = 64 << 10
	progBrkBytes    = 1 << 20
	progCtxAccesses = 32 // accesses between context changes
	progChurnEvery  = 16 // steps between tracked pairs in the churn phase (512 accesses)
	progAllocEvery  = 64 // steps between tracked pairs elsewhere (2048 accesses)
	progThreads     = 2
)

var progModules = [3]string{"dense_exe", "libsolver.so", "libmesh.so"}

// The four phases, a quarter of each thread's accesses apiece.
const (
	phaseStream = iota // sequential stores over the thread's own local blocks
	phaseGather        // loads from blocks homed in the other NUMA domain
	phaseChurn         // scratch blocks allocated, touched and freed between loads
	phaseMixed         // heap, statics and untracked brk memory interleaved
	numPhases
)

// progStep is one stretch of progCtxAccesses accesses in one calling
// context.
type progStep struct {
	ctx uint16
}

// progPlan is a run's schedule: the call graph and, per thread, the
// sequence of contexts visited. The call graph is the same for every seed
// and every thread walks all 1024 contexts in Gray-code order, so the
// calling-context tree — and with it the work per sample and the size of
// the measurement — does not depend on the seed. The seed decides where in
// that cycle each thread starts and which branch each bit selects, which
// moves the order contexts meet the simulated caches and the addresses
// they touch.
type progPlan struct {
	// callee[d][f] holds the two functions f may call at depth d.
	callee [progDepth][progFuncs][2]uint8
	// steps[tid] is the thread's schedule.
	steps [progThreads][]progStep
}

func newProgPlan(seed int64, accesses int) *progPlan {
	rng := rand.New(rand.NewSource(seed))
	pl := &progPlan{}
	for d := range pl.callee {
		for f := range pl.callee[d] {
			pl.callee[d][f] = [2]uint8{uint8((f*7 + d*3 + 1) % progFuncs), uint8((f*13 + d*5 + 2) % progFuncs)}
		}
	}
	perThread := accesses / progThreads / progCtxAccesses
	for tid := range pl.steps {
		mask := uint16(rng.Intn(1 << progBranchBits))
		start := rng.Intn(1 << progBranchBits)
		steps := make([]progStep, perThread)
		for i := range steps {
			// Consecutive Gray codes differ in one bit, and low bits —
			// the deepest frames — flip most often: the thread moves
			// between neighbouring contexts, two frames on average.
			n := uint16(start + i)
			steps[i] = progStep{ctx: (n ^ n>>1 ^ mask) & (1<<progBranchBits - 1)}
		}
		pl.steps[tid] = steps
	}
	return pl
}

// progConfig selects one run of the program.
type progConfig struct {
	plan *progPlan
	rank int
	// profile attaches the profiler; false runs the unprofiled twin.
	profile bool
	period  uint64
	window  uint64
	// churnOnly makes every step allocate, touch and free a scratch
	// block: with a sampling period nothing reaches, what the profiler
	// adds to that run is allocation tracking alone.
	churnOnly bool
	telemetry *telemetry.Registry
}

// progResult is what a run hands back.
type progResult struct {
	profiles     []*cct.Profile // nil for the unprofiled twin
	instructions uint64         // retired by all threads; each is one sample at period 1
	memOps       uint64
	allocs       uint64 // tracked malloc/free pairs executed
}

// runProgram executes the program once on a fresh simulated node, so
// every repetition starts from the same cold simulated caches.
func runProgram(c progConfig) progResult {
	node := sim.NewNode(machine.Tiny(), cache.DefaultConfig())
	p := sim.NewProcess(node, c.rank, c.rank, 4, nil)
	var prof *profiler.Profiler
	if c.profile {
		cfg := profiler.DefaultConfig()
		cfg.Period = c.period
		cfg.TemporalWindow = c.window
		cfg.Telemetry = c.telemetry
		prof = profiler.Attach(p, cfg)
	}
	label := func(th *sim.Thread, name string) {
		if prof != nil {
			prof.Label(th, name)
		}
	}

	var mods [len(progModules)]*loadmap.Module
	for i, name := range progModules {
		mods[i] = p.LoadMap.Load(name)
	}
	exe := mods[0]
	fMain := exe.AddFunc("main", "main.c", 1)
	fSetup := exe.AddFunc("setup_blocks", "main.c", 40)
	fRegion := exe.AddFunc("solve.omp_fn.0", "main.c", 80)
	var funcs [progFuncs]*loadmap.Function
	for i := range funcs {
		funcs[i] = mods[i%len(mods)].AddFunc(fmt.Sprintf("kernel_%02d", i), fmt.Sprintf("k%d.c", i%9), 10+20*i)
	}
	var statics [progStatics]mem.Addr
	for i := range statics {
		statics[i] = mods[i%len(mods)].AddStatic(fmt.Sprintf("table_%d", i), progStaticBytes).Lo
	}

	th := p.Start()
	th.Call(fMain)
	th.At(3)
	brk := th.Sbrk(progBrkBytes)

	// 32 variable names over 512 blocks, allocated from 4 call sites: the
	// merged tree has many blocks per variable, as real arrays-of-rows do.
	// The upper quarter is homed in domain 1 before anyone touches it, so
	// gathering from it crosses the interconnect (both threads run in
	// domain 0).
	th.Call(fSetup)
	var blocks [progBlocks]mem.Addr
	for i := range blocks {
		th.At(41 + i%4)
		label(th, fmt.Sprintf("rows_%02d", i%32))
		blocks[i] = th.Malloc(progBlockBytes)
		if i >= progBlocks*3/4 {
			p.Space.BindRange(blocks[i], progBlockBytes, 1)
		}
	}
	th.Ret()

	var res progResult
	var perThread [progThreads]struct{ allocs uint64 }
	th.At(20)
	p.Parallel(th, fRegion, progThreads, func(t *sim.Thread, tid int) {
		w := progWalker{t: t, plan: c.plan, funcs: &funcs}
		steps := c.plan.steps[tid]
		for i, st := range steps {
			w.enter(st.ctx)
			phase := i * numPhases / len(steps)
			if c.churnOnly {
				phase = phaseChurn
			}
			// Each context works on its own group of four blocks, so
			// the per-variable subtrees stay bounded.
			g := int(st.ctx) % (progBlocks / 4) * 4
			line := 11 + int(st.ctx&3)
			t.At(funcs[w.path[progDepth-1]].StartLine + line)
			switch phase {
			case phaseStream:
				// Consecutive doubles: eight stores per cache line.
				b := blocks[(g+tid)%(progBlocks*3/4)]
				off := mem.Addr(i % 32 * progCtxAccesses * 8)
				t.StoreSeq(b+off, progCtxAccesses, 8, 8)
			case phaseGather:
				b := blocks[progBlocks*3/4+(g+tid)%(progBlocks/4)]
				off := mem.Addr(i % 4 * progCtxAccesses * cache.LineSize)
				t.LoadSeq(b+off, progCtxAccesses, 8, cache.LineSize)
			case phaseChurn:
				b := blocks[(g+tid)%progBlocks]
				if c.churnOnly || i%progChurnEvery == 0 {
					label(t, "scratch")
					s := t.Malloc(progBlockBytes)
					t.StoreSeq(s, 8, 8, 8)
					t.LoadSeq(b, progCtxAccesses-8, 8, 8)
					t.Free(s)
					perThread[tid].allocs++
				} else {
					t.LoadSeq(b+mem.Addr(i%32*progCtxAccesses*8), progCtxAccesses, 8, 8)
				}
			case phaseMixed:
				for j := 0; j < progCtxAccesses; j += 4 {
					t.Load(blocks[(g+j/4)%progBlocks]+mem.Addr(j*cache.LineSize), 8)
					t.Load(statics[(g+j)%progStatics]+mem.Addr((i*64+j*8)%progStaticBytes), 8)
					t.Store(brk+mem.Addr((i*256+j*64)%progBrkBytes), 8)
					t.Load(blocks[(g+3)%progBlocks]+mem.Addr(j*cache.LineSize), 8)
				}
			}
			if phase != phaseChurn && i%progAllocEvery == 0 {
				label(t, "scratch")
				t.Free(t.Malloc(progBlockBytes))
				perThread[tid].allocs++
			}
		}
		w.leave()
	})
	th.Ret()
	p.Finish()

	for _, t := range p.Threads() {
		res.instructions += t.Instructions()
		res.memOps += t.MemOps()
	}
	for _, pt := range perThread {
		res.allocs += pt.allocs
	}
	if prof != nil {
		res.profiles = prof.Profiles()
	}
	return res
}

// progWalker keeps one thread's call stack on the path its current
// context selects, calling and returning only through the frames that
// differ — what a real program moving between neighbouring contexts does.
type progWalker struct {
	t     *sim.Thread
	plan  *progPlan
	funcs *[progFuncs]*loadmap.Function
	path  [progDepth]uint8
	depth int
}

// enter moves the stack to context ctx. The first two levels are fixed;
// bit b of ctx picks the callee at level progDepth-1-b, so low bits move
// the deepest frames.
func (w *progWalker) enter(ctx uint16) {
	var want [progDepth]uint8
	want[0], want[1] = 0, 1
	for d := 2; d < progDepth; d++ {
		bit := ctx >> uint(progDepth-1-d) & 1
		want[d] = w.plan.callee[d][want[d-1]][bit]
	}
	keep := 0
	for keep < w.depth && w.path[keep] == want[keep] {
		keep++
	}
	for w.depth > keep {
		w.t.Ret()
		w.depth--
	}
	for w.depth < progDepth {
		if w.depth > 0 {
			w.t.At(w.funcs[w.path[w.depth-1]].StartLine + 2 + int(want[w.depth]&3))
		}
		w.path[w.depth] = want[w.depth]
		w.t.Call(w.funcs[want[w.depth]])
		w.depth++
	}
}

func (w *progWalker) leave() {
	for ; w.depth > 0; w.depth-- {
		w.t.Ret()
	}
}
