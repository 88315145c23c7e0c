package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/heapmap"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/telemetry"
)

const (
	collectPeriod = 1     // IBS: every retired instruction delivers a sample
	collectWindow = 65536 // temporal window, cycles (the profiler's default)
)

// collectInst is the collect_dense workload: the synthetic program run
// under the profiler and written out, beside its unprofiled twin.
type collectInst struct {
	dir  string
	plan *progPlan
	// small is a quarter-size plan for the layer measurements that only
	// need a difference between two runs, not the full program.
	small *progPlan

	profiled, unprofiled, writes []time.Duration

	last      []*cct.Profile
	lastBytes int64
	samples   uint64
	memOps    uint64
}

func setupCollect(e *env) (instance, error) {
	return &collectInst{
		dir:   filepath.Join(e.dir, "measurements"),
		plan:  newProgPlan(e.seed, e.sz.collectAccesses),
		small: newProgPlan(e.seed+1, e.sz.collectAccesses/4),
	}, nil
}

func totalOf(profiles []*cct.Profile) metric.Vector {
	var v metric.Vector
	for _, p := range profiles {
		t := p.Total()
		for i := range v {
			v[i] += t[i]
		}
	}
	return v
}

func (c *collectInst) rep(tr *tracer) (repResult, error) {
	if err := os.RemoveAll(c.dir); err != nil {
		return repResult{}, err
	}
	root := tr.begin(0, layerHarness, "collect.rep", 0)
	t0 := time.Now()
	s := tr.begin(root, layerProfiler, "program.profiled", 0)
	pr := runProgram(progConfig{plan: c.plan, profile: true, period: collectPeriod, window: collectWindow})
	tr.end(s)
	t1 := time.Now()
	s = tr.begin(root, layerProfio, "profio.WriteDir", 0)
	n, err := profio.WriteDir(c.dir, pr.profiles)
	tr.end(s)
	t2 := time.Now()
	tr.end(root)
	if err != nil {
		return repResult{}, err
	}

	// The unprofiled twin: same plan, no Attach. It is timed beside the
	// profiled run so that a simulator speed-up shows as one, instead of
	// as a profiler change.
	s = tr.begin(0, layerSim, "program.unprofiled", 0)
	un := runProgram(progConfig{plan: c.plan})
	tr.end(s)
	t3 := time.Now()

	c.profiled = append(c.profiled, t1.Sub(t0))
	c.writes = append(c.writes, t2.Sub(t1))
	c.unprofiled = append(c.unprofiled, t3.Sub(t2))
	c.last, c.lastBytes = pr.profiles, n
	c.samples = totalOf(pr.profiles)[metric.Samples]
	c.memOps = pr.memOps

	r := repResult{
		wall:        t2.Sub(t0),
		units:       int(c.samples),
		ops:         []time.Duration{t2.Sub(t0)},
		outputBytes: n,
		attempted:   2,
	}
	// At period 1 every retired instruction is one sample (a thread's
	// entry call may retire before its sampler is armed), and the twin
	// retires the same instructions as the profiled run.
	if d := int64(pr.instructions) - int64(c.samples); d < 0 || d > progThreads {
		fmt.Fprintf(os.Stderr, "collect_dense: %d samples for %d instructions\n", c.samples, pr.instructions)
		r.failed++
	}
	if un.instructions != pr.instructions || un.memOps != pr.memOps {
		fmt.Fprintf(os.Stderr, "collect_dense: twin retired %d/%d, profiled run %d/%d\n",
			un.instructions, un.memOps, pr.instructions, pr.memOps)
		r.failed++
	}
	return r, nil
}

// verify reads the last measurement directory back and compares metric
// totals with the profiles that were written.
func (c *collectInst) verify() (int, int, error) {
	back, err := profio.ReadDir(c.dir)
	if err != nil {
		return 1, 1, err
	}
	if len(back) != len(c.last) || totalOf(back) != totalOf(c.last) {
		fmt.Fprintf(os.Stderr, "collect_dense: read back %d profiles totalling %v, wrote %d totalling %v\n",
			len(back), totalOf(back), len(c.last), totalOf(c.last))
		return 1, 1, nil
	}
	return 1, 0, nil
}

func (c *collectInst) close() error { return os.RemoveAll(filepath.Dir(c.dir)) }

// medianOf times fn n times and returns the median wall in seconds.
func medianOf(n int, fn func()) float64 {
	var ds []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn()
		ds = append(ds, time.Since(t0))
	}
	return median(seconds(ds))
}

func (c *collectInst) layers(lc *layerCtx) error {
	m := lc.m
	prof, unprof, write := median(seconds(c.profiled)), median(seconds(c.unprofiled)), median(seconds(c.writes))

	// From outside, the profiled run is one call: the simulator's part
	// of it is what the unprofiled twin costs, the rest is the profiler
	// with the heap map, CCT insertion and temporal recorder it calls.
	repWall := prof + write
	m["share.sim_pct"] = 100 * unprof / repWall
	m["share.profiler_pct"] = 100 * (prof - unprof) / repWall
	m["share.profio_pct"] = 100 * write / repWall

	m["sim.access_ns"] = 1e9 * unprof / float64(c.memOps)
	m["profiler.sample_ns"] = 1e9 * (prof - unprof) / float64(c.samples)
	m["profiler.slowdown"] = prof / unprof
	m["profio.bytes_per_sample"] = float64(c.lastBytes) / float64(c.samples)

	// Allocation tracking alone: a churn-only run whose sampling period
	// nothing reaches, against its twin.
	var pairs uint64
	churnOn := medianOf(3, func() {
		pairs = runProgram(progConfig{plan: c.small, profile: true, period: 1 << 30, churnOnly: true}).allocs
	})
	churnOff := medianOf(3, func() { runProgram(progConfig{plan: c.small, churnOnly: true}) })
	m["profiler.alloc_track_ns"] = 1e9 * (churnOn - churnOff) / float64(pairs)

	// Temporal recording: the same profiled run with the window on and
	// off, interleaved.
	var wall [2][]time.Duration // window off, on
	for i := 0; i < 8; i++ {
		for j := 0; j < 2; j++ {
			k := (i + j) % 2 // alternate which side runs first
			t0 := time.Now()
			runProgram(progConfig{plan: c.small, profile: true, period: collectPeriod, window: uint64(k) * collectWindow})
			wall[k] = append(wall[k], time.Since(t0))
		}
	}
	m["temporal.record_overhead_pct"] = 100 * (median(seconds(wall[1]))/median(seconds(wall[0])) - 1)

	// Go heap allocations the profiler makes per sample, and its own
	// counters, from one instrumented run.
	reg := telemetry.New()
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pr := runProgram(progConfig{plan: c.plan, profile: true, period: collectPeriod, window: collectWindow, telemetry: reg})
	runtime.ReadMemStats(&ms1)
	runProgram(progConfig{plan: c.plan})
	runtime.ReadMemStats(&ms2)
	extra := float64(ms1.Mallocs-ms0.Mallocs) - float64(ms2.Mallocs-ms1.Mallocs)
	m["profiler.mallocs_per_sample"] = extra / float64(pr.instructions)
	snap := reg.Snapshot()
	m["profiler.samples_taken"] = float64(snap.Counters["profiler.samples.taken"])
	m["profiler.samples_dropped"] = float64(snap.Counters["profiler.samples.dropped"])
	var unknown, all uint64
	for _, p := range pr.profiles {
		unknown += p.Trees[cct.ClassUnknown].Total()[metric.Latency]
		all += p.Total()[metric.Latency]
	}
	m["profiler.unknown_latency_share"] = float64(unknown) / float64(all)

	var encoded bytes.Buffer
	encS := medianOf(3, func() {
		encoded.Reset()
		for _, p := range c.last {
			if err := profio.WriteProfile(&encoded, p); err != nil {
				panic(err) // encoding to memory cannot fail on a profile WriteDir accepted
			}
		}
	})
	m["profio.encode_mb_per_s"] = float64(encoded.Len()) / (1 << 20) / encS

	measureHeapmap(m)
	measureCCTInsert(m)
	return nil
}

const microBudget = 100 * time.Millisecond

// measureHeapmap calls heapmap.Map directly at the live-block count the
// program keeps (512) and at a large one. Mutation copies the whole
// entry slice, so building the map is quadratic: 16,384 blocks is as
// large as a traced run can afford.
func measureHeapmap(m map[string]float64) {
	const stride = 2 * progBlockBytes
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{512, 16384} {
		var hm heapmap.Map[int]
		for i := 0; i < n; i++ {
			if err := hm.Insert(uint64(i)*stride, uint64(i)*stride+progBlockBytes, i); err != nil {
				panic(err) // disjoint by construction
			}
		}
		addrs := make([]uint64, 4096)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(n))*stride + uint64(rng.Intn(progBlockBytes))
		}
		hits := 0
		m[fmt.Sprintf("heapmap.lookup_ns.n%d", n)] = nsPerOp(microBudget, len(addrs), func() {
			for _, a := range addrs {
				if _, ok := hm.Lookup(a); ok {
					hits++
				}
			}
		})
		if hits == 0 {
			panic("heapmap: lookups inside live blocks all missed")
		}
		m[fmt.Sprintf("heapmap.insert_remove_ns.n%d", n)] = nsPerOp(microBudget, 1, func() {
			lo := uint64(n/2) * stride
			hm.RemoveAt(lo)
			if err := hm.Insert(lo, lo+progBlockBytes, n/2); err != nil {
				panic(err)
			}
		})
		if n == 512 {
			// Consecutive samples in one block: the 1-entry cache path.
			var c heapmap.Cache[int]
			m["heapmap.lookup_cached_ns"] = nsPerOp(microBudget, len(addrs), func() {
				for i := range addrs {
					hm.LookupCached(addrs[0]&^63+uint64(i&63), &c)
				}
			})
		}
	}
}

// measureCCTInsert times the two cct calls on the sample path: interning
// a frame already seen, and adding a sample through a depth-12 path of
// interned ids, over 256 distinct paths so the tree is not one chain.
func measureCCTInsert(m map[string]float64) {
	const paths, depth = 256, 12
	frames := make([]cct.Frame, paths)
	for i := range frames {
		frames[i] = cct.Frame{Kind: cct.KindCall, Module: "bench", Name: fmt.Sprintf("fn%d", i), File: "b.c", Line: i}
	}
	ids := make([][]cct.FrameID, paths)
	for i := range ids {
		for d := 0; d < depth; d++ {
			ids[i] = append(ids[i], cct.InternFrame(frames[(i>>uint(d/2)+d*17)%paths]))
		}
		ids[i] = append(ids[i], cct.InternFrame(cct.Frame{Kind: cct.KindStmt, Module: "bench", Name: "leaf", File: "b.c", Line: i % 8}))
	}
	m["cct.intern_ns"] = nsPerOp(microBudget, paths, func() {
		for i := range frames {
			cct.InternFrame(frames[i])
		}
	})
	tree := cct.New()
	var v metric.Vector
	v[metric.Samples], v[metric.Latency] = 1, 100
	m["cct.add_sample_ids_ns"] = nsPerOp(microBudget, paths, func() {
		for _, p := range ids {
			tree.AddSampleIDs(p, &v)
		}
	})
}
