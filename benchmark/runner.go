package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// sizes are the fixed operation counts of one repetition of each
// workload. Counts are fixed, not durations, so that sample counts,
// node counts and allocation totals repeat from run to run; --seconds
// only decides how many whole repetitions are measured.
type sizes struct {
	collectAccesses int // memory accesses per program run, over 2 threads

	mergeFiles, mergeSamples int

	liveFiles, liveSamples int // bulk push per repetition
	liveRounds             int // trickle rounds after the bulk push
	liveColdBig            int // files behind server.cold_view_ms.n1000

	dashDenseFiles, dashDenseSamples int
	dashAppRanks                     int // program runs per app collection, 2 thread profiles each
	dashAppAccesses                  int // accesses per program run
	dashBatch                        int // requests per repetition
}

var scales = map[string]sizes{
	"full": {
		collectAccesses: 1 << 20,
		mergeFiles:      10000, mergeSamples: 40,
		liveFiles: 250, liveSamples: 120, liveRounds: 10, liveColdBig: 1000,
		dashDenseFiles: 1000, dashDenseSamples: 120,
		dashAppRanks: 16, dashAppAccesses: 1 << 16,
		dashBatch: 500,
	},
	// smoke keeps every code path and shrinks every count, for the test.
	"smoke": {
		collectAccesses: 1 << 14,
		mergeFiles:      200, mergeSamples: 40,
		liveFiles: 20, liveSamples: 120, liveRounds: 2, liveColdBig: 40,
		dashDenseFiles: 40, dashDenseSamples: 120,
		dashAppRanks: 2, dashAppAccesses: 1 << 14,
		dashBatch: 100,
	},
}

// env is what a workload's set-up receives.
type env struct {
	seed int64
	sz   sizes
	dir  string // scratch directory for this set-up, inside the checkout
}

// repResult is the outcome of one fixed-size repetition.
type repResult struct {
	wall        time.Duration   // the timed section throughput is computed over
	units       int             // work units completed within wall
	ops         []time.Duration // latency of each operation the percentiles are taken over
	outputBytes int64           // size of what the repetition produced for its user
	attempted   int             // operations attempted, correctness checks included
	failed      int             // non-2xx, push failures, failed checks
}

// layerCtx is what a workload's layer measurements fill in.
type layerCtx struct {
	m     map[string]float64       // per-layer metric values, by name
	self  map[string]time.Duration // layer self times of the traced repetitions
	count map[string]int           // spans per layer
}

// instance is one set-up of a workload: its inputs exist, its server (if
// any) is up and warm.
type instance interface {
	// rep runs one repetition; tr is nil when tracing is off.
	rep(tr *tracer) (repResult, error)
	// verify compares the outputs recorded during the repetitions with an
	// expectation computed independently of the path that produced them.
	verify() (attempted, failed int, err error)
	// layers measures the workload's own layers by calling their public
	// functions directly (traced pass only).
	layers(lc *layerCtx) error
	// close stops servers and removes the instance's files.
	close() error
}

type workload struct {
	name string
	why  string
	// setups is how many times the untraced pass sets the workload up;
	// setup_s is their median. The cheaper a set-up, the more a stray
	// page fault moves it and the more repeats it gets; merge_10k's ten
	// thousand files make its set-up the longest by far, so it gets two.
	setups int
	setup  func(e *env) (instance, error)
}

var workloads = []workload{
	{"collect_dense", "every instruction samples at call depth 12: profiler, heapmap, cct and temporal do about a third of the work; analysis, view, server and push do none", 101, setupCollect},
	{"merge_10k", "10,000 thread files through the dcview path: profio decode and analysis fold/reduce do nearly all the work; collection side and daemon do none", 2, setupMerge},
	{"serve_live", "uploads beside queries: every upload invalidates the merged view, so ingest (validate, fsync) and cold query (re-decode, re-merge) are both paid", 5, setupLive},
	{"serve_dash", "read-only dashboard mix against a warm cache: no decode, merge or disk; view render, temporal clip, middleware and net/http are all there is", 3, setupDash},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Reps      int                `json:"reps"`
	OpSamples int                `json:"op_samples"`
	Metrics   map[string]float64 `json:"metrics"`
}

// options are the run parameters shared by both passes.
type options struct {
	seed    int64
	seconds float64
	sz      sizes
	outDir  string
	minReps int
	// oneSetup sets every workload up once only (the smoke test).
	oneSetup bool
}

func (o options) newEnv(w workload, n int) (*env, error) {
	dir := filepath.Join(o.outDir, fmt.Sprintf("work-%s-%d-%d", w.name, os.Getpid(), n))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &env{seed: o.seed, sz: o.sz, dir: dir}, nil
}

// account adds a repetition's operation counts to the run's.
func (res *result) account(r repResult) {
	res.Attempted += r.attempted
	res.Failed += r.failed
}

// start sets the workload up n times, timing each and keeping the last
// instance, then runs the one unmeasured warm-up repetition that fills
// caches and finishes lazy initialisation.
func (o options) start(w workload, n int, res *result) (inst instance, setups []time.Duration, err error) {
	for i := 0; i < n && (i == 0 || !o.oneSetup); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		e, err := o.newEnv(w, i)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		inst, err = w.setup(e)
		if err != nil {
			os.RemoveAll(e.dir)
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0))
	}
	warm, err := inst.rep(nil)
	if err != nil {
		inst.close()
		return nil, nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	res.account(warm)
	return inst, setups, nil
}

// runUntraced measures the end-to-end metrics: set-up (several times,
// median reported), one warm-up repetition, then whole repetitions until
// the time is up, then the correctness checks.
func runUntraced(w workload, o options) (res result, err error) {
	res = result{Workload: w.name, Metrics: map[string]float64{}}

	inst, setups, err := o.start(w, w.setups, &res)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()

	var walls, ops, outputs []float64
	var units int
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for res.Reps < o.minReps || time.Since(start).Seconds() < o.seconds {
		// Every repetition starts from a collected heap, so that where
		// the collector's cycles fall does not depend on what the
		// previous repetition left behind.
		runtime.GC()
		r, err := inst.rep(nil)
		if err != nil {
			return res, fmt.Errorf("%s repetition %d: %w", w.name, res.Reps, err)
		}
		res.account(r)
		res.Reps++
		units = r.units
		walls = append(walls, r.wall.Seconds())
		ops = append(ops, ms(r.ops)...)
		outputs = append(outputs, float64(r.outputBytes))
	}
	runtime.ReadMemStats(&after)
	// The instance still holds its last result (profiles, merged
	// database, warm server cache): this is what stays resident.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	a, f, err := inst.verify()
	if err != nil {
		return res, fmt.Errorf("%s verify: %w", w.name, err)
	}
	res.Attempted += a
	res.Failed += f
	res.Correct = res.Failed == 0
	res.OpSamples = len(ops)

	const mib = 1 << 20
	res.Metrics["setup_s"] = median(seconds(setups))
	res.Metrics["throughput_per_s"] = float64(units) / median(walls)
	res.Metrics["op_ms_p50"] = quantile(ops, 0.50)
	res.Metrics["op_ms_p90"] = quantile(ops, 0.90)
	res.Metrics["output_kb"] = median(outputs) / 1024
	res.Metrics["live_heap_mb"] = float64(live.HeapAlloc) / mib
	res.Metrics["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / mib / float64(res.Reps)
	return res, nil
}

// runTraced produces the per-layer metrics. Untraced and traced
// repetitions alternate so that their difference — the benchmark's own
// tracing cost — is measured under the same conditions; then the
// workload's layers are measured one by one through their public
// functions.
func runTraced(w workload, o options) (res result, err error) {
	res = result{Workload: w.name, Traced: true, Metrics: map[string]float64{}}
	for _, d := range perLayer {
		res.Metrics[d.name] = 0
	}
	inst, _, err := o.start(w, 1, &res)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := inst.close(); err == nil {
			err = cerr
		}
	}()

	tr := newTracer()
	var plain, traced []float64
	firstRepSpans := 0
	start := time.Now()
	for res.Reps < 2 || time.Since(start).Seconds() < o.seconds {
		for _, t := range []*tracer{nil, tr} {
			t0 := time.Now()
			r, err := inst.rep(t)
			if err != nil {
				return res, fmt.Errorf("%s repetition %d: %w", w.name, res.Reps, err)
			}
			d := time.Since(t0).Seconds()
			res.account(r)
			if t == nil {
				plain = append(plain, d)
			} else {
				traced = append(traced, d)
				res.OpSamples += len(r.ops)
			}
		}
		if firstRepSpans == 0 {
			firstRepSpans = tr.len()
		}
		res.Reps++
	}

	self, count, wall := tr.selfTimes()
	lc := &layerCtx{m: res.Metrics, self: self, count: count}
	for _, l := range allLayers {
		if l != layerHarness {
			lc.m["share."+l+"_pct"] = 100 * self[l].Seconds() / wall.Seconds()
		}
	}
	lc.m["trace.unattributed_pct"] = 100 * self[layerHarness].Seconds() / wall.Seconds()
	lc.m["trace.overhead_pct"] = 100 * (median(traced)/median(plain) - 1)
	lc.m["trace.spans"] = float64(tr.len())
	if err := inst.layers(lc); err != nil {
		return res, fmt.Errorf("%s layers: %w", w.name, err)
	}

	a, f, err := inst.verify()
	if err != nil {
		return res, fmt.Errorf("%s verify: %w", w.name, err)
	}
	res.Attempted += a
	res.Failed += f
	// Time the benchmark cannot charge to a layer from outside is a
	// finding; more than a tenth of the wall means the spans no longer
	// explain the run.
	res.Correct = res.Failed == 0 && lc.m["trace.unattributed_pct"] <= 10

	if err := tr.write(filepath.Join(o.outDir, "trace-"+w.name+".json"), firstRepSpans); err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}
