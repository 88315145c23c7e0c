package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dcprof/internal/analysis"
	"dcprof/internal/cct"
	"dcprof/internal/temporal"
	"dcprof/internal/view"
)

const (
	dashDense   = "dash_dense"    // the dense corpus: a large merged tree to render
	dashApp     = "dash_app"      // thread profiles of the synthetic program, with temporal sidecars
	dashAppBase = "dash_app_base" // the same program on another seed: the diff's "before"
	dashPeriod  = 64
	dashWindows = 16
	dashClients = 2  // closed loop, one keep-alive connection each; nproc here
	dashSample  = 20 // one response in this many is compared with the offline render

	// The app tree's top-down queries ask for every node of the top four
	// levels — a dashboard's collapsed view. With the default share
	// cut-off the size of the answer would hang on which nodes sit near
	// 0.5%, which moves with the seed; this way it follows the tree's
	// shape, which does not.
	dashAppQuery = "?min=0&depth=4"
)

// dashAppOptions are the view options dashAppQuery selects.
func dashAppOptions(event string) view.Options {
	o := viewOptions(event)
	o.MinShare, o.MaxDepth = 0, 4
	return o
}

// dashRoute is one kind of request in the dashboard mix.
type dashRoute struct {
	name  string // the suffix of its server.handler_ms.* metric
	share int    // per cent of the mix
}

var dashRoutes = []dashRoute{
	{"topdown", 40},  // dense
	{"bottomup", 20}, // dense
	{"topdown", 10},  // app
	{"diff", 10},
	{"window", 10},
	{"phases", 5},
	{"stats", 5},
}

// dashInst is the serve_dash workload: a read-only, pre-warmed daemon and
// a fixed, seeded batch of requests replayed by two clients.
type dashInst struct {
	seed int64
	sz   sizes
	root string
	d    *daemon

	app, appBase []*cct.Profile    // kept for the offline expectation
	urls         []string          // distinct request paths; the windows are entries of their own
	kind         []int             // urls[i] is of route dashRoutes[kind[i]]
	window       map[int][2]uint64 // url index -> the cycle range its &window= asks for
	plan         []int             // the batch: indices into urls
	warmMerges   uint64            // server.merges after pre-warming

	clients [dashClients]*http.Client

	mu       sync.Mutex
	sampled  map[int][][sha256.Size]byte // url index -> digests of sampled bodies
	lastOps  []time.Duration             // latencies of the untraced repetitions (for the p99)
	digestOK bool
}

// appProfiles runs the synthetic program once per rank at the dashboard's
// sampling period and returns all thread profiles.
func appProfiles(seed int64, ranks, accesses int) []*cct.Profile {
	plan := newProgPlan(seed, accesses)
	var out []*cct.Profile
	for r := 0; r < ranks; r++ {
		res := runProgram(progConfig{plan: plan, rank: r, profile: true, period: dashPeriod, window: collectWindow})
		out = append(out, res.profiles...)
	}
	return out
}

func setupDash(e *env) (instance, error) {
	ds := &dashInst{seed: e.seed, sz: e.sz, root: e.dir, sampled: map[int][][sha256.Size]byte{}, window: map[int][2]uint64{}}
	data := filepath.Join(e.dir, "data")
	// A bare directory of profile files is a collection the daemon adopts
	// at start-up: set-up pays no fsync.
	if _, err := writePlain(filepath.Join(data, dashDense), denseProfiles(e.seed, 0, e.sz.dashDenseFiles, e.sz.dashDenseSamples)); err != nil {
		return nil, err
	}
	ds.app = appProfiles(e.seed, e.sz.dashAppRanks, e.sz.dashAppAccesses)
	ds.appBase = appProfiles(e.seed+1000, e.sz.dashAppRanks, e.sz.dashAppAccesses)
	if _, err := writePlain(filepath.Join(data, dashApp), ds.app); err != nil {
		return nil, err
	}
	if _, err := writePlain(filepath.Join(data, dashAppBase), ds.appBase); err != nil {
		return nil, err
	}

	// Sixteen fixed windows over the parallel region: from the latest
	// thread start (the workers') to the latest end. Before it only the
	// master runs, allocating, and a window there has no memory samples.
	var t0, t1 uint64
	for _, p := range ds.app {
		if p.Temporal == nil {
			return nil, fmt.Errorf("app profile %d/%d carries no temporal sidecar", p.Rank, p.Thread)
		}
		s, e := p.Temporal.Span()
		t0, t1 = max(t0, s), max(t1, e)
	}
	add := func(kind int, path string) {
		ds.urls = append(ds.urls, path)
		ds.kind = append(ds.kind, kind)
	}
	first := make([]int, len(dashRoutes)) // first url index of each route
	for k := range dashRoutes {
		first[k] = len(ds.urls)
		switch k {
		case 0:
			add(k, "/collections/"+dashDense+"/topdown")
		case 1:
			add(k, "/collections/"+dashDense+"/bottomup")
		case 2:
			add(k, "/collections/"+dashApp+"/topdown"+dashAppQuery)
		case 3:
			add(k, "/collections/"+dashApp+"/diff?base="+dashAppBase)
		case 4:
			for w := uint64(0); w < dashWindows; w++ {
				lo, hi := t0+(t1-t0)*w/dashWindows, t0+(t1-t0)*(w+1)/dashWindows
				ds.window[len(ds.urls)] = [2]uint64{lo, hi}
				add(k, "/collections/"+dashApp+"/topdown"+dashAppQuery+"&window="+temporal.FormatWindowSpec(lo, hi))
			}
		case 5:
			add(k, "/collections/"+dashApp+"/phases")
		case 6:
			add(k, "/collections/"+dashApp+"/stats")
		}
	}

	// The batch: the mix in exact proportion, in seeded order. Every
	// repetition replays it, so request counts and bytes repeat.
	rng := rand.New(rand.NewSource(e.seed))
	for k, route := range dashRoutes {
		for i := 0; i < e.sz.dashBatch*route.share/100; i++ {
			u := first[k]
			if k == 4 {
				u += rng.Intn(dashWindows)
			}
			ds.plan = append(ds.plan, u)
		}
	}
	rng.Shuffle(len(ds.plan), func(i, j int) { ds.plan[i], ds.plan[j] = ds.plan[j], ds.plan[i] })

	d, err := startDaemon(data)
	if err != nil {
		return nil, err
	}
	ds.d = d
	for i := range ds.clients {
		ds.clients[i] = newClient()
	}
	// Pre-warm: every distinct view is merged, clipped and cached now.
	for _, u := range ds.urls {
		rep, err := do(ds.clients[0], nil, 0, 0, http.MethodGet, d.url+u, nil)
		if err != nil {
			d.stop()
			return nil, err
		}
		if rep.status != http.StatusOK {
			d.stop()
			return nil, fmt.Errorf("pre-warm GET %s: status %d: %s", u, rep.status, rep.body)
		}
	}
	ds.warmMerges = d.counter("server.merges")
	return ds, nil
}

func (ds *dashInst) rep(tr *tracer) (repResult, error) {
	ds.d.tr.Store(tr)
	defer ds.d.tr.Store(nil)
	type clientResult struct {
		ops      []time.Duration
		bytes    int64
		failed   int
		firstErr error
	}
	var res [dashClients]clientResult
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range ds.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &res[c]
			root := tr.begin(0, layerHarness, "dash.client", c+1)
			defer tr.end(root)
			for i := c; i < len(ds.plan); i += dashClients {
				u := ds.plan[i]
				rep, err := do(ds.clients[c], tr, root, c+1, http.MethodGet, ds.d.url+ds.urls[u], nil)
				if err != nil {
					out.firstErr = err
					return
				}
				out.ops = append(out.ops, rep.latency)
				out.bytes += int64(len(rep.body))
				if rep.status != http.StatusOK {
					fmt.Fprintf(os.Stderr, "serve_dash: GET %s: status %d: %s\n", ds.urls[u], rep.status, rep.body)
					out.failed++
				}
				if i%dashSample == 0 {
					sum := sha256.Sum256(rep.body)
					ds.mu.Lock()
					ds.sampled[u] = append(ds.sampled[u], sum)
					ds.mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	r := repResult{wall: time.Since(t0), units: len(ds.plan), attempted: len(ds.plan) + 1}
	for _, cr := range res {
		if cr.firstErr != nil {
			return r, cr.firstErr
		}
		r.ops = append(r.ops, cr.ops...)
		r.outputBytes += cr.bytes
		r.failed += cr.failed
	}
	r.outputBytes /= int64(len(ds.plan)) // the mean response body
	if tr == nil {
		ds.lastOps = append(ds.lastOps, r.ops...)
	}
	// A warm dashboard merges nothing and sheds nothing.
	if merges, shed := ds.d.counter("server.merges"), ds.d.counter("server.shed"); merges != ds.warmMerges || shed != 0 {
		fmt.Fprintf(os.Stderr, "serve_dash: %d merges during the timed section, %d requests shed\n", merges-ds.warmMerges, shed)
		r.failed++
	}
	return r, nil
}

// offline merges the three collections without the daemon, its files or
// its decoder: in memory, one worker.
func (ds *dashInst) offline() (dense, app, base *analysis.Database) {
	dense = analysis.Merge(denseProfiles(ds.seed, 0, ds.sz.dashDenseFiles, ds.sz.dashDenseSamples), 1)
	app = analysis.MergePreserving(ds.app, 1)
	base = analysis.MergePreserving(ds.appBase, 1)
	return dense, app, base
}

// expect renders what urls[u] must answer, from the offline merges. The
// stats document carries wall times and has no fixed expectation.
func (ds *dashInst) expect(u int, dense, app, base *analysis.Database) ([]byte, error) {
	var b bytes.Buffer
	var err error
	switch dashRoutes[ds.kind[u]].name {
	case "stats":
		return nil, nil
	case "bottomup":
		err = view.WriteBottomUpJSON(&b, dense.Merged, viewOptions(dense.Event))
	case "diff":
		o := viewOptions(app.Event)
		err = view.WriteDiffJSON(&b, base.Merged, app.Merged, o.Metric, o.MaxRows)
	case "phases":
		var ph []temporal.Phase
		if ph, err = analysis.Phases(app); err == nil {
			err = view.WritePhasesJSON(&b, app.Event, app.Temporal.Width(), ph)
		}
	case "window":
		w := ds.window[u]
		var clipped *cct.Profile
		if clipped, err = analysis.Clip(app, w[0], w[1]); err == nil {
			err = view.WriteTopDownJSON(&b, clipped, dashAppOptions(app.Event))
		}
	case "topdown":
		if ds.kind[u] == 2 {
			err = view.WriteTopDownJSON(&b, app.Merged, dashAppOptions(app.Event))
		} else {
			err = view.WriteTopDownJSON(&b, dense.Merged, viewOptions(dense.Event))
		}
	}
	return b.Bytes(), err
}

func (ds *dashInst) verify() (attempted, failed int, err error) {
	dense, app, base := ds.offline()
	for u, sums := range ds.sampled {
		want, err := ds.expect(u, dense, app, base)
		if err != nil {
			return attempted, failed, fmt.Errorf("offline render of %s: %w", ds.urls[u], err)
		}
		if want == nil {
			continue
		}
		wantSum := sha256.Sum256(want)
		for _, got := range sums {
			attempted++
			if got != wantSum {
				fmt.Fprintf(os.Stderr, "serve_dash: GET %s differs from the offline render\n", ds.urls[u])
				failed++
			}
		}
	}
	ds.sampled = map[int][][sha256.Size]byte{}

	// The daemon adopted exactly the files set-up wrote.
	if !ds.digestOK {
		for _, col := range []string{dashDense, dashApp, dashAppBase} {
			want, err := dirDigests(filepath.Join(ds.root, "data", col))
			if err != nil {
				return attempted, failed, err
			}
			rep, err := do(ds.clients[0], nil, 0, 0, http.MethodGet, ds.d.url+"/collections/"+col+"/digests", nil)
			if err != nil {
				return attempted, failed, err
			}
			attempted++
			if rep.status != http.StatusOK {
				failed++
			} else if err := sameDigests(rep.body, want); err != nil {
				fmt.Fprintf(os.Stderr, "serve_dash: %s: %v\n", col, err)
				failed++
			}
		}
		ds.digestOK = true
	}
	return attempted, failed, nil
}

func (ds *dashInst) close() error {
	err := ds.d.stop()
	for _, c := range ds.clients {
		c.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(ds.root); err == nil {
		err = rerr
	}
	return err
}

func (ds *dashInst) layers(lc *layerCtx) error {
	m := lc.m
	ds.d.serverCounters(m)
	m["server.merges"] -= float64(ds.warmMerges) // merges during the timed section: 0
	m["server.request_ms_p99"] = quantile(ms(ds.lastOps), 0.99)

	// Handler time per route: the daemon's handler called directly into a
	// recorder, cache warm.
	call := func(path string) error {
		rec := httptest.NewRecorder()
		ds.d.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, rec.Code)
		}
		return nil
	}
	var callErr error
	timeCall := func(path string) float64 {
		return nsPerOp(microBudget, 1, func() {
			if err := call(path); err != nil && callErr == nil {
				callErr = err
			}
		}) / 1e6
	}
	// One URL stands for each route: the first in urls, which is the
	// dense tree for top-down and the first of the sixteen windows.
	timed := map[string]bool{}
	for u, path := range ds.urls {
		if name := dashRoutes[ds.kind[u]].name; !timed[name] {
			timed[name] = true
			m["server.handler_ms."+name] = timeCall(path)
		}
	}
	m["telemetry.metrics_scrape_ms"] = timeCall("/metrics")
	if callErr != nil {
		return callErr
	}
	// What the sockets and the HTTP stack add to a request: the client
	// span minus the handler span inside it, averaged over the requests.
	m["server.http_overhead_ms"] = 1e3 * lc.self[layerNetHTTP].Seconds() / float64(lc.count[layerNetHTTP])

	// The view and temporal calls the handlers make, made directly.
	dense, app, base := ds.offline()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	renders := 0
	m["view.topdown_json_ms"] = nsPerOp(microBudget, 1, func() {
		view.WriteTopDownJSON(io.Discard, dense.Merged, viewOptions(dense.Event))
		renders++
	}) / 1e6
	runtime.ReadMemStats(&ms1)
	m["view.alloc_kb_per_render"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(renders)
	m["view.bottomup_json_ms"] = nsPerOp(microBudget, 1, func() {
		view.WriteBottomUpJSON(io.Discard, dense.Merged, viewOptions(dense.Event))
	}) / 1e6
	o := viewOptions(app.Event)
	m["view.diff_json_ms"] = nsPerOp(microBudget, 1, func() {
		view.WriteDiffJSON(io.Discard, base.Merged, app.Merged, o.Metric, o.MaxRows)
	}) / 1e6
	t0, t1 := app.Temporal.Span()
	var clipErr error
	m["temporal.clip_ms"] = nsPerOp(microBudget, 1, func() {
		if _, err := analysis.Clip(app, t0+(t1-t0)/4, t0+(t1-t0)/2); err != nil {
			clipErr = err
		}
	}) / 1e6
	m["temporal.phases_ms"] = nsPerOp(microBudget, 1, func() {
		if _, err := analysis.Phases(app); err != nil {
			clipErr = err
		}
	}) / 1e6
	return clipErr
}
