package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/telemetry/spanlog"
	"dcprof/internal/view"
)

// benchProfile builds one dense thread profile (~hundreds of distinct
// contexts), so the gated query renders a realistically sized topdown
// report instead of a toy one.
func benchProfile(thread int) *cct.Profile {
	p := cct.NewProfile(0, thread, "IBS@4096")
	for i := 0; i < 300; i++ {
		var v metric.Vector
		v[metric.Samples] = uint64(i%9 + 1)
		v[metric.Latency] = uint64(50 + i*7%900)
		fn := fmt.Sprintf("f%02d", i%40)
		p.Trees[cct.Class(i%cct.NumClasses)].AddSample([]cct.Frame{
			{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
			{Kind: cct.KindCall, Module: "exe", Name: fn, File: fn + ".c"},
			{Kind: cct.KindStmt, Module: "exe", Name: fn, File: fn + ".c", Line: i % 50},
		}, &v)
	}
	return p
}

// TestMiddlewareOverheadGate measures the cached-query hot path through
// the fully instrumented handler chain (request ID, access log to a
// discard JSON logger, span ring, counters, latency histogram) against
// the same handler with no middleware, and fails if observability costs
// more per request than the budget allows. The budget is absolute: a warm
// top-down hit renders from the entry's snapshot in a few microseconds, so
// a ratio to it would gate the handler's speed, not the middleware's cost.
// Opt-in via DCPROF_BENCH_MIDDLEWARE=<report file> (check.sh sets it,
// pointing at the telemetry bench report so both gates land in one JSON
// document).
func TestMiddlewareOverheadGate(t *testing.T) {
	out := os.Getenv("DCPROF_BENCH_MIDDLEWARE")
	if out == "" {
		t.Skip("set DCPROF_BENCH_MIDDLEWARE=<report file> to run the middleware overhead gate")
	}

	const budget = 20 * time.Microsecond // instrumented - bare, per request

	srv, ts := newTestServer(t, func(c *Config) {
		c.AccessLog = slog.New(slog.NewJSONHandler(io.Discard, nil))
		c.Spans = spanlog.NewBounded(4096)
	})
	for th := 0; th < 8; th++ {
		mustUpload(t, ts, "bench", encodeProfile(t, benchProfile(th)))
	}
	// The collapsed view: a small body, so the handler is a few
	// microseconds and the difference is not lost in its noise.
	const path = "/collections/bench/topdown?depth=1"
	mustGet(t, ts, path) // warm the view cache

	// Both variants dispatch to the same server, store, and warmed cache;
	// the only difference is the instrument() wrapper. ServeMux patterns
	// stay identical so PathValue("name") resolves in both.
	instrumented := srv.Handler()
	bare := http.NewServeMux()
	bare.HandleFunc("GET /collections/{name}/topdown", srv.handleView((*view.Snapshot).WriteTopDownJSON))

	// In-process recorder requests: no sockets, no client allocation
	// noise — just handler-path cost.
	const (
		rounds   = 15
		requests = 400
	)
	measure := func(h http.Handler) time.Duration {
		t0 := time.Now()
		for j := 0; j < requests; j++ {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d during measurement", rec.Code)
			}
		}
		return time.Since(t0) / requests
	}

	// Warm up both, then interleave the rounds so machine drift lands on
	// both sides; the gate is on the median per-request difference.
	measure(bare)
	measure(instrumented)
	var off, on, diff []time.Duration
	for i := 0; i < rounds; i++ {
		b, in := measure(bare), measure(instrumented)
		off, on, diff = append(off, b), append(on, in), append(diff, in-b)
	}
	median := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[len(d)/2]
	}
	bareNS, instrumentedNS, overhead := median(off), median(on), median(diff)

	rep := map[string]any{
		"middleware_off_ns":     bareNS.Nanoseconds(),
		"middleware_on_ns":      instrumentedNS.Nanoseconds(),
		"overhead_ns":           overhead.Nanoseconds(),
		"budget_ns":             budget.Nanoseconds(),
		"pass":                  overhead <= budget,
		"requests":              requests,
		"median_of_interleaved": rounds,
		"timestamp":             time.Now().UTC().Format(time.RFC3339),
	}

	// Merge under the "middleware" key of whatever report document is
	// already at the path (the telemetry gate writes a flat object there
	// first), so one file carries every perf gate.
	doc := map[string]any{}
	if raw, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("existing report %s is not JSON: %v", out, err)
		}
	}
	doc["middleware"] = rep
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("per request: bare %v, instrumented %v, overhead %v (budget %v), report %s", bareNS, instrumentedNS, overhead, budget, out)
	if overhead > budget {
		t.Errorf("middleware adds %v to a cached query (budget %v)", overhead, budget)
	}
}
