package server

// Tests for the operational observability surface: the Prometheus scrape
// endpoint (validated through the independent promtest parser, under
// concurrent load), the request-ID contract, the structured access log,
// the delta/rates view, the self-telemetry timeline, and the trace ring.

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dcprof/internal/telemetry"
	"dcprof/internal/telemetry/promtest"
	"dcprof/internal/telemetry/spanlog"
)

// syncBuffer is a bytes.Buffer safe for the server's handler goroutines
// to log into while the test reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// accessLines parses every complete JSON line the access log holds.
func (s *syncBuffer) accessLines(t testing.TB) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(s.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("access log line is not JSON: %v\n%s", err, line)
		}
		out = append(out, m)
	}
	return out
}

// TestMetricsScrapeUnderLoad is the scrape-shaped e2e test: while query
// and health traffic hammers the server, /metrics is scraped twice and
// both bodies must parse as valid Prometheus text (types consistent,
// histogram buckets cumulative — the parser enforces both), with every
// counter monotone non-decreasing across the scrapes.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	_, ts := newTestServer(t, nil)
	mustUpload(t, ts, "m", encodeProfile(t, synthProfile(0, 0, 100)))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/collections/m/topdown", "/healthz", "/metrics"} {
					resp, err := http.Get(ts.URL + path)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	scrape := func() *promtest.Doc {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
			t.Fatalf("content type %q, want %q", ct, telemetry.PromContentType)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := promtest.Parse(raw)
		if err != nil {
			t.Fatalf("scrape does not parse: %v\n%s", err, raw)
		}
		return doc
	}

	doc1 := scrape()
	time.Sleep(20 * time.Millisecond) // let the load goroutines move the counters
	doc2 := scrape()

	// Every counter present in the first scrape must be monotone.
	names := doc1.CounterNames()
	if len(names) == 0 {
		t.Fatal("first scrape declared no counters")
	}
	for _, name := range names {
		v1, _ := doc1.Value(name)
		v2, ok := doc2.Value(name)
		if !ok {
			t.Errorf("counter %s vanished between scrapes", name)
			continue
		}
		if v2 < v1 {
			t.Errorf("counter %s went backwards: %v -> %v", name, v1, v2)
		}
	}

	// The expected families exist with the expected types and values.
	if v, ok := doc2.Value("server_uploads_accepted_total"); !ok || v != 1 {
		t.Errorf("server_uploads_accepted_total = %v (present %v), want 1", v, ok)
	}
	fam := doc2.Families["server_http_topdown_latency_us"]
	if fam == nil || fam.Type != "histogram" {
		t.Fatalf("topdown latency histogram missing or mistyped: %+v", fam)
	}
	if v, ok := doc2.Value("server_http_topdown_latency_us_count"); !ok || v < 1 {
		t.Errorf("topdown latency count = %v (present %v), want >= 1", v, ok)
	}
	if fam := doc2.Families["server_admission_merges_inflight"]; fam == nil || fam.Type != "gauge" {
		t.Errorf("merge admission gauge missing or mistyped: %+v", fam)
	}
}

// TestRequestIDContract: a valid client ID is echoed; an invalid or
// absent one is replaced by a generated hex ID — always present on the
// response.
func TestRequestIDContract(t *testing.T) {
	_, ts := newTestServer(t, nil)

	fetch := func(id string) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if id != "" {
			req.Header.Set(RequestIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.Header.Get(RequestIDHeader)
	}

	if got := fetch("push-abc123-0007"); got != "push-abc123-0007" {
		t.Errorf("valid client ID not echoed: %q", got)
	}
	if got := fetch("bad id!!"); got != "" && (strings.ContainsAny(got, " !") || len(got) != 16) {
		t.Errorf("invalid client ID not replaced by a generated one: %q", got)
	}
	if got := fetch(""); len(got) != 16 {
		t.Errorf("generated ID = %q, want 16 hex chars", got)
	}
	if got := fetch(strings.Repeat("x", 65)); len(got) != 16 {
		t.Errorf("over-long client ID not replaced: %q", got)
	}
}

// TestAccessLogLines: one structured line per request carrying route,
// status, latency, request ID, and — for queries — the cache verdict.
func TestAccessLogLines(t *testing.T) {
	logBuf := &syncBuffer{}
	_, ts := newTestServer(t, func(c *Config) {
		c.AccessLog = slog.New(slog.NewJSONHandler(logBuf, nil))
	})
	mustUpload(t, ts, "m", encodeProfile(t, synthProfile(0, 0, 100)))
	mustGet(t, ts, "/collections/m/topdown") // cold: miss
	mustGet(t, ts, "/collections/m/topdown") // warm: hit
	if status, _ := get(t, ts, "/collections/nope/topdown"); status != http.StatusNotFound {
		t.Fatalf("missing collection: status %d", status)
	}

	var lines []map[string]any
	waitFor(t, func() bool {
		lines = logBuf.accessLines(t)
		return len(lines) >= 4
	})

	find := func(route string, pred func(map[string]any) bool) map[string]any {
		for _, m := range lines {
			if m["route"] == route && (pred == nil || pred(m)) {
				return m
			}
		}
		return nil
	}
	up := find("upload", nil)
	if up == nil {
		t.Fatalf("no upload access line in:\n%s", logBuf.String())
	}
	if up["collection"] != "m" || up["status"].(float64) != 201 || up["method"] != "POST" {
		t.Errorf("upload line = %v", up)
	}
	if id, _ := up["request_id"].(string); len(id) != 16 {
		t.Errorf("upload line request_id = %v, want generated 16-hex", up["request_id"])
	}
	if _, ok := up["latency_us"].(float64); !ok {
		t.Errorf("upload line missing latency_us: %v", up)
	}
	if miss := find("topdown", func(m map[string]any) bool { return m["cache"] == "miss" }); miss == nil {
		t.Errorf("no topdown cache-miss line in:\n%s", logBuf.String())
	}
	if hit := find("topdown", func(m map[string]any) bool { return m["cache"] == "hit" }); hit == nil {
		t.Errorf("no topdown cache-hit line in:\n%s", logBuf.String())
	}
	if nf := find("topdown", func(m map[string]any) bool { return m["status"].(float64) == 404 }); nf == nil {
		t.Errorf("404 not logged (at WARN) in:\n%s", logBuf.String())
	} else if nf["level"] != "WARN" {
		t.Errorf("404 line level = %v, want WARN", nf["level"])
	}
}

// TestAccessLogShedReason: a shed request's line names why.
func TestAccessLogShedReason(t *testing.T) {
	logBuf := &syncBuffer{}
	srv, ts := newTestServer(t, func(c *Config) {
		c.AccessLog = slog.New(slog.NewJSONHandler(logBuf, nil))
	})
	// Exhaust upload admission directly, then try an upload.
	for srv.uploadSem.tryAcquire() {
	}
	resp := post(t, ts, "m", []byte("x"))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	waitFor(t, func() bool {
		for _, m := range logBuf.accessLines(t) {
			if m["route"] == "upload" && m["shed"] == "uploads" {
				return true
			}
		}
		return false
	})
}

// TestVarsDelta: /debug/vars reports the delta and per-second rates
// since the previous /debug/vars request.
func TestVarsDelta(t *testing.T) {
	_, ts := newTestServer(t, nil)
	mustGet(t, ts, "/debug/vars") // establish the baseline
	for i := 0; i < 3; i++ {
		mustGet(t, ts, "/healthz")
	}
	var v struct {
		UptimeSeconds  float64            `json:"uptime_seconds"`
		WindowSeconds  float64            `json:"window_seconds"`
		Totals         telemetry.Snapshot `json:"totals"`
		Delta          telemetry.Snapshot `json:"delta"`
		RatesPerSecond map[string]float64 `json:"rates_per_second"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/debug/vars"), &v); err != nil {
		t.Fatal(err)
	}
	if got := v.Delta.Counters["server.http.healthz.requests"]; got != 3 {
		t.Errorf("healthz delta = %d, want exactly 3", got)
	}
	if got := v.Totals.Counters["server.http.healthz.requests"]; got != 3 {
		t.Errorf("healthz total = %d, want 3", got)
	}
	if v.WindowSeconds <= 0 || v.UptimeSeconds <= 0 {
		t.Errorf("window %v / uptime %v, want both > 0", v.WindowSeconds, v.UptimeSeconds)
	}
	if rate, ok := v.RatesPerSecond["server.http.healthz.requests"]; !ok || rate <= 0 {
		t.Errorf("healthz rate = %v (present %v), want > 0", rate, ok)
	}
}

// TestVarsMergeSettings: /debug/vars reports the effective merge
// concurrency — the resolved value, so an operator sees what the server
// actually runs with, not the raw zero-valued flag — and no longer
// advertises the shard and section-parallel settings file loads dropped.
func TestVarsMergeSettings(t *testing.T) {
	var v struct {
		MergeWorkers int `json:"merge_workers"`
	}

	_, ts := newTestServer(t, func(c *Config) { c.Workers = 6 })
	body := mustGet(t, ts, "/debug/vars")
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.MergeWorkers != 6 {
		t.Errorf("configured merge_workers = %d, want 6", v.MergeWorkers)
	}
	for _, gone := range []string{"merge_shards", "merge_section_parallel"} {
		if bytes.Contains(body, []byte(gone)) {
			t.Errorf("/debug/vars still carries %q", gone)
		}
	}

	_, ts = newTestServer(t, nil)
	if err := json.Unmarshal(mustGet(t, ts, "/debug/vars"), &v); err != nil {
		t.Fatal(err)
	}
	if want := runtime.GOMAXPROCS(0); v.MergeWorkers != want {
		t.Errorf("default merge_workers = %d, want GOMAXPROCS %d", v.MergeWorkers, want)
	}
}

// TestTimelineEndpoint drives the timeline without a ticker (explicit
// Record calls) and checks the windowed points and adjacent deltas.
func TestTimelineEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	mustGet(t, ts, "/healthz")
	srv.Timeline().Record(time.Now())
	mustGet(t, ts, "/healthz")
	srv.Timeline().Record(time.Now())

	var resp struct {
		WindowSeconds float64                   `json:"window_seconds"`
		Points        []telemetry.TimelinePoint `json:"points"`
		Deltas        []telemetry.TimelinePoint `json:"deltas"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/debug/timeline?window=1h"), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 2 || len(resp.Deltas) != 1 {
		t.Fatalf("points %d / deltas %d, want 2 / 1", len(resp.Points), len(resp.Deltas))
	}
	if got := resp.Deltas[0].Snapshot.Counters["server.http.healthz.requests"]; got != 1 {
		t.Errorf("healthz delta between points = %d, want 1", got)
	}
	if resp.WindowSeconds != 3600 {
		t.Errorf("window_seconds = %v, want 3600", resp.WindowSeconds)
	}

	for _, bad := range []string{"bogus", "-5s", "0s"} {
		if status, _ := get(t, ts, "/debug/timeline?window="+bad); status != http.StatusBadRequest {
			t.Errorf("window=%s: status %d, want 400", bad, status)
		}
	}
}

// TestTimelineTickerServesHistory: with an interval configured, the
// server records its own history without anyone asking.
func TestTimelineTickerServesHistory(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.TimelineInterval = 2 * time.Millisecond
		c.TimelinePoints = 8
	})
	waitFor(t, func() bool { return srv.Timeline().Len() >= 3 })
	var resp struct {
		Points []telemetry.TimelinePoint `json:"points"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/debug/timeline?window=1h"), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) < 3 {
		t.Errorf("ticker produced %d served points, want >= 3", len(resp.Points))
	}
	srv.Close()
	n := srv.Timeline().Len()
	time.Sleep(10 * time.Millisecond)
	if srv.Timeline().Len() != n {
		t.Error("timeline kept recording after Close")
	}
}

// TestTraceEndpoint: request spans land in the bounded ring and serve as
// trace-event JSON; without a configured buffer the endpoint 404s.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Spans = spanlog.NewBounded(16)
	})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, "trace-join-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	waitFor(t, func() bool {
		if err := json.Unmarshal(mustGet(t, ts, "/debug/trace"), &doc); err != nil {
			t.Fatal(err)
		}
		for _, e := range doc.TraceEvents {
			if e.Name == "healthz" && e.Ph == "X" && e.Args["request_id"] == "trace-join-test" {
				return true
			}
		}
		return false
	})

	_, bare := newTestServer(t, nil)
	if status, _ := get(t, bare, "/debug/trace"); status != http.StatusNotFound {
		t.Errorf("trace without buffer: status %d, want 404", status)
	}
}

// TestHealthEndpointsInstrumented: healthz/readyz ride the same
// middleware as every data endpoint — counters move and IDs are issued.
func TestHealthEndpointsInstrumented(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	mustGet(t, ts, "/healthz")
	mustGet(t, ts, "/readyz")
	mustGet(t, ts, "/debug/telemetry")
	if got := counter(srv, "server.http.healthz.requests"); got != 1 {
		t.Errorf("healthz requests = %d, want 1", got)
	}
	if got := counter(srv, "server.http.readyz.requests"); got != 1 {
		t.Errorf("readyz requests = %d, want 1", got)
	}
	if got := counter(srv, "server.http.telemetry.requests"); got != 1 {
		t.Errorf("telemetry requests = %d, want 1", got)
	}
}
