package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
)

// synthProfile builds one deterministic thread profile: a heap variable
// accessed from two statements and a static, with per-thread latency so
// merges are checkable by totals.
func synthProfile(rank, thread int, lat uint64) *cct.Profile {
	p := cct.NewProfile(rank, thread, "IBS@4096")
	var v metric.Vector
	v[metric.Samples] = 2
	v[metric.Latency] = lat
	v[metric.FromRMEM] = 1
	heap := []cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
		{Kind: cct.KindStmt, Module: "exe", Name: "main", File: "main.c", Line: 10},
		{Kind: cct.KindCall, Module: "libc", Name: "malloc"},
		{Kind: cct.KindHeapData, Name: "grid"},
		{Kind: cct.KindStmt, Module: "exe", Name: "smooth", File: "sm.c", Line: 42 + thread%2},
	}
	p.Trees[cct.ClassHeap].AddSample(heap, &v)
	p.Trees[cct.ClassStatic].AddSample([]cct.Frame{
		{Kind: cct.KindStaticVar, Module: "exe", Name: "lut", File: "main.c"},
		{Kind: cct.KindStmt, Module: "exe", Name: "init", File: "main.c", Line: 3},
	}, &v)
	return p
}

// encodeProfile renders the profile in wire format v2.
func encodeProfile(t testing.TB, p *cct.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profio.WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newTestServer builds a server over a temp data dir and an httptest
// front end. Mutate cfg defaults through adjust (may be nil).
func newTestServer(t testing.TB, adjust func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{DataDir: t.TempDir()}
	if adjust != nil {
		adjust(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return srv, ts
}

// post uploads body to the collection and returns the response.
func post(t testing.TB, ts *httptest.Server, collection string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/collections/"+collection+"/profiles", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// mustUpload uploads and asserts 201, returning the parsed result.
func mustUpload(t testing.TB, ts *httptest.Server, collection string, body []byte) UploadResult {
	t.Helper()
	resp := post(t, ts, collection, body)
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload to %s: status %d: %s", collection, resp.StatusCode, raw)
	}
	var res UploadResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("upload response: %v\n%s", err, raw)
	}
	return res
}

// get fetches the path and returns status and body.
func get(t testing.TB, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// mustGet fetches the path and asserts 200.
func mustGet(t testing.TB, ts *httptest.Server, path string) []byte {
	t.Helper()
	status, raw := get(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, status, raw)
	}
	return raw
}

// counter reads one counter from the server's registry.
func counter(srv *Server, name string) uint64 {
	return srv.Registry().Snapshot().Counters[name]
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// fileCount counts published profile files in the collection's directory.
func fileCount(t testing.TB, srv *Server, collection string) int {
	t.Helper()
	col := srv.store.get(collection)
	if col == nil {
		return 0
	}
	files, err := profio.Files(col.dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}
