package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dcprof/internal/analysis"
	"dcprof/internal/analysis/statstest"
	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/view"
)

// defaultOptions mirrors what the server uses for a parameterless query.
func defaultOptions(event string) view.Options {
	return view.Options{
		MaxRows:  view.DefaultMaxRows,
		MaxDepth: view.DefaultMaxDepth,
		MinShare: view.DefaultMinShare,
		Metric:   metric.Default(event),
	}
}

// offlineMerge merges the profiles the way the CLI does: write them to a
// directory with the profiler's own writer, load with the streaming
// pipeline.
func offlineMerge(t testing.TB, profiles []*cct.Profile) *analysis.Database {
	t.Helper()
	dir := t.TempDir()
	if _, err := profio.WriteDir(dir, profiles); err != nil {
		t.Fatal(err)
	}
	db, _, err := analysis.LoadDirStreamingCtx(context.Background(), dir, analysis.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestServerEndToEnd is the acceptance test: N profiles uploaded
// concurrently from goroutines, and the served /topdown must be
// byte-identical to an offline dcview-style merge of the same profiles.
// A repeat query must be served from the cache — server.cache.hits
// increments, and no second merge happens.
func TestServerEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, nil)

	var profiles []*cct.Profile
	for rank := 0; rank < 4; rank++ {
		for thread := 0; thread < 2; thread++ {
			profiles = append(profiles, synthProfile(rank, thread, uint64(100+10*rank+thread)))
		}
	}

	// Upload all of them concurrently — the paths the daemon sees in
	// production are racing collectors, not a polite sequence.
	var wg sync.WaitGroup
	for _, p := range profiles {
		wg.Add(1)
		go func(p *cct.Profile) {
			defer wg.Done()
			mustUpload(t, ts, "run1", encodeProfile(t, p))
		}(p)
	}
	wg.Wait()

	var meta Metadata
	if err := json.Unmarshal(mustGet(t, ts, "/collections/run1"), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Profiles != len(profiles) || meta.Generation != uint64(len(profiles)) {
		t.Fatalf("metadata after %d uploads: %+v", len(profiles), meta)
	}

	served := mustGet(t, ts, "/collections/run1/topdown")

	db := offlineMerge(t, profiles)
	var offline bytes.Buffer
	if err := view.WriteTopDownJSON(&offline, db.Merged, defaultOptions(db.Event)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, offline.Bytes()) {
		t.Errorf("served topdown differs from offline merge:\nserved:\n%s\noffline:\n%s", served, offline.Bytes())
	}
	if got := counter(srv, "server.merges"); got != 1 {
		t.Fatalf("merges after first query = %d, want 1", got)
	}

	// Repeat query: cache hit, same bytes, still exactly one merge.
	hits := counter(srv, "server.cache.hits")
	again := mustGet(t, ts, "/collections/run1/topdown")
	if !bytes.Equal(served, again) {
		t.Error("repeat query returned different bytes")
	}
	if got := counter(srv, "server.cache.hits"); got != hits+1 {
		t.Errorf("cache.hits = %d after repeat query, want %d", got, hits+1)
	}
	if got := counter(srv, "server.merges"); got != 1 {
		t.Errorf("merges after repeat query = %d, want 1 (served from cache)", got)
	}

	// Bottom-up goes through the same writer as the CLI too.
	servedBU := mustGet(t, ts, "/collections/run1/bottomup")
	var offlineBU bytes.Buffer
	if err := view.WriteBottomUpJSON(&offlineBU, db.Merged, defaultOptions(db.Event)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(servedBU, offlineBU.Bytes()) {
		t.Errorf("served bottomup differs from offline merge:\nserved:\n%s\noffline:\n%s", servedBU, offlineBU.Bytes())
	}
}

// TestServerStatsRoundTrip pins the served /stats document to the shared
// schema: it must strict-decode into analysis.StatsReport and re-encode
// losslessly — the same contract the dcview golden test enforces, so the
// two surfaces cannot drift apart.
func TestServerStatsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for i := 0; i < 3; i++ {
		mustUpload(t, ts, "run", encodeProfile(t, synthProfile(0, i, 50)))
	}
	raw := mustGet(t, ts, "/collections/run/stats")
	rep := statstest.RoundTrip(t, raw)
	if rep.Inputs != 3 {
		t.Errorf("stats inputs = %d, want 3", rep.Inputs)
	}
	if rep.MergedNodes == 0 || rep.InputNodes == 0 {
		t.Errorf("stats node counts empty: %+v", rep)
	}
	if len(rep.Quarantined) != 0 {
		t.Errorf("unexpected quarantine on clean collection: %+v", rep.Quarantined)
	}
}

// TestUploadCorruptRejected flips one bit of a valid payload: the upload
// must come back 400, land nothing on disk, not advance the generation,
// and leave the collection fully queryable.
func TestUploadCorruptRejected(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	good := []*cct.Profile{synthProfile(0, 0, 100), synthProfile(0, 1, 200)}
	for _, p := range good {
		mustUpload(t, ts, "run", encodeProfile(t, p))
	}

	corrupt := encodeProfile(t, synthProfile(1, 0, 300))
	corrupt[len(corrupt)/2] ^= 0x01
	resp := post(t, ts, "run", corrupt)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload: status %d, want 400", resp.StatusCode)
	}
	if got := counter(srv, "server.uploads.rejected"); got != 1 {
		t.Errorf("uploads.rejected = %d, want 1", got)
	}
	if n := fileCount(t, srv, "run"); n != len(good) {
		t.Fatalf("corrupt upload landed a file: %d files, want %d", n, len(good))
	}

	var meta Metadata
	if err := json.Unmarshal(mustGet(t, ts, "/collections/run"), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Generation != uint64(len(good)) {
		t.Errorf("generation = %d after rejected upload, want %d", meta.Generation, len(good))
	}

	// The collection still answers queries, identical to the intact subset.
	served := mustGet(t, ts, "/collections/run/topdown")
	db := offlineMerge(t, good)
	var offline bytes.Buffer
	if err := view.WriteTopDownJSON(&offline, db.Merged, defaultOptions(db.Event)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, offline.Bytes()) {
		t.Error("collection not intact after rejected upload")
	}
}

// TestUploadTruncatedRejected cuts the payload short; the record-count
// footer check must reject it at ingest.
func TestUploadTruncatedRejected(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	body := encodeProfile(t, synthProfile(0, 0, 100))
	resp := post(t, ts, "run", body[:len(body)-7])
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated upload: status %d, want 400", resp.StatusCode)
	}
	if n := fileCount(t, srv, "run"); n != 0 {
		t.Fatalf("truncated upload landed a file: %d files", n)
	}
}

// TestUploadBadCollectionName rejects path segments that could escape the
// data root or hide from directory scans.
func TestUploadBadCollectionName(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, name := range []string{".hidden", "-flag", "a%2Fb"} {
		resp := post(t, ts, name, encodeProfile(t, synthProfile(0, 0, 1)))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("upload to %q: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestQueryMissing covers the 404 surface: unknown collection, and a
// created-but-empty collection.
func TestQueryMissing(t *testing.T) {
	_, ts := newTestServer(t, nil)
	if status, _ := get(t, ts, "/collections/nope/topdown"); status != http.StatusNotFound {
		t.Errorf("unknown collection: status %d, want 404", status)
	}
	if status, _ := get(t, ts, "/collections/nope"); status != http.StatusNotFound {
		t.Errorf("unknown collection metadata: status %d, want 404", status)
	}
}

// TestDiffMatchesOffline serves base -> after and compares with the CLI's
// diff writer over the same merged databases.
func TestDiffMatchesOffline(t *testing.T) {
	_, ts := newTestServer(t, nil)
	before := []*cct.Profile{synthProfile(0, 0, 400), synthProfile(0, 1, 400)}
	after := []*cct.Profile{synthProfile(0, 0, 100), synthProfile(0, 1, 150)}
	for _, p := range before {
		mustUpload(t, ts, "base", encodeProfile(t, p))
	}
	for _, p := range after {
		mustUpload(t, ts, "opt", encodeProfile(t, p))
	}

	served := mustGet(t, ts, "/collections/opt/diff?base=base")

	dbB, dbA := offlineMerge(t, before), offlineMerge(t, after)
	o := defaultOptions(dbA.Event)
	var offline bytes.Buffer
	if err := view.WriteDiffJSON(&offline, dbB.Merged, dbA.Merged, o.Metric, o.MaxRows); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, offline.Bytes()) {
		t.Errorf("served diff differs from offline:\nserved:\n%s\noffline:\n%s", served, offline.Bytes())
	}

	if status, _ := get(t, ts, "/collections/opt/diff"); status != http.StatusBadRequest {
		t.Errorf("diff without base: status %d, want 400", status)
	}
}

// TestQueryParameters exercises the parameter surface: explicit metric
// selection changes the report, bad parameters are 400s.
func TestQueryParameters(t *testing.T) {
	_, ts := newTestServer(t, nil)
	mustUpload(t, ts, "run", encodeProfile(t, synthProfile(0, 0, 100)))

	var rep struct {
		Metric string `json:"metric"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/collections/run/topdown?metric=SAMPLES"), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Metric != metric.Samples.Name() {
		t.Errorf("metric = %q, want %q", rep.Metric, metric.Samples.Name())
	}

	for _, q := range []string{"metric=bogus", "rows=x", "depth=-1", "min=2"} {
		if status, _ := get(t, ts, "/collections/run/topdown?"+q); status != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400", q, status)
		}
	}
}

// TestListAndTelemetry covers the remaining read surface: the collection
// listing and the filtered telemetry snapshot.
func TestListAndTelemetry(t *testing.T) {
	_, ts := newTestServer(t, nil)
	mustUpload(t, ts, "alpha", encodeProfile(t, synthProfile(0, 0, 1)))
	mustUpload(t, ts, "beta", encodeProfile(t, synthProfile(0, 0, 2)))

	var listing struct {
		Collections []Metadata `json:"collections"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/collections"), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Collections) != 2 || listing.Collections[0].Name != "alpha" || listing.Collections[1].Name != "beta" {
		t.Fatalf("listing = %+v, want [alpha beta]", listing.Collections)
	}

	mustGet(t, ts, "/collections/alpha/topdown")
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/debug/telemetry?prefix=server."), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.uploads.accepted"] != 2 {
		t.Errorf("telemetry uploads.accepted = %d, want 2", snap.Counters["server.uploads.accepted"])
	}
	if snap.Counters["server.merges"] != 1 {
		t.Errorf("telemetry merges = %d, want 1", snap.Counters["server.merges"])
	}
	for name := range snap.Counters {
		if len(name) < len("server.") || name[:len("server.")] != "server." {
			t.Errorf("prefix filter leaked counter %q", name)
		}
	}
}

// TestRestartAdoptsCollections restarts the service over the same data
// directory: collections, counts, and generations must survive, and the
// served view must be unchanged.
func TestRestartAdoptsCollections(t *testing.T) {
	dataDir := t.TempDir()
	profiles := []*cct.Profile{synthProfile(0, 0, 10), synthProfile(0, 1, 20), synthProfile(1, 0, 30)}

	srv1, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	for _, p := range profiles {
		mustUpload(t, ts1, "run", encodeProfile(t, p))
	}
	first := mustGet(t, ts1, "/collections/run/topdown")
	ts1.Close()

	srv2, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	var meta Metadata
	if err := json.Unmarshal(mustGet(t, ts2, "/collections/run"), &meta); err != nil {
		t.Fatal(err)
	}
	if meta.Profiles != len(profiles) || meta.Generation != uint64(len(profiles)) {
		t.Fatalf("adopted metadata = %+v, want %d profiles at generation %d", meta, len(profiles), len(profiles))
	}
	if got := mustGet(t, ts2, "/collections/run/topdown"); !bytes.Equal(got, first) {
		t.Error("served view changed across restart")
	}

	// A post-restart upload must get a fresh sequence number, not collide
	// with an adopted file.
	res := mustUpload(t, ts2, "run", encodeProfile(t, synthProfile(2, 0, 40)))
	if res.Generation != uint64(len(profiles))+1 {
		t.Errorf("post-restart upload generation = %d, want %d", res.Generation, len(profiles)+1)
	}
	if n := fileCount(t, srv2, "run"); n != len(profiles)+1 {
		t.Errorf("file count after post-restart upload = %d, want %d", n, len(profiles)+1)
	}
}
