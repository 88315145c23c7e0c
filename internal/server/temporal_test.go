package server

// Temporal endpoint tests: ?window= on the view queries (byte identity
// with the offline clip, derived-entry caching, generation invalidation,
// rejection of malformed specs and windowless collections) and the
// phases endpoint.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"dcprof/internal/analysis"
	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/temporal"
	"dcprof/internal/view"
)

// testWindowWidth is the sidecar window width the synthetic temporal
// profiles use.
const testWindowWidth = 4096

// synthTemporalProfile is synthProfile plus a two-window sidecar with
// deliberately different behavior per window: window 0 is heap-heavy,
// window 5 is static-heavy — so clipping to either window produces a
// view that differs from the cumulative one.
func synthTemporalProfile(rank, thread int) *cct.Profile {
	p := synthProfile(rank, thread, 100)
	var heapLeaf, staticLeaf *cct.Node
	p.Trees[cct.ClassHeap].Walk(func(n *cct.Node, _ int) bool {
		if n.NumChildren() == 0 {
			heapLeaf = n
		}
		return true
	})
	p.Trees[cct.ClassStatic].Walk(func(n *cct.Node, _ int) bool {
		if n.NumChildren() == 0 {
			staticLeaf = n
		}
		return true
	})
	mk := func(samples, lat, rmem uint64) metric.Vector {
		var v metric.Vector
		v[metric.Samples] = samples
		v[metric.Latency] = lat
		v[metric.FromRMEM] = rmem
		return v
	}
	w0, w5 := cct.TimeWindow{Index: 0}, cct.TimeWindow{Index: 5}
	d0, d5 := mk(1, 60, 1), mk(1, 40, 0)
	w0.Add(cct.ClassHeap, heapLeaf, &d0)
	w5.Add(cct.ClassStatic, staticLeaf, &d5)
	p.Temporal = &cct.TimeSeries{
		Width:   testWindowWidth,
		Windows: []cct.TimeWindow{w0, w5},
	}
	return p
}

// offlineDB merges the collection's on-disk files through the same
// pipeline configuration the server uses, for byte-identity comparisons.
func offlineDB(t *testing.T, srv *Server, name string) *analysis.Database {
	t.Helper()
	col := srv.store.get(name)
	if col == nil {
		t.Fatalf("no collection %q", name)
	}
	files, err := profio.Files(col.dir)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := analysis.LoadFilesStreamingCtx(context.Background(), "test "+name, nil, files,
		analysis.LoadOptions{Policy: analysis.PolicyQuarantine})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestWindowQueryMatchesOfflineClip(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	mustUpload(t, ts, "tw", encodeProfile(t, synthTemporalProfile(0, 0)))
	mustUpload(t, ts, "tw", encodeProfile(t, synthTemporalProfile(0, 1)))

	spec := "0:4096" // exactly window 0 — the heap-heavy one
	whole := mustGet(t, ts, "/collections/tw/topdown")
	got := mustGet(t, ts, "/collections/tw/topdown?window="+spec)
	if bytes.Equal(whole, got) {
		t.Fatal("windowed top-down identical to cumulative view")
	}

	db := offlineDB(t, srv, "tw")
	clipped, err := analysis.Clip(db, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := view.WriteTopDownJSON(&want, clipped, defaultOptions(db.Event)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served windowed JSON differs from offline clip:\nserved: %s\noffline: %s", got, want.Bytes())
	}

	// Bottom-up accepts the same parameter.
	gotBU := mustGet(t, ts, "/collections/tw/bottomup?window="+spec)
	var wantBU bytes.Buffer
	if err := view.WriteBottomUpJSON(&wantBU, clipped, defaultOptions(db.Event)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBU, wantBU.Bytes()) {
		t.Fatal("served windowed bottom-up differs from offline clip")
	}
}

func TestWindowQueryCachedAndInvalidated(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	mustUpload(t, ts, "twc", encodeProfile(t, synthTemporalProfile(0, 0)))

	first := mustGet(t, ts, "/collections/twc/topdown?window=0:4096")
	if srv.cache.len() != 2 {
		t.Fatalf("cache entries after windowed query: %d, want 2 (base + window)", srv.cache.len())
	}
	merges := counter(srv, "server.merges")
	second := mustGet(t, ts, "/collections/twc/topdown?window=0:4096")
	if got := counter(srv, "server.merges"); got != merges {
		t.Fatalf("repeated windowed query started %d new merges", got-merges)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("cached windowed view differs from first answer")
	}

	// An upload advances the generation; both the base and the derived
	// entry must re-derive.
	mustUpload(t, ts, "twc", encodeProfile(t, synthTemporalProfile(0, 1)))
	third := mustGet(t, ts, "/collections/twc/topdown?window=0:4096")
	if got := counter(srv, "server.merges"); got != merges+2 {
		t.Fatalf("post-upload windowed query started %d merges, want 2 (base + window)", got-merges)
	}
	if bytes.Equal(first, third) {
		t.Fatal("windowed view not refreshed after upload")
	}
}

func TestWindowQueryRejectsBadSpec(t *testing.T) {
	_, ts := newTestServer(t, nil)
	mustUpload(t, ts, "twb", encodeProfile(t, synthTemporalProfile(0, 0)))
	for _, spec := range []string{"abc", "5", "5:5", "9:4", "1:x", ":"} {
		status, body := get(t, ts, "/collections/twb/topdown?window="+spec)
		if status != http.StatusBadRequest {
			t.Fatalf("window=%q: status %d, want 400 (%s)", spec, status, body)
		}
	}
}

func TestWindowQueryWithoutSidecars(t *testing.T) {
	_, ts := newTestServer(t, nil)
	mustUpload(t, ts, "plain", encodeProfile(t, synthProfile(0, 0, 100)))
	status, body := get(t, ts, "/collections/plain/topdown?window=0:4096")
	if status != http.StatusBadRequest {
		t.Fatalf("window query on windowless collection: status %d (%s), want 400", status, body)
	}
	// The plain query still works.
	mustGet(t, ts, "/collections/plain/topdown")
}

func TestPhasesEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	mustUpload(t, ts, "tph", encodeProfile(t, synthTemporalProfile(0, 0)))
	got := mustGet(t, ts, "/collections/tph/phases")

	var rep struct {
		Width  uint64           `json:"window_width"`
		Phases []temporal.Phase `json:"phases"`
	}
	if err := json.Unmarshal(got, &rep); err != nil {
		t.Fatalf("phases response: %v\n%s", err, got)
	}
	if rep.Width != testWindowWidth {
		t.Fatalf("phases width %d, want %d", rep.Width, testWindowWidth)
	}
	if len(rep.Phases) == 0 {
		t.Fatal("no phases detected over a two-window series")
	}

	// Byte identity with the offline writer.
	db := offlineDB(t, srv, "tph")
	ph, err := analysis.Phases(db)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := view.WritePhasesJSON(&want, db.Event, db.Temporal.Width(), ph); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("served phases differ from offline writer:\nserved: %s\noffline: %s", got, want.Bytes())
	}
}

func TestPhasesWithoutSidecars(t *testing.T) {
	_, ts := newTestServer(t, nil)
	mustUpload(t, ts, "plain2", encodeProfile(t, synthProfile(0, 0, 100)))
	if status, _ := get(t, ts, "/collections/plain2/phases"); status != http.StatusNotFound {
		t.Fatalf("phases on windowless collection: status %d, want 404", status)
	}
	if status, _ := get(t, ts, "/collections/nosuch/phases"); status != http.StatusNotFound {
		t.Fatalf("phases on missing collection: status %d, want 404", status)
	}
}
