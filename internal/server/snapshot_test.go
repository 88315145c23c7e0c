package server

// What a cache hit may cost and what a racing upload may show: a warm
// query lists no directory and merges nothing, and a query storm across an
// upload only ever serves whole generations.

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"

	"dcprof/internal/analysis"
	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/view"
)

// TestWarmHitsListNothing replays a dashboard mix against warm entries:
// after the warm-up, 1,000 queries over every read route leave the merge
// counter and the store's directory-listing counter where they were.
func TestWarmHitsListNothing(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for th := 0; th < 2; th++ {
		mustUpload(t, ts, "dash", encodeProfile(t, synthTemporalProfile(0, th)))
		mustUpload(t, ts, "base", encodeProfile(t, synthTemporalProfile(1, th)))
	}
	mix := []string{
		"/collections/dash/topdown",
		"/collections/dash/topdown?min=0&depth=4&metric=SAMPLES",
		"/collections/dash/bottomup",
		"/collections/dash/diff?base=base",
		"/collections/dash/topdown?window=0:4096",
		"/collections/dash/bottomup?window=20480:24576",
		"/collections/dash/phases",
		"/collections/dash/stats",
	}
	warm := map[string][]byte{}
	for _, path := range mix {
		warm[path] = mustGet(t, ts, path)
	}
	watched := []string{"server.merges", "server.store.listings", "server.cache.misses"}
	before := map[string]uint64{}
	for _, name := range watched {
		before[name] = counter(srv, name)
	}
	if before["server.store.listings"] == 0 {
		t.Fatal("server.store.listings did not count the warm-up merges")
	}

	for i := 0; i < 1000; i++ {
		path := mix[i%len(mix)]
		if got := mustGet(t, ts, path); path != "/collections/dash/stats" && !bytes.Equal(got, warm[path]) {
			t.Fatalf("hit %d on %s differs from the warm-up answer", i, path)
		}
	}
	for _, name := range watched {
		if got := counter(srv, name); got != before[name] {
			t.Errorf("%s moved %d -> %d over 1,000 warm hits", name, before[name], got)
		}
	}
}

// TestMetricStormAcrossUpload queries a freshly merged generation with a
// different ?metric= per request — so the entry's lazily built columns are
// first demanded concurrently — while an upload bumps the generation.
// Every response must be the offline render of the old upload set or of
// the new one, whole; a query that starts after the upload was
// acknowledged must show it; and a ?window= query must render its own
// clip, never its base entry's snapshot. Run under -race.
func TestMetricStormAcrossUpload(t *testing.T) {
	_, ts := newTestServer(t, nil)
	old := []*cct.Profile{synthTemporalProfile(0, 0), synthTemporalProfile(0, 1)}
	extra := synthTemporalProfile(1, 0)
	for _, p := range old {
		mustUpload(t, ts, "storm", encodeProfile(t, p))
	}

	// The three routes that render from a snapshot, per metric, rendered
	// offline for both upload sets.
	type query struct {
		path     string
		old, new []byte
	}
	dbs := [2]*analysis.Database{offlineMerge(t, old), offlineMerge(t, append(old[:2:2], extra))}
	var clips [2]*cct.Profile
	for i, db := range dbs {
		clipped, err := analysis.Clip(db, 0, testWindowWidth)
		if err != nil {
			t.Fatal(err)
		}
		clips[i] = clipped
	}
	var queries []query
	for _, m := range metric.IDs() {
		o := defaultOptions(dbs[0].Event)
		o.Metric, o.MinShare = m, 0
		params := "?min=0&metric=" + url.QueryEscape(m.Name())
		var td, bu, win [2]bytes.Buffer
		for i := range dbs {
			if err := view.WriteTopDownJSON(&td[i], dbs[i].Merged, o); err != nil {
				t.Fatal(err)
			}
			if err := view.WriteBottomUpJSON(&bu[i], dbs[i].Merged, o); err != nil {
				t.Fatal(err)
			}
			if err := view.WriteTopDownJSON(&win[i], clips[i], o); err != nil {
				t.Fatal(err)
			}
		}
		if m == metric.Latency && bytes.Equal(win[0].Bytes(), td[0].Bytes()) {
			t.Fatal("the window clip renders like the whole run: the test could not tell them apart")
		}
		queries = append(queries,
			query{"/collections/storm/topdown" + params, td[0].Bytes(), td[1].Bytes()},
			query{"/collections/storm/bottomup" + params, bu[0].Bytes(), bu[1].Bytes()},
			query{"/collections/storm/topdown" + params + "&window=0:4096", win[0].Bytes(), win[1].Bytes()})
	}

	mustGet(t, ts, "/collections/storm/topdown") // merged, but only the default metric's column built

	fetch := func(path string) (int, []byte, error) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	var uploaded atomic.Bool
	var underWay sync.Once
	started := make(chan struct{})
	var wg sync.WaitGroup
	const clients = 8
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range queries {
					q := queries[(k+c*7)%len(queries)]
					after := uploaded.Load()
					status, got, err := fetch(q.path)
					switch {
					case err != nil || status != http.StatusOK:
						t.Errorf("GET %s: status %d, err %v: %s", q.path, status, err, got)
					case bytes.Equal(got, q.new):
					case after:
						t.Errorf("GET %s after the upload was acknowledged does not show it", q.path)
					case !bytes.Equal(got, q.old):
						t.Errorf("GET %s is the render of neither upload set:\n%s", q.path, got)
					}
					if k == len(queries)/2 {
						underWay.Do(func() { close(started) })
					}
				}
			}
		}(c)
	}
	<-started
	mustUpload(t, ts, "storm", encodeProfile(t, extra))
	uploaded.Store(true)
	wg.Wait()
}
