package server

// The cached tree is handed forward: a build continuing from an entry no
// request holds folds into that entry's tree, a held entry is copied and
// stays as it was, a taken entry is never served or continued from again,
// and a window entry pins nothing of the database it was clipped from.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/temporal"
	"dcprof/internal/view"
)

// holdsOf reads an entry's hold count and taken mark under the cache lock.
func holdsOf(c *viewCache, e *viewEntry) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return e.holds, e.taken
}

// checkNoHolds requires every cached entry to be released.
func checkNoHolds(t *testing.T, c *viewCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*viewEntry); e.holds != 0 {
			t.Errorf("entry %s@%d still has %d holds with no request running", e.name, e.gen, e.holds)
		}
	}
}

// topDownOf is the default top-down render of a fresh full merge.
func topDownOf(t *testing.T, accepted []*cct.Profile) []byte {
	t.Helper()
	db := offlineMerge(t, accepted)
	var b bytes.Buffer
	if err := view.WriteTopDownJSON(&b, db.Merged, defaultOptions(db.Event)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestUnheldEntryTakenByNextBuild is the converse of
// TestHeldEntryUnchangedByExtension: with no request holding the cached
// entry, the next generation's build folds into the entry's own tree — the
// new entry's tree is the old one's, by pointer — the old entry is marked
// taken, and every route serves what a fresh full merge renders.
func TestUnheldEntryTakenByNextBuild(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(11))
	refSet := []*cct.Profile{synthProfile(9, 0, 300)}
	mustUpload(t, ts, "ref", encodeProfile(t, refSet[0]))
	ref := offlineMerge(t, refSet)
	var accepted []*cct.Profile
	for i := 0; i < 4; i++ {
		p := variedProfile(rng, i, true)
		accepted = append(accepted, p)
		mustUpload(t, ts, "live", encodeProfile(t, p))
	}
	checkServed(t, srv, ts, "live", accepted, ref, "first build")
	for round := 0; round < 3; round++ {
		old := srv.cache.peek("live")
		tree := old.db.Merged
		p := variedProfile(rng, len(accepted), true)
		accepted = append(accepted, p)
		mustUpload(t, ts, "live", encodeProfile(t, p))
		checkServed(t, srv, ts, "live", accepted, ref, "after the upload")
		next := srv.cache.peek("live")
		if next == old || next.db.Merged != tree {
			t.Fatalf("round %d: the build after an upload did not continue in the unheld entry's tree", round)
		}
		if _, taken := holdsOf(srv.cache, old); !taken {
			t.Fatalf("round %d: the entry whose tree was handed on is not marked taken", round)
		}
	}
	if got := counter(srv, "server.merges.extended"); got != 3 {
		t.Errorf("server.merges.extended = %d, want 3", got)
	}
	checkNoHolds(t, srv.cache)
}

// TestCancelledBuildAfterTake cancels a build that has already taken the
// cached entry's tree — by the last waiting client disconnecting, and by
// the per-request deadline — while its read of the new upload is blocked.
// The taken entry is never served again: the next query reads every file
// and serves the bytes of a from-scratch load.
func TestCancelledBuildAfterTake(t *testing.T) {
	for _, how := range []string{"disconnect", "deadline"} {
		t.Run(how, func(t *testing.T) {
			// Reads block at the gate while gated is set.
			gate := &gatedOpen{started: make(chan struct{}, 1), release: make(chan struct{})}
			var gated atomic.Bool
			var opens atomic.Int64
			srv, ts := newTestServer(t, func(cfg *Config) {
				cfg.OpenProfile = func(path string) (io.ReadCloser, error) {
					opens.Add(1)
					if gated.Load() {
						return gate.open(path)
					}
					return os.Open(path)
				}
				if how == "deadline" {
					cfg.RequestTimeout = 100 * time.Millisecond
				}
			})
			rng := rand.New(rand.NewSource(13))
			var accepted []*cct.Profile
			for i := 0; i < 5; i++ {
				p := variedProfile(rng, i, true)
				accepted = append(accepted, p)
				mustUpload(t, ts, "c", encodeProfile(t, p))
			}
			mustGet(t, ts, "/collections/c/topdown")
			old := srv.cache.peek("c")
			p := variedProfile(rng, len(accepted), true)
			accepted = append(accepted, p)
			mustUpload(t, ts, "c", encodeProfile(t, p))

			gated.Store(true)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/collections/c/topdown", nil)
			if err != nil {
				t.Fatal(err)
			}
			answered := make(chan int, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					answered <- 0
					return
				}
				resp.Body.Close()
				answered <- resp.StatusCode
			}()
			<-gate.started // the build has taken the tree and waits on the upload's bytes
			if _, taken := holdsOf(srv.cache, old); !taken {
				t.Fatal("the blocked build did not take the unheld entry's tree")
			}
			if how == "disconnect" {
				cancel()
			}
			if status := <-answered; how == "deadline" && status != http.StatusGatewayTimeout {
				t.Fatalf("deadline query answered %d, want 504", status)
			}
			// Once the server has seen its last waiter go — the build leaves
			// the in-flight slot then — the blocked read may proceed: it
			// finds the build cancelled.
			waitFor(t, func() bool {
				srv.cache.mu.Lock()
				defer srv.cache.mu.Unlock()
				return len(srv.cache.inflight) == 0
			})
			gated.Store(false)
			close(gate.release)
			waitFor(t, func() bool { return counter(srv, "server.merges.canceled") == 1 })
			// The taken entry is still cached, but a query at its generation
			// is a miss.
			errMiss := errors.New("miss")
			if _, err := srv.cache.entry(context.Background(), "c", old.gen, nil, func(context.Context) (*viewEntry, error) {
				return nil, errMiss
			}); err != errMiss {
				t.Fatalf("a query at the taken entry's generation got %v, want a miss", err)
			}

			opens.Store(0)
			if got, want := mustGet(t, ts, "/collections/c/topdown"), topDownOf(t, accepted); !bytes.Equal(got, want) {
				t.Error("the query after the cancelled build differs from a from-scratch load")
			}
			if got := opens.Load(); got != int64(len(accepted)) {
				t.Errorf("the build after a cancelled take opened %d files, want all %d", got, len(accepted))
			}
			if srv.cache.peek("c").db.Merged == old.db.Merged {
				t.Error("the new entry continued in the taken, half-folded tree")
			}
			checkNoHolds(t, srv.cache)
		})
	}
}

// TestQueryAfterLastWaiterLeftStartsFreshBuild: once the last client
// waiting on a build disconnects, that build is cancelled, and a query
// arriving before the cancelled build has wound down must not join it. It
// starts a build of its own and is answered 200 with the bytes of an
// offline merge.
func TestQueryAfterLastWaiterLeftStartsFreshBuild(t *testing.T) {
	gate := &gatedOpen{started: make(chan struct{}, 1), release: make(chan struct{})}
	var gated atomic.Bool
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.OpenProfile = func(path string) (io.ReadCloser, error) {
			if gated.Load() {
				return gate.open(path)
			}
			return os.Open(path)
		}
	})
	rng := rand.New(rand.NewSource(17))
	var accepted []*cct.Profile
	for i := 0; i < 4; i++ {
		p := variedProfile(rng, i, true)
		accepted = append(accepted, p)
		mustUpload(t, ts, "c", encodeProfile(t, p))
	}
	// waited reports whether a client waits on any in-flight build.
	waited := func() bool {
		srv.cache.mu.Lock()
		defer srv.cache.mu.Unlock()
		for _, call := range srv.cache.inflight {
			if call.refs > 0 {
				return true
			}
		}
		return false
	}

	gated.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/collections/c/topdown", nil)
	if err != nil {
		t.Fatal(err)
	}
	first := make(chan struct{})
	go func() {
		defer close(first)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	<-gate.started // the first build is blocked reading a file
	cancel()
	<-first
	waitFor(t, func() bool { return !waited() }) // the server saw the client go

	type answer struct {
		status int
		body   []byte
	}
	second := make(chan answer, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/collections/c/topdown")
		if err != nil {
			second <- answer{body: []byte(err.Error())}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			body = []byte(err.Error())
		}
		second <- answer{resp.StatusCode, body}
	}()
	// The second query is waiting: on a build of its own (which blocks at
	// the gate too), or on the cancelled one if it joined that.
	waitFor(t, func() bool { return counter(srv, "server.merges") == 2 || waited() })
	close(gate.release)
	a := <-second
	if got := counter(srv, "server.merges"); got != 2 {
		t.Errorf("server.merges = %d, want 2: the second query joined the cancelled build", got)
	}
	if a.status != http.StatusOK {
		t.Fatalf("the query after the last waiter left answered %d: %s", a.status, a.body)
	}
	if want := topDownOf(t, accepted); !bytes.Equal(a.body, want) {
		t.Error("the query after the last waiter left differs from an offline merge")
	}
	waitFor(t, func() bool { return counter(srv, "server.merges.canceled") == 1 })
	checkNoHolds(t, srv.cache)
}

// blockingWriter is a ResponseWriter whose first Write signals and then
// waits for release: a request caught in the middle of rendering.
type blockingWriter struct {
	header  http.Header
	body    bytes.Buffer
	status  int
	writing chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockingWriter() *blockingWriter {
	return &blockingWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
}

func (w *blockingWriter) Header() http.Header { return w.header }

func (w *blockingWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.writing)
		<-w.release
	})
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// TestEveryHandlerRendersFromHeldEntry catches each view route in the
// middle of writing its response, then uploads into the collections it
// reads and runs their cold queries from another goroutine. The entries
// the stalled request renders from are held: the builds copy them instead
// of taking them, and the stalled response ends as the render of the
// upload set it started from. A ?window= request holds only its window
// entry, which pins nothing of its base, so that build takes the base's
// tree.
func TestEveryHandlerRendersFromHeldEntry(t *testing.T) {
	routes := []struct {
		path  string
		holds []string // collections whose entries the request holds while writing
	}{
		{"/collections/c/topdown", []string{"c"}},
		{"/collections/c/topdown?min=0&depth=0", []string{"c"}},
		{"/collections/c/bottomup", []string{"c"}},
		{"/collections/c/phases", []string{"c"}},
		{"/collections/c/stats", []string{"c"}},
		{"/collections/c/diff?base=ref", []string{"c", "ref"}},
		{"/collections/c/topdown?window=0:8192", nil},
		{"/collections/c/bottomup?window=0:8192", nil},
	}
	for _, rt := range routes {
		t.Run(rt.path, func(t *testing.T) {
			srv, ts := newTestServer(t, nil)
			h := srv.Handler()
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < 4; i++ {
				mustUpload(t, ts, "c", encodeProfile(t, variedProfile(rng, i, true)))
			}
			mustUpload(t, ts, "ref", encodeProfile(t, variedProfile(rng, 50, true)))
			want := mustGet(t, ts, rt.path)
			if rt.path == "/collections/c/stats" {
				want = nil // walls differ from build to build; the holds are the point
			}
			mustGet(t, ts, "/collections/ref/topdown")
			olds := map[string]*viewEntry{"c": srv.cache.peek("c"), "ref": srv.cache.peek("ref")}

			bw := newBlockingWriter()
			served := make(chan struct{})
			go func() {
				defer close(served)
				h.ServeHTTP(bw, httptest.NewRequest(http.MethodGet, rt.path, nil))
			}()
			<-bw.writing
			for _, name := range rt.holds {
				if holds, _ := holdsOf(srv.cache, olds[name]); holds == 0 {
					t.Fatalf("the %s entry is not held while the response is written", name)
				}
			}

			// Uploads and cold queries on other goroutines, while the
			// request is still writing.
			var wg sync.WaitGroup
			for k, name := range []string{"c", "ref"} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					mustUpload(t, ts, name, encodeProfile(t, variedProfile(rand.New(rand.NewSource(int64(k))), 60+k, true)))
					mustGet(t, ts, "/collections/"+name+"/topdown")
				}()
			}
			wg.Wait()
			for name, old := range olds {
				held := slices.Contains(rt.holds, name)
				next := srv.cache.peek(name)
				if next == old {
					t.Fatalf("no new %s entry was built", name)
				}
				_, taken := holdsOf(srv.cache, old)
				if held && (taken || next.db.Merged == old.db.Merged) {
					t.Errorf("the build for %s took the tree of an entry a request was rendering from", name)
				}
				if !held && (!taken || next.db.Merged != old.db.Merged) {
					t.Errorf("the build for %s copied an entry no request held", name)
				}
			}

			close(bw.release)
			<-served
			if bw.status != http.StatusOK {
				t.Fatalf("stalled request answered %d: %s", bw.status, bw.body.Bytes())
			}
			if want != nil && !bytes.Equal(bw.body.Bytes(), want) {
				t.Error("the stalled response differs from the render of the upload set it started from")
			}
			checkNoHolds(t, srv.cache)
		})
	}
}

// TestWindowEntryDoesNotPinBase evicts a collection's entry while a window
// entry clipped from it stays cached: the evicted database's temporal
// index must then be collectable, because the window entry keeps only its
// clipped snapshot and the event.
func TestWindowEntryDoesNotPinBase(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) { cfg.CacheEntries = 2 })
	for th := 0; th < 2; th++ {
		mustUpload(t, ts, "w", encodeProfile(t, synthTemporalProfile(0, th)))
	}
	mustUpload(t, ts, "other", encodeProfile(t, synthProfile(0, 0, 100)))
	window := mustGet(t, ts, "/collections/w/topdown?window=0:4096")

	collected := make(chan struct{})
	func() {
		e := srv.cache.peek("w")
		if e == nil || e.db.Temporal == nil {
			t.Fatal("no cached entry with a temporal index for the collection")
		}
		runtime.SetFinalizer(e.db.Temporal, func(*temporal.Index) { close(collected) })
	}()
	mustGet(t, ts, "/collections/other/topdown") // evicts the base, the least recently used
	if srv.cache.peek("w") != nil || srv.cache.peek("w|window=0:4096") == nil {
		t.Fatal("the eviction did not leave the window entry without its base")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if got := mustGet(t, ts, "/collections/w/topdown?window=0:4096"); !bytes.Equal(got, window) {
				t.Error("the window entry renders differently once its base is gone")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the evicted base's temporal index is still reachable: a window entry pins it")
		}
	}
}
