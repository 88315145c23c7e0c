package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

// topDownTotal fetches /topdown and returns the report's metric total —
// the cheap fingerprint the cache tests use to tell merged contents apart.
func topDownTotal(t testing.TB, ts *httptest.Server, name string) uint64 {
	t.Helper()
	var rep struct {
		Total uint64 `json:"total"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/collections/"+name+"/topdown"), &rep); err != nil {
		t.Fatal(err)
	}
	return rep.Total
}

// TestColdQueryStormSingleMerge is the singleflight test: many concurrent
// queries against a cold collection must perform exactly one merge, all
// observing identical bytes — asserted through the telemetry counters the
// cache maintains.
func TestColdQueryStormSingleMerge(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	for i := 0; i < 4; i++ {
		mustUpload(t, ts, "storm", encodeProfile(t, synthProfile(0, i, uint64(100+i))))
	}

	const queries = 16
	bodies := make([][]byte, queries)
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = mustGet(t, ts, "/collections/storm/topdown")
		}(i)
	}
	wg.Wait()

	for i := 1; i < queries; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("query %d saw different bytes than query 0", i)
		}
	}
	if got := counter(srv, "server.merges"); got != 1 {
		t.Errorf("merges = %d for a %d-query storm, want exactly 1 (singleflight)", got, queries)
	}
	hits, misses := counter(srv, "server.cache.hits"), counter(srv, "server.cache.misses")
	if hits+misses != queries {
		t.Errorf("hits(%d) + misses(%d) = %d, want %d", hits, misses, hits+misses, queries)
	}
}

// TestGenerationInvalidation uploads into an already-cached collection:
// the next query must see the new profile (a fresh merge at the new
// generation), not the cached stale view.
func TestGenerationInvalidation(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	mustUpload(t, ts, "gen", encodeProfile(t, synthProfile(0, 0, 100)))

	first := topDownTotal(t, ts, "gen")
	if got := counter(srv, "server.merges"); got != 1 {
		t.Fatalf("merges = %d after first query, want 1", got)
	}

	mustUpload(t, ts, "gen", encodeProfile(t, synthProfile(0, 1, 50)))
	second := topDownTotal(t, ts, "gen")
	if got := counter(srv, "server.merges"); got != 2 {
		t.Errorf("merges = %d after upload+query, want 2 (generation changed)", got)
	}
	// Each synthProfile contributes twice its latency (heap + static
	// sample), so the post-upload total must be the sum.
	if want := first + 2*50; second != want {
		t.Errorf("post-upload total = %d, want %d (stale view served?)", second, want)
	}
}

// TestLRUEvictionNeverStale runs three collections through a two-entry
// cache: the eviction must be observable, and a re-query of the evicted
// collection — after more uploads landed in it — must serve the new
// content, never a resurrected stale tree.
func TestLRUEvictionNeverStale(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) { cfg.CacheEntries = 2 })
	for i, name := range []string{"a", "b", "c"} {
		mustUpload(t, ts, name, encodeProfile(t, synthProfile(0, 0, uint64(100*(i+1)))))
	}

	totals := map[string]uint64{}
	for _, name := range []string{"a", "b", "c"} {
		totals[name] = topDownTotal(t, ts, name)
	}
	if got := counter(srv, "server.cache.evictions"); got != 1 {
		t.Fatalf("evictions = %d after filling a 2-entry cache with 3 views, want 1", got)
	}
	if got := srv.cache.len(); got != 2 {
		t.Fatalf("cache holds %d entries, want 2", got)
	}
	if srv.cache.peek("a") != nil {
		t.Fatal("oldest entry (a) survived past the LRU bound")
	}

	// Upload into the evicted collection, then query it: the view must
	// include the new profile.
	mustUpload(t, ts, "a", encodeProfile(t, synthProfile(0, 1, 40)))
	if got, want := topDownTotal(t, ts, "a"), totals["a"]+2*40; got != want {
		t.Errorf("re-query of evicted collection = %d, want %d", got, want)
	}

	// Re-inserting "a" evicted the then-oldest entry ("b"); "c" is still
	// cached and must serve without a new merge.
	merges := counter(srv, "server.merges")
	if got := topDownTotal(t, ts, "c"); got != totals["c"] {
		t.Errorf("cached collection c total = %d, want %d", got, totals["c"])
	}
	if got := counter(srv, "server.merges"); got != merges {
		t.Errorf("querying cached collection merged again: %d -> %d", merges, got)
	}
	// And the evicted "b" still serves correct (freshly merged) content.
	if got := topDownTotal(t, ts, "b"); got != totals["b"] {
		t.Errorf("evicted collection b total = %d, want %d", got, totals["b"])
	}
}

// TestCacheStaleGenerationMiss drives the cache directly: an entry cached
// at generation g must not satisfy a get at generation g+1.
func TestCacheStaleGenerationMiss(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	c := srv.cache
	ctx := context.Background()

	var calls atomic.Int64
	build := func(gen uint64) func(context.Context) (*viewEntry, error) {
		return func(context.Context) (*viewEntry, error) {
			calls.Add(1)
			return &viewEntry{name: "x", gen: gen}, nil
		}
	}
	if _, err := c.entry(ctx, "x", 1, nil, build(1)); err != nil || calls.Load() != 1 {
		t.Fatalf("cold get: calls=%d err=%v", calls.Load(), err)
	}
	if _, err := c.entry(ctx, "x", 1, nil, build(1)); err != nil || calls.Load() != 1 {
		t.Fatalf("same-generation get merged again: calls=%d err=%v", calls.Load(), err)
	}
	if _, err := c.entry(ctx, "x", 2, nil, build(2)); err != nil || calls.Load() != 2 {
		t.Fatalf("new-generation get did not merge: calls=%d err=%v", calls.Load(), err)
	}
	if e := c.peek("x"); e == nil || e.gen != 2 {
		t.Fatalf("cached entry = %+v, want generation 2", e)
	}
	if got := c.len(); got != 1 {
		t.Errorf("cache holds %d entries for one collection, want 1", got)
	}
}

// TestCacheCancellationNotPoisoned is the disconnect-mid-merge
// regression: a client abandoning a cold query must cancel the merge
// (once no one else waits on it), must NOT leave a poisoned cache entry
// or a wedged in-flight slot, and the next query must merge fresh and
// succeed immediately.
func TestCacheCancellationNotPoisoned(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	c := srv.cache

	var calls atomic.Int64
	started := make(chan struct{})
	merge := func(mctx context.Context) (*viewEntry, error) {
		if calls.Add(1) == 1 {
			close(started)
			// A slow merge: it finishes only by cancellation.
			<-mctx.Done()
			return nil, mctx.Err()
		}
		return &viewEntry{name: "x", gen: 1}, nil
	}

	// The doomed client: starts the merge, then disconnects.
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := c.entry(ctx, "x", 1, nil, merge)
		errc <- err
	}()
	<-started
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned get returned %v, want context.Canceled", err)
	}

	// The canceled merge must not have been cached...
	waitFor(t, func() bool { return counter(srv, "server.merges.canceled") == 1 })
	if e := c.peek("x"); e != nil {
		t.Fatalf("canceled merge left a cache entry: %+v", e)
	}
	// ...and the next query must not block or inherit the failure.
	e, err := c.entry(context.Background(), "x", 1, nil, merge)
	if err != nil || e == nil {
		t.Fatalf("query after canceled merge: entry=%v err=%v", e, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("merge ran %d times, want 2 (canceled + fresh)", calls.Load())
	}
	if c.len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.len())
	}
}

// TestCacheCancelOneWaiterKeepsMerge checks reference counting: with two
// waiters on one in-flight merge, one disconnecting must not cancel the
// merge for the survivor.
func TestCacheCancelOneWaiterKeepsMerge(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	c := srv.cache

	started := make(chan struct{})
	release := make(chan struct{})
	merge := func(mctx context.Context) (*viewEntry, error) {
		close(started)
		select {
		case <-release:
			return &viewEntry{name: "x", gen: 1}, nil
		case <-mctx.Done():
			return nil, mctx.Err()
		}
	}

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() {
		_, err := c.entry(leaderCtx, "x", 1, nil, merge)
		leaderErr <- err
	}()
	<-started

	survivor := make(chan error, 1)
	go func() {
		e, err := c.entry(context.Background(), "x", 1, nil, merge)
		if err == nil && e == nil {
			err = errors.New("nil entry without error")
		}
		survivor <- err
	}()
	// Wait until the survivor has joined the in-flight call, then kill
	// the leader.
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		call := c.inflight[flightKey("x", 1)]
		return call != nil && call.refs == 2
	})
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader got %v, want context.Canceled", err)
	}
	// The merge must still be running for the survivor; release it.
	close(release)
	if err := <-survivor; err != nil {
		t.Fatalf("surviving waiter got %v, want the merged view", err)
	}
	if got := counter(srv, "server.merges.canceled"); got != 0 {
		t.Fatalf("merge canceled %d times despite a surviving waiter", got)
	}
}
