package server

// Merged-view cache: the reason the service is fast for the common case.
// Merging a collection is the expensive operation (linear in the
// collection's bytes); queries against an unchanged collection are the
// overwhelmingly common case, so merged databases are cached under an LRU
// bound and keyed by (collection, content generation). The generation
// advances on every accepted upload, which invalidates exactly that
// collection's entry — no TTLs, no global flushes, and a cached view can
// never be served against content it was not merged from. The stale entry
// is still worth having: the miss that replaces it continues from its
// database and reads only the files added since (Server.view).
//
// Misses are deduplicated singleflight-style: when N queries race on a
// cold (collection, generation), one merge runs and the rest block on its
// result — a query storm after an upload costs one merge, not N. The
// merge runs on its own goroutine under its own context, reference-
// counted by the waiting requests: a waiter whose request context ends
// (client disconnect, per-request deadline) detaches immediately, and
// only when the LAST waiter detaches is the merge itself canceled. A
// canceled or failed merge is never cached and its in-flight slot is
// removed, so the next query starts a fresh merge — cancellation can
// neither poison the cache nor wedge the key. This is the schedviz
// storage-service shape (LRU-cached fs storage behind a thin request
// layer) applied to CCT merges, hardened for hostile clients.

import (
	"container/list"
	"context"
	"errors"
	"strconv"
	"sync"

	"dcprof/internal/analysis"
	"dcprof/internal/telemetry"
	"dcprof/internal/view"
)

// errMergeSaturated is returned by entry when a new merge would be needed
// but the merge admission semaphore has no free token. The HTTP layer
// maps it to 503 + Retry-After.
var errMergeSaturated = errors.New("server: merge capacity saturated")

// viewEntry is one cached merged view. It is immutable once built: snap is
// db.Merged frozen when the merge (or window clip) completed, so the
// render-ready form lives and dies with the entry and every hit renders
// from it. The next generation's build may continue from db, which it
// only reads.
type viewEntry struct {
	name  string   // collection name — the LRU/map key
	gen   uint64   // content generation the merged file list belongs to
	files []string // the sorted file list db was merged from
	db    *analysis.Database
	stats analysis.MergeStats
	snap  *view.Snapshot
}

func newViewEntry(name string, gen uint64, files []string, db *analysis.Database, stats analysis.MergeStats) *viewEntry {
	return &viewEntry{name: name, gen: gen, files: files, db: db, stats: stats, snap: view.Freeze(db.Merged)}
}

// mergeCall is one in-flight merge queries wait on. refs counts the
// waiting requests (guarded by the cache mutex); cancel stops the merge
// and fires when refs drops to zero.
type mergeCall struct {
	done   chan struct{}
	cancel context.CancelFunc
	refs   int
	entry  *viewEntry
	err    error
}

// viewCache is the bounded (collection → merged view) cache.
type viewCache struct {
	mu       sync.Mutex
	max      int
	byName   map[string]*list.Element // of *viewEntry
	lru      *list.List               // front = most recent
	inflight map[string]*mergeCall    // keyed name@generation

	hits, misses, evictions, merges, canceled *telemetry.Counter
	// extended counts the merges that continued from the collection's
	// cached entry instead of reading every file (a subset of merges).
	extended *telemetry.Counter
}

func newViewCache(max int, reg *telemetry.Registry) *viewCache {
	if max <= 0 {
		max = 64
	}
	return &viewCache{
		max:       max,
		byName:    map[string]*list.Element{},
		lru:       list.New(),
		inflight:  map[string]*mergeCall{},
		hits:      reg.Counter("server.cache.hits"),
		misses:    reg.Counter("server.cache.misses"),
		evictions: reg.Counter("server.cache.evictions"),
		merges:    reg.Counter("server.merges"),
		canceled:  reg.Counter("server.merges.canceled"),
		extended:  reg.Counter("server.merges.extended"),
	}
}

// entry returns the merged view for the collection at generation gen,
// building it (once, however many queries race here) when the cache has
// no current entry. A needed build takes a token from adm (when non-nil)
// or fails fast with errMergeSaturated — joining an already-running build
// never requires a token. The build runs detached from any single
// request's context; ctx only governs how long this caller waits. The
// entry is cached under the generation build stamps on it — the one its
// inputs were pinned at, which an upload racing this query may have moved
// past gen; waiters then get the newer view.
func (c *viewCache) entry(ctx context.Context, name string, gen uint64, adm *semaphore, build func(context.Context) (*viewEntry, error)) (*viewEntry, error) {
	key := flightKey(name, gen)
	c.mu.Lock()
	if elem, ok := c.byName[name]; ok {
		e := elem.Value.(*viewEntry)
		if e.gen == gen {
			c.lru.MoveToFront(elem)
			c.hits.Inc()
			c.mu.Unlock()
			if info := infoFrom(ctx); info != nil {
				info.cache = "hit"
			}
			return e, nil
		}
		// Stale generation: leave the entry in place — an in-flight query
		// against the old snapshot may still legitimately use it — and fall
		// through to the miss path; insert() will replace it.
	}
	c.misses.Inc()
	if info := infoFrom(ctx); info != nil {
		info.cache = "miss"
	}
	call, ok := c.inflight[key]
	if !ok {
		// This request would start a new merge: admission applies.
		if adm != nil && !adm.tryAcquire() {
			c.mu.Unlock()
			return nil, errMergeSaturated
		}
		mctx, cancel := context.WithCancel(context.Background())
		call = &mergeCall{done: make(chan struct{}), cancel: cancel}
		c.inflight[key] = call
		c.merges.Inc()
		go func() {
			e, err := build(mctx)
			if adm != nil {
				adm.release()
			}
			cancel()
			c.mu.Lock()
			delete(c.inflight, key)
			call.entry, call.err = e, err
			if err == nil {
				c.insert(e)
			} else if errors.Is(err, context.Canceled) {
				c.canceled.Inc()
			}
			c.mu.Unlock()
			close(call.done)
		}()
	}
	call.refs++
	c.mu.Unlock()

	select {
	case <-call.done:
		c.mu.Lock()
		call.refs--
		c.mu.Unlock()
		return call.entry, call.err
	case <-ctx.Done():
		// This waiter is gone; the merge keeps running for the others and
		// is canceled only when the last one detaches. (A cancel racing
		// merge completion is harmless — the result still caches.)
		c.mu.Lock()
		call.refs--
		if call.refs == 0 {
			call.cancel()
		}
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// insert stores the entry, replacing any entry for the same collection
// and evicting the least-recently-used entry past the bound. Called with
// the lock held.
func (c *viewCache) insert(e *viewEntry) {
	if elem, ok := c.byName[e.name]; ok {
		c.lru.Remove(elem)
		delete(c.byName, e.name)
	}
	c.byName[e.name] = c.lru.PushFront(e)
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		old := oldest.Value.(*viewEntry)
		c.lru.Remove(oldest)
		delete(c.byName, old.name)
		c.evictions.Inc()
	}
}

// invalidate drops the collection's entry, whatever its generation. The
// upload path does not call this — generation keying already fences new
// queries off stale entries — but explicit deletion endpoints would.
func (c *viewCache) invalidate(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.byName[name]; ok {
		c.lru.Remove(elem)
		delete(c.byName, name)
	}
}

// peek returns the cached entry for the collection if one exists at any
// generation, without touching recency — metadata reporting uses it to
// attach the last merge's quarantine report, and a starting merge to find
// the generation it can continue from.
func (c *viewCache) peek(name string) *viewEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if elem, ok := c.byName[name]; ok {
		return elem.Value.(*viewEntry)
	}
	return nil
}

// len reports the number of cached entries.
func (c *viewCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

func flightKey(name string, gen uint64) string {
	// name cannot contain '@' (ValidateName), so the key is unambiguous.
	return name + "@" + strconv.FormatUint(gen, 10)
}
