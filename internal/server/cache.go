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
// Every entry a query renders from is held: entry returns it held and the
// handler releases it when the response is written. The holds are counted
// under the cache mutex, and they are what lets a build hand the cached
// tree forward instead of copying it: a build continuing from an entry
// nobody holds takes that entry's database — folds the new files straight
// into its tree — and marks the entry taken; a held entry is copied, as a
// reader is still using it; a taken entry is neither served nor continued
// from again, since its tree may be half folded. So an entry never changes
// while it is held, and the common case (one upload, then queries) copies
// nothing.
//
// Misses are deduplicated singleflight-style: when N queries race on a
// cold (collection, generation), one merge runs and the rest block on its
// result — a query storm after an upload costs one merge, not N. The
// merge runs on its own goroutine under its own context, reference-
// counted by the waiting requests: a waiter whose request context ends
// (client disconnect, per-request deadline) detaches immediately, and
// only when the LAST waiter detaches is the merge itself canceled — and
// its in-flight slot removed there and then, so a query arriving while the
// canceled merge winds down starts a fresh one rather than joining it. A
// canceled or failed merge is never cached, so cancellation can neither
// poison the cache nor wedge the key. This is the schedviz
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

// viewEntry is one cached merged view. It never changes while it is held:
// snap is the view frozen when the merge (or window clip) completed, so the
// render-ready form lives and dies with the entry and every hit renders
// from it. A collection entry also keeps db, which the next generation's
// build continues from — taking it when no request holds the entry (taken
// is then set, and the entry is served no more), copying it otherwise. A
// ?window= entry keeps only its clipped snapshot and the event: db and
// files are nil, so it pins nothing of the database it was clipped from.
type viewEntry struct {
	name  string   // collection name — the LRU/map key
	gen   uint64   // content generation the merged file list belongs to
	event string   // the merged profiles' event: what metric defaults follow
	files []string // the sorted file list db was merged from
	db    *analysis.Database
	stats analysis.MergeStats
	snap  *view.Snapshot

	// holds counts the requests rendering from the entry, and taken marks
	// a database handed to a later build; both are guarded by the cache
	// mutex.
	holds int
	taken bool
}

func newViewEntry(name string, gen uint64, files []string, db *analysis.Database, stats analysis.MergeStats) *viewEntry {
	return &viewEntry{name: name, gen: gen, event: db.Event, files: files, db: db, stats: stats, snap: view.Freeze(db.Merged)}
}

// mergeCall is one in-flight merge queries wait on. refs counts the
// waiting requests (guarded by the cache mutex); cancel stops the merge
// and fires when refs drops to zero. done is closed under the cache mutex
// once entry and err are set, with one hold on entry for each waiter
// still counted in refs.
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
// held: the caller must release it once done reading it. It builds the
// view (once, however many queries race here) when the cache has no
// current entry. A needed build takes a token from adm (when non-nil) or
// fails fast with errMergeSaturated — joining an already-running build
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
		if e.gen == gen && !e.taken {
			e.holds++
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
		// through to the miss path; insert() will replace it. A taken entry
		// at this generation is a miss too: a build for a newer generation
		// owns its tree, and the build this miss joins or starts pins the
		// current generation.
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
			if c.inflight[key] == call {
				// Not yet removed by its last waiter detaching, after
				// which a newer build may hold the key.
				delete(c.inflight, key)
			}
			call.entry, call.err = e, err
			if err == nil {
				e.holds += call.refs
				c.insert(e)
			} else if errors.Is(err, context.Canceled) {
				c.canceled.Inc()
			}
			close(call.done)
			c.mu.Unlock()
		}()
	}
	call.refs++
	c.mu.Unlock()

	select {
	case <-call.done:
		return call.entry, call.err
	case <-ctx.Done():
		// This waiter is gone; the merge keeps running for the others and
		// is canceled only when the last one detaches. A build that
		// finished first already counted this waiter's hold: give it back.
		c.mu.Lock()
		defer c.mu.Unlock()
		select {
		case <-call.done:
			if call.entry != nil {
				call.entry.holds--
			}
		default:
			call.refs--
			if call.refs == 0 {
				// Nobody waits on the build any more: cancel it, and take
				// it out of the in-flight slot now, so a query arriving
				// before the build notices starts a fresh one instead of
				// joining a cancelled one.
				call.cancel()
				delete(c.inflight, key)
			}
		}
		return nil, ctx.Err()
	}
}

// release ends one request's hold on an entry entry returned.
func (c *viewCache) release(e *viewEntry) {
	c.mu.Lock()
	e.holds--
	c.mu.Unlock()
}

// base picks what a build of the collection over files (sorted) starts
// from, and returns it with the files still to read. It continues from the
// collection's cached entry when that entry was built from a subset of
// files: the merge is a sum, so only the files added since need reading.
// An entry no request holds is taken — its database goes to the build
// whole, and the entry is served no more; a held one is copied, its
// readers undisturbed. Otherwise — nothing cached (first query, restart,
// eviction), files gone, or the entry already taken by another build,
// whose tree may be half folded — every file is read.
func (c *viewCache) base(name string, files []string) (*analysis.Database, []string) {
	c.mu.Lock()
	elem, ok := c.byName[name]
	if !ok {
		c.mu.Unlock()
		return nil, files
	}
	prev := elem.Value.(*viewEntry)
	added, ok := addedFiles(prev.files, files)
	if !ok || prev.taken {
		c.mu.Unlock()
		return nil, files
	}
	c.extended.Inc()
	if prev.holds == 0 {
		prev.taken = true
		c.mu.Unlock()
		return prev.db, added
	}
	// Copy under a hold of the build's own, so no other build takes the
	// tree while it is being read.
	prev.holds++
	c.mu.Unlock()
	db := *prev.db
	db.Merged = prev.db.Merged.Clone()
	c.release(prev)
	return &db, added
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
// generation, without touching recency or holding it — metadata reporting
// uses it to attach the last merge's quarantine report, which a build
// taking the entry's database leaves as it was.
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
