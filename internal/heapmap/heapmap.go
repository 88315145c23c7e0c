// Package heapmap provides an interval map from non-overlapping half-open
// address ranges to values, optimized for the profiler's read/write
// asymmetry: every memory sample performs one lookup, while mutation only
// happens on malloc/free — orders of magnitude rarer.
//
// Readers never block and never see a lock: Lookup searches an immutable
// snapshot published through an atomic pointer. A snapshot is a spine —
// each leaf's first lower bound, contiguous, beside the leaves — over
// sorted leaves of at most leafCap entries. Writers serialize on a mutex,
// copy the one leaf they change plus the spine, and republish
// (copy-on-write), so a mutation costs O(leafCap + n/leafCap) in n live
// ranges rather than O(n), and samplers on other threads are never
// serialized against it. Snapshot identity gives per-thread caches a free
// invalidation rule: any mutation republishes, so a cache that still holds
// the current snapshot pointer is provably current (no stale hit after a
// free or an address-reusing realloc).
package heapmap

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// leafCap bounds a leaf's entries: the per-mutation leaf copy against the
// spine length. An insert into a full leaf splits it in two halves; a
// removal that empties a leaf drops it from the spine. Leaves are never
// merged otherwise.
const leafCap = 64

// entry is one [lo, hi) range and its value.
type entry[V any] struct {
	lo, hi uint64
	v      V
}

// snapshot is one immutable published state. Its entries, concatenated
// leaf by leaf, are sorted by lo and pairwise disjoint; every leaf is
// non-empty, and los[i] == leaves[i][0].lo.
type snapshot[V any] struct {
	los    []uint64
	leaves [][]entry[V]
	n      int
}

// find locates the last entry whose lo is at most addr — the only one that
// can contain addr — as leaf index li and entry index ei. ei is -1 when
// addr lies below every entry (li is then 0).
func (s *snapshot[V]) find(addr uint64) (li, ei int) {
	i, j := 0, len(s.los)
	for i < j {
		h := int(uint(i+j) >> 1)
		if s.los[h] <= addr {
			i = h + 1
		} else {
			j = h
		}
	}
	if i == 0 {
		return 0, -1
	}
	li = i - 1
	es := s.leaves[li]
	i, j = 1, len(es) // es[0].lo == los[li] <= addr
	for i < j {
		h := int(uint(i+j) >> 1)
		if es[h].lo <= addr {
			i = h + 1
		} else {
			j = h
		}
	}
	return li, i - 1
}

// lookup returns the entry containing addr.
func (s *snapshot[V]) lookup(addr uint64) (entry[V], bool) {
	if li, ei := s.find(addr); ei >= 0 {
		if e := s.leaves[li][ei]; addr < e.hi {
			return e, true
		}
	}
	return entry[V]{}, false
}

// splice returns a snapshot of n entries whose spine replaces leaves[i:j]
// with the given leaves: the spine copy every mutation pays. The bounds
// are shared with s when the edit leaves them as they were.
func (s *snapshot[V]) splice(i, j, n int, with ...[]entry[V]) *snapshot[V] {
	k := len(s.leaves) - (j - i) + len(with)
	ns := &snapshot[V]{los: s.los, leaves: make([][]entry[V], 0, k), n: n}
	ns.leaves = append(append(append(ns.leaves, s.leaves[:i]...), with...), s.leaves[j:]...)
	same := len(with) == j-i
	for t := 0; same && t < len(with); t++ {
		same = with[t][0].lo == s.los[i+t]
	}
	if !same {
		ns.los = make([]uint64, 0, k)
		ns.los = append(ns.los, s.los[:i]...)
		for _, l := range with {
			ns.los = append(ns.los, l[0].lo)
		}
		ns.los = append(ns.los, s.los[j:]...)
	}
	return ns
}

// Map maps non-overlapping half-open intervals to values. The zero value
// is an empty map ready for use. Reads are lock-free; mutations serialize
// on an internal mutex.
type Map[V any] struct {
	mu       sync.Mutex
	snap     atomic.Pointer[snapshot[V]]
	rebuilds atomic.Uint64
}

// publish makes s the current snapshot. Callers hold m.mu.
func (m *Map[V]) publish(s *snapshot[V]) {
	m.snap.Store(s)
	m.rebuilds.Add(1)
}

// Insert adds [lo, hi) -> v, copying one leaf and the spine and
// republishing. It returns an error if the interval is empty or overlaps an
// existing one.
func (m *Map[V]) Insert(lo, hi uint64, v V) error {
	if lo >= hi {
		return fmt.Errorf("heapmap: empty interval [%#x, %#x)", lo, hi)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.snap.Load()
	if s == nil {
		s = &snapshot[V]{}
	}
	li, ei := s.find(lo)
	var leaf []entry[V]
	if len(s.leaves) > 0 {
		leaf = s.leaves[li]
	}
	if ei >= 0 && leaf[ei].hi > lo {
		p := leaf[ei]
		return fmt.Errorf("heapmap: [%#x, %#x) overlaps existing [%#x, %#x)", lo, hi, p.lo, p.hi)
	}
	// The successor is the next entry in this leaf, or the next leaf's first.
	at := ei + 1
	nx, hasNext := entry[V]{}, false
	if at < len(leaf) {
		nx, hasNext = leaf[at], true
	} else if li+1 < len(s.leaves) {
		nx, hasNext = s.leaves[li+1][0], true
	}
	if hasNext && nx.lo < hi {
		return fmt.Errorf("heapmap: [%#x, %#x) overlaps existing [%#x, %#x)", lo, hi, nx.lo, nx.hi)
	}
	nl := make([]entry[V], len(leaf)+1)
	copy(nl, leaf[:at])
	nl[at] = entry[V]{lo: lo, hi: hi, v: v}
	copy(nl[at+1:], leaf[at:])
	j := min(li+1, len(s.leaves))
	if len(nl) <= leafCap {
		m.publish(s.splice(li, j, s.n+1, nl))
	} else {
		h := len(nl) / 2
		m.publish(s.splice(li, j, s.n+1, nl[:h:h], nl[h:]))
	}
	return nil
}

// RemoveAt removes the interval whose lower bound is exactly lo, returning
// its value. It reports false (and republishes nothing) if no interval
// starts at lo.
func (m *Map[V]) RemoveAt(lo uint64) (V, bool) {
	return m.remove(lo, true)
}

// RemoveContaining removes the interval containing addr, returning its
// value. It reports false (and republishes nothing) if no interval
// contains addr.
func (m *Map[V]) RemoveContaining(addr uint64) (V, bool) {
	return m.remove(addr, false)
}

// remove drops the interval containing addr — only if it starts exactly at
// addr when exact is set — rewriting its leaf (or dropping the leaf when it
// empties) and copying the spine.
func (m *Map[V]) remove(addr uint64, exact bool) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var zero V
	s := m.snap.Load()
	if s == nil {
		return zero, false
	}
	li, ei := s.find(addr)
	if ei < 0 {
		return zero, false
	}
	leaf := s.leaves[li]
	e := leaf[ei]
	if (exact && e.lo != addr) || addr >= e.hi {
		return zero, false
	}
	// Published leaves are never written, so a leaf that loses an end
	// entry can share the old one's array (pinning at most leafCap
	// entries); only a removal from the middle copies.
	switch {
	case len(leaf) == 1:
		m.publish(s.splice(li, li+1, s.n-1))
	case ei == 0:
		m.publish(s.splice(li, li+1, s.n-1, leaf[1:]))
	case ei == len(leaf)-1:
		m.publish(s.splice(li, li+1, s.n-1, leaf[:ei:ei]))
	default:
		nl := make([]entry[V], 0, len(leaf)-1)
		nl = append(append(nl, leaf[:ei]...), leaf[ei+1:]...)
		m.publish(s.splice(li, li+1, s.n-1, nl))
	}
	return e.v, true
}

// Lookup returns the value of the interval containing addr. Lock-free.
func (m *Map[V]) Lookup(addr uint64) (V, bool) {
	if s := m.snap.Load(); s != nil {
		if e, ok := s.lookup(addr); ok {
			return e.v, true
		}
	}
	var zero V
	return zero, false
}

// Cache is a 1-entry per-reader lookup cache exploiting sample locality:
// consecutive samples usually land in the same block. It is validated by
// snapshot identity, so any mutation anywhere invalidates every cache
// automatically. Each reader owns its Cache; it must not be shared.
type Cache[V any] struct {
	snap   *snapshot[V]
	lo, hi uint64
	v      V
}

// LookupCached is Lookup through the reader's cache. The third result
// reports whether the hit came from the cache (for telemetry).
func (m *Map[V]) LookupCached(addr uint64, c *Cache[V]) (V, bool, bool) {
	s := m.snap.Load()
	if s == nil {
		var zero V
		return zero, false, false
	}
	if c.snap == s && c.lo <= addr && addr < c.hi {
		return c.v, true, true
	}
	e, ok := s.lookup(addr)
	if !ok {
		var zero V
		return zero, false, false
	}
	c.snap, c.lo, c.hi, c.v = s, e.lo, e.hi, e.v
	return e.v, true, false
}

// Len returns the number of live intervals. Lock-free.
func (m *Map[V]) Len() int {
	if s := m.snap.Load(); s != nil {
		return s.n
	}
	return 0
}

// Rebuilds returns how many times the snapshot has been rebuilt and
// republished (one per successful mutation).
func (m *Map[V]) Rebuilds() uint64 { return m.rebuilds.Load() }

// Each calls fn on every interval in ascending order against the current
// snapshot. fn returning false stops the iteration. fn may mutate the map:
// the iteration continues over the snapshot taken when Each was called.
func (m *Map[V]) Each(fn func(lo, hi uint64, v V) bool) {
	s := m.snap.Load()
	if s == nil {
		return
	}
	for _, leaf := range s.leaves {
		for _, e := range leaf {
			if !fn(e.lo, e.hi, e.v) {
				return
			}
		}
	}
}
