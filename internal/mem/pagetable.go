package mem

import (
	"sync"

	"dcprof/internal/heapmap"
)

// PageTable tracks, per virtual page, the NUMA domain the page's physical
// frame is homed in. Placement is lazy: a page is homed on its first access
// (first touch), using the policy in effect for its address — a per-range
// override installed by SetRangePolicy (the libnuma path) if one covers the
// page, otherwise the process-wide default (the numactl path).
//
// PageTable is safe for concurrent use; the resolved-page read path takes
// only a read lock.
type PageTable struct {
	domains int

	mu        sync.RWMutex
	home      map[PageID]int32
	overrides heapmap.Map[Policy] // keyed by page id
	defaultP  Policy
	perDomain []uint64 // pages homed per domain
}

// NewPageTable creates a page table for a node with the given number of NUMA
// domains and a process-wide default policy.
func NewPageTable(domains int, def Policy) *PageTable {
	if domains <= 0 {
		panic("mem: page table needs at least one domain")
	}
	if def == nil {
		def = FirstTouch{}
	}
	return &PageTable{
		domains:   domains,
		home:      make(map[PageID]int32),
		defaultP:  def,
		perDomain: make([]uint64, domains),
	}
}

// Domains returns the number of NUMA domains.
func (pt *PageTable) Domains() int { return pt.domains }

// DefaultPolicy returns the process-wide placement policy.
func (pt *PageTable) DefaultPolicy() Policy {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return pt.defaultP
}

// SetDefaultPolicy replaces the process-wide policy for pages touched from
// now on. Already-homed pages do not move (no page migration, as on the
// paper's systems).
func (pt *PageTable) SetDefaultPolicy(p Policy) {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.defaultP = p
}

// SetRangePolicy installs a placement policy for all not-yet-touched pages
// overlapping [lo, hi) — the analogue of allocating a specific block with
// libnuma's numa_alloc_interleaved. Overlapping older overrides in the range
// are replaced.
func (pt *PageTable) SetRangePolicy(lo, hi Addr, p Policy) {
	if lo >= hi {
		return
	}
	first, last := uint64(PageOf(lo)), uint64(PageOf(hi-1))
	pt.mu.Lock()
	defer pt.mu.Unlock()
	// Drop any override intersecting the new range, trimming partial
	// overlap. Each walks one snapshot, so the edits do not disturb it.
	pt.overrides.Each(func(olo, ohi uint64, op Policy) bool {
		if olo > last {
			return false
		}
		if ohi <= first {
			return true
		}
		pt.overrides.RemoveAt(olo)
		if olo < first {
			pt.mustInsertOverride(olo, first, op)
		}
		if ohi > last+1 {
			pt.mustInsertOverride(last+1, ohi, op)
		}
		return true
	})
	pt.mustInsertOverride(first, last+1, p)
}

func (pt *PageTable) mustInsertOverride(lo, hi uint64, p Policy) {
	if err := pt.overrides.Insert(lo, hi, p); err != nil {
		panic("mem: override bookkeeping violated disjointness: " + err.Error())
	}
}

// ClearRangePolicy removes any override whose start page falls inside
// [lo, hi), reverting those pages to the default policy. Used when freed
// heap ranges are recycled.
func (pt *PageTable) ClearRangePolicy(lo, hi Addr) {
	if lo >= hi {
		return
	}
	first, last := uint64(PageOf(lo)), uint64(PageOf(hi-1))
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.overrides.Each(func(olo, _ uint64, _ Policy) bool {
		if olo > last {
			return false
		}
		if olo >= first {
			pt.overrides.RemoveAt(olo)
		}
		return true
	})
}

// Resolve returns the home domain of the page containing addr, homing the
// page first if this is its first touch. accessorDomain is the NUMA domain
// of the accessing hardware thread.
func (pt *PageTable) Resolve(addr Addr, accessorDomain int) int {
	page := PageOf(addr)
	pt.mu.RLock()
	if d, ok := pt.home[page]; ok {
		pt.mu.RUnlock()
		return int(d)
	}
	pt.mu.RUnlock()

	pt.mu.Lock()
	defer pt.mu.Unlock()
	if d, ok := pt.home[page]; ok { // raced with another first toucher
		return int(d)
	}
	pol := pt.defaultP
	if p, ok := pt.overrides.Lookup(uint64(page)); ok {
		pol = p
	}
	d := pol.Place(page, accessorDomain, pt.domains)
	if d < 0 || d >= pt.domains {
		panic("mem: policy placed page outside domain range")
	}
	pt.home[page] = int32(d)
	pt.perDomain[d]++
	return d
}

// Home reports the page's home domain without placing it.
func (pt *PageTable) Home(addr Addr) (int, bool) {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	d, ok := pt.home[PageOf(addr)]
	return int(d), ok
}

// Discard forgets placements for all pages overlapping [lo, hi); the next
// touch re-places them. Models returning memory to the OS on free.
func (pt *PageTable) Discard(lo, hi Addr) {
	if lo >= hi {
		return
	}
	first, last := PageOf(lo), PageOf(hi-1)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	for p := first; p <= last; p++ {
		if d, ok := pt.home[p]; ok {
			pt.perDomain[d]--
			delete(pt.home, p)
		}
	}
}

// DomainCounts returns a copy of the number of pages currently homed in each
// domain.
func (pt *PageTable) DomainCounts() []uint64 {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	out := make([]uint64, len(pt.perDomain))
	copy(out, pt.perDomain)
	return out
}

// MappedPages returns the number of pages that have been homed.
func (pt *PageTable) MappedPages() int {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return len(pt.home)
}
