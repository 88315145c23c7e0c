package mem

import (
	"sync"
	"sync/atomic"

	"dcprof/internal/heapmap"
)

// chunkShift sets the run of pages one homeChunk covers: 512 pages, 2 MiB
// of address space in 2 KiB of table.
const (
	chunkShift = 9
	chunkPages = 1 << chunkShift
)

// homeChunk records the homes of one aligned run of chunkPages pages. Each
// slot holds home+1, and 0 means not homed. Slots are written under the
// page table's writer lock and read without any lock.
type homeChunk [chunkPages]atomic.Int32

// dirEntry names the chunk covering pages [n<<chunkShift, (n+1)<<chunkShift).
type dirEntry struct {
	n uint64
	c *homeChunk
}

// chunkDir is one immutable published set of chunks, sorted by n.
type chunkDir []dirEntry

// search returns the index of the first entry whose n is at least n.
func (d chunkDir) search(n uint64) int {
	i, j := 0, len(d)
	for i < j {
		h := int(uint(i+j) >> 1)
		if d[h].n < n {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// slot returns the home slot of page, or nil when no chunk covers it.
func (d chunkDir) slot(page PageID) *atomic.Int32 {
	n := uint64(page) >> chunkShift
	if i := d.search(n); i < len(d) && d[i].n == n {
		return &d[i].c[page&(chunkPages-1)]
	}
	return nil
}

// PageTable tracks, per virtual page, the NUMA domain the page's physical
// frame is homed in. Placement is lazy: a page is homed on its first access
// (first touch), using the policy in effect for its address — a per-range
// override installed by SetRangePolicy (the libnuma path) if one covers the
// page, otherwise the process-wide default (the numactl path).
//
// PageTable is safe for concurrent use. Reading a placed page's home takes
// no lock: homes live in chunks of atomic slots, found through a sorted
// chunk directory that writers copy and republish whenever they add a chunk.
// First touch, Discard and the policy setters serialize on one mutex.
type PageTable struct {
	domains int
	dir     atomic.Pointer[chunkDir]

	mu        sync.Mutex          // serializes writers
	overrides heapmap.Map[Policy] // keyed by page id
	defaultP  Policy
	perDomain []uint64 // pages homed per domain
	mapped    int      // pages homed in total
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
	pt := &PageTable{
		domains:   domains,
		defaultP:  def,
		perDomain: make([]uint64, domains),
	}
	pt.dir.Store(&chunkDir{})
	return pt
}

// Domains returns the number of NUMA domains.
func (pt *PageTable) Domains() int { return pt.domains }

// DefaultPolicy returns the process-wide placement policy.
func (pt *PageTable) DefaultPolicy() Policy {
	pt.mu.Lock()
	defer pt.mu.Unlock()
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
	if d, ok := pt.Home(addr); ok {
		return d
	}

	page := PageOf(addr)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	c := pt.chunk(uint64(page) >> chunkShift)
	s := &c[page&(chunkPages-1)]
	if v := s.Load(); v != 0 { // raced with another first toucher
		return int(v - 1)
	}
	pol := pt.defaultP
	if p, ok := pt.overrides.Lookup(uint64(page)); ok {
		pol = p
	}
	d := pol.Place(page, accessorDomain, pt.domains)
	if d < 0 || d >= pt.domains {
		panic("mem: policy placed page outside domain range")
	}
	s.Store(int32(d + 1))
	pt.perDomain[d]++
	pt.mapped++
	return d
}

// chunk returns chunk n, adding it to the directory if it is new. Caller
// holds pt.mu.
func (pt *PageTable) chunk(n uint64) *homeChunk {
	dir := *pt.dir.Load()
	i := dir.search(n)
	if i < len(dir) && dir[i].n == n {
		return dir[i].c
	}
	e := dirEntry{n: n, c: new(homeChunk)}
	var next chunkDir
	if i == len(dir) {
		// Readers of dir never look past its length, so appending may
		// reuse its spare capacity.
		next = append(dir, e)
	} else {
		next = make(chunkDir, 0, len(dir)+1)
		next = append(append(append(next, dir[:i]...), e), dir[i:]...)
	}
	pt.dir.Store(&next)
	return e.c
}

// Home reports the page's home domain without placing it.
func (pt *PageTable) Home(addr Addr) (int, bool) {
	if s := (*pt.dir.Load()).slot(PageOf(addr)); s != nil {
		if v := s.Load(); v != 0 {
			return int(v - 1), true
		}
	}
	return 0, false
}

// Discard forgets placements for all pages overlapping [lo, hi); the next
// touch re-places them. Models returning memory to the OS on free.
func (pt *PageTable) Discard(lo, hi Addr) {
	if lo >= hi {
		return
	}
	first, last := uint64(PageOf(lo)), uint64(PageOf(hi-1))
	pt.mu.Lock()
	defer pt.mu.Unlock()
	dir := *pt.dir.Load()
	for i := dir.search(first >> chunkShift); i < len(dir) && dir[i].n <= last>>chunkShift; i++ {
		c := dir[i].c
		base := dir[i].n << chunkShift
		from, to := max(first, base), min(last, base+chunkPages-1)
		for p := from; p <= to; p++ {
			s := &c[p-base]
			if v := s.Load(); v != 0 {
				s.Store(0)
				pt.perDomain[v-1]--
				pt.mapped--
			}
		}
	}
}

// DomainCounts returns a copy of the number of pages currently homed in each
// domain.
func (pt *PageTable) DomainCounts() []uint64 {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	out := make([]uint64, len(pt.perDomain))
	copy(out, pt.perDomain)
	return out
}

// MappedPages returns the number of pages that have been homed.
func (pt *PageTable) MappedPages() int {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.mapped
}
