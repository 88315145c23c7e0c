package mem

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestFirstTouchPlacement(t *testing.T) {
	pt := NewPageTable(4, FirstTouch{})
	addr := HeapBase
	if d := pt.Resolve(addr, 2); d != 2 {
		t.Errorf("first touch from domain 2 homed page in %d", d)
	}
	// A later access from another domain sees the established home.
	if d := pt.Resolve(addr+8, 0); d != 2 {
		t.Errorf("second touch moved page to %d", d)
	}
	if d, ok := pt.Home(addr); !ok || d != 2 {
		t.Errorf("Home = %d,%v", d, ok)
	}
}

func TestInterleavePlacement(t *testing.T) {
	pt := NewPageTable(4, Interleave{})
	counts := make([]int, 4)
	for i := 0; i < 64; i++ {
		a := HeapBase + Addr(i*PageSize)
		counts[pt.Resolve(a, 0)]++
	}
	for d, c := range counts {
		if c != 16 {
			t.Errorf("domain %d homed %d pages, want 16", d, c)
		}
	}
}

func TestBindPlacement(t *testing.T) {
	pt := NewPageTable(4, Bind{Domain: 3})
	for i := 0; i < 8; i++ {
		if d := pt.Resolve(HeapBase+Addr(i*PageSize), 1); d != 3 {
			t.Errorf("bind placed page in %d", d)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Bind should panic on placement")
		}
	}()
	NewPageTable(2, Bind{Domain: 5}).Resolve(HeapBase, 0)
}

func TestRangePolicyOverride(t *testing.T) {
	pt := NewPageTable(4, FirstTouch{})
	lo := HeapBase
	hi := lo + 8*PageSize
	pt.SetRangePolicy(lo, hi, Interleave{})

	// Pages inside the range interleave regardless of accessor.
	for i := 0; i < 8; i++ {
		a := lo + Addr(i*PageSize)
		want := int(uint64(PageOf(a)) % 4)
		if d := pt.Resolve(a, 1); d != want {
			t.Errorf("page %d placed in %d, want %d", i, d, want)
		}
	}
	// Pages outside still first-touch.
	if d := pt.Resolve(hi, 1); d != 1 {
		t.Errorf("page outside override placed in %d, want 1", d)
	}
}

func TestRangePolicyReplacement(t *testing.T) {
	pt := NewPageTable(4, FirstTouch{})
	lo := HeapBase
	pt.SetRangePolicy(lo, lo+16*PageSize, Bind{Domain: 0})
	// Replace the middle of the range; the flanks keep the old policy.
	pt.SetRangePolicy(lo+4*PageSize, lo+8*PageSize, Bind{Domain: 3})

	if d := pt.Resolve(lo, 2); d != 0 {
		t.Errorf("left flank placed in %d, want 0", d)
	}
	if d := pt.Resolve(lo+5*PageSize, 2); d != 3 {
		t.Errorf("replaced middle placed in %d, want 3", d)
	}
	if d := pt.Resolve(lo+12*PageSize, 2); d != 0 {
		t.Errorf("right flank placed in %d, want 0", d)
	}
	// One range across all three overrides: trims both flanks and drops
	// the middle in one call.
	pt.SetRangePolicy(lo+2*PageSize, lo+10*PageSize, Bind{Domain: 2})
	for page, want := range map[int]int{1: 0, 3: 2, 6: 2, 9: 2, 11: 0} {
		if d := pt.Resolve(lo+Addr(page*PageSize), 1); d != want {
			t.Errorf("page %d after the spanning override placed in %d, want %d", page, d, want)
		}
	}
}

func TestClearRangePolicy(t *testing.T) {
	pt := NewPageTable(4, FirstTouch{})
	lo := HeapBase
	pt.SetRangePolicy(lo, lo+2*PageSize, Bind{Domain: 3})
	pt.SetRangePolicy(lo+2*PageSize, lo+4*PageSize, Bind{Domain: 3})
	pt.SetRangePolicy(lo+4*PageSize, lo+6*PageSize, Bind{Domain: 3})
	pt.ClearRangePolicy(lo, lo+4*PageSize)
	for page, want := range map[int]int{0: 1, 3: 1, 5: 3} {
		if d := pt.Resolve(lo+Addr(page*PageSize), 1); d != want {
			t.Errorf("page %d after clearing placed in %d, want %d", page, d, want)
		}
	}
}

func TestDiscardAndRecount(t *testing.T) {
	pt := NewPageTable(2, FirstTouch{})
	a := HeapBase
	pt.Resolve(a, 0)
	pt.Resolve(a+PageSize, 1)
	if got := pt.MappedPages(); got != 2 {
		t.Fatalf("MappedPages = %d", got)
	}
	counts := pt.DomainCounts()
	if counts[0] != 1 || counts[1] != 1 {
		t.Fatalf("DomainCounts = %v", counts)
	}
	pt.Discard(a, a+2*PageSize)
	if got := pt.MappedPages(); got != 0 {
		t.Fatalf("MappedPages after discard = %d", got)
	}
	// Re-touch from the other domain: placement starts over.
	if d := pt.Resolve(a, 1); d != 1 {
		t.Errorf("re-touch placed in %d, want 1", d)
	}
}

func TestConcurrentResolveSingleHome(t *testing.T) {
	pt := NewPageTable(8, FirstTouch{})
	const workers = 16
	addr := HeapBase
	var wg sync.WaitGroup
	homes := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			homes[w] = pt.Resolve(addr, w%8)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if homes[w] != homes[0] {
			t.Fatalf("racing first-touchers got different homes: %v", homes)
		}
	}
	if pt.MappedPages() != 1 {
		t.Errorf("MappedPages = %d, want 1", pt.MappedPages())
	}
}

// Property: interleave spreads any contiguous run of pages within one page
// of perfectly even.
func TestQuickInterleaveEven(t *testing.T) {
	f := func(npages uint16, domains uint8) bool {
		d := int(domains%7) + 2
		n := int(npages%512) + d
		pt := NewPageTable(d, Interleave{})
		for i := 0; i < n; i++ {
			pt.Resolve(HeapBase+Addr(i*PageSize), 0)
		}
		counts := pt.DomainCounts()
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestHomedPageReadsWhileWritersChurn reads one homed page's domain
// lock-free while writers first-touch, discard and re-policy other pages —
// pages in the stable page's own chunk, across the chunk boundary next to
// it, and in chunks created during the run below it, so the directory
// entry the readers need moves with each republish. Every read must return
// the stable page's domain.
func TestHomedPageReadsWhileWritersChurn(t *testing.T) {
	pt := NewPageTable(4, FirstTouch{})
	boundary := HeapBase + 64*chunkPages*PageSize // first page of chunk 64
	stable := boundary - 32*PageSize              // in chunk 63, below every churned range
	if d := pt.Resolve(stable, 3); d != 3 {
		t.Fatalf("stable page homed in %d", d)
	}
	const iters = 2000
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if d, ok := pt.Home(stable + 8); !ok || d != 3 {
					errs <- "Home lost the stable page"
					return
				}
				if d := pt.Resolve(stable, i%4); d != 3 {
					errs <- "Resolve moved the stable page"
					return
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				lo := boundary - Addr(4+i%8)*PageSize // straddles the boundary
				hi := boundary + Addr(1+i%8)*PageSize
				far := HeapBase + Addr(2+w*8+i%8)*chunkPages*PageSize
				pt.Resolve(lo, w)
				pt.Resolve(hi, w)
				pt.Resolve(far, w)
				switch i % 3 {
				case 0:
					pt.Discard(lo, hi)
				case 1:
					pt.SetRangePolicy(lo, hi, Interleave{})
				case 2:
					pt.ClearRangePolicy(lo, hi)
					pt.Discard(far, far+PageSize)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	var total uint64
	for _, n := range pt.DomainCounts() {
		total += n
	}
	if int(total) != pt.MappedPages() {
		t.Errorf("DomainCounts sum to %d, MappedPages = %d", total, pt.MappedPages())
	}
}

// TestDiscardAcrossChunks discards a range spanning three chunks, one of
// them never created, and checks the counts follow.
func TestDiscardAcrossChunks(t *testing.T) {
	pt := NewPageTable(2, FirstTouch{})
	page := func(i int) Addr { return HeapBase + Addr(i)*PageSize }
	for _, i := range []int{0, chunkPages - 1, chunkPages, 3 * chunkPages, 3*chunkPages + 5} {
		pt.Resolve(page(i), i%2)
	}
	pt.Discard(page(chunkPages-1), page(3*chunkPages+1))
	if got := pt.MappedPages(); got != 2 {
		t.Errorf("MappedPages = %d, want 2", got)
	}
	for i, want := range map[int]bool{0: true, chunkPages - 1: false, chunkPages: false, 3 * chunkPages: false, 3*chunkPages + 5: true} {
		if _, ok := pt.Home(page(i)); ok != want {
			t.Errorf("page %d homed = %v, want %v", i, ok, want)
		}
	}
	if c := pt.DomainCounts(); c[0]+c[1] != 2 {
		t.Errorf("DomainCounts = %v", c)
	}
}

// TestHomedReadsAllocFree gates the read path at zero allocations.
func TestHomedReadsAllocFree(t *testing.T) {
	pt := NewPageTable(4, FirstTouch{})
	pt.Resolve(HeapBase, 2)
	if allocs := testing.AllocsPerRun(1000, func() { pt.Home(HeapBase + 64) }); allocs != 0 {
		t.Errorf("Home: %v allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { pt.Resolve(HeapBase+64, 1) }); allocs != 0 {
		t.Errorf("Resolve of a homed page: %v allocs, want 0", allocs)
	}
}
