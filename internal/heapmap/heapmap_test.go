package heapmap

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestInsertLookupBoundaries(t *testing.T) {
	var m Map[int]
	if err := m.Insert(100, 200, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(200, 300, 2); err != nil {
		t.Fatal(err) // adjacent ranges are legal: [lo, hi) half-open
	}
	if err := m.Insert(50, 60, 3); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint64
		want int
		ok   bool
	}{
		{100, 1, true}, {199, 1, true}, {200, 2, true}, {299, 2, true},
		{300, 0, false}, {99, 0, false}, {50, 3, true}, {60, 0, false}, {0, 0, false},
	}
	for _, c := range cases {
		v, ok := m.Lookup(c.addr)
		if ok != c.ok || v != c.want {
			t.Errorf("Lookup(%d) = %d,%v, want %d,%v", c.addr, v, ok, c.want, c.ok)
		}
	}
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
}

// TestInsertLookup fills a gap exactly adjacent on both sides and checks
// every boundary of the three resulting ranges.
func TestInsertLookup(t *testing.T) {
	var m Map[string]
	for _, iv := range []struct {
		lo, hi uint64
		v      string
	}{{100, 200, "a"}, {300, 400, "b"}, {200, 300, "c"}} {
		if err := m.Insert(iv.lo, iv.hi, iv.v); err != nil {
			t.Fatalf("Insert(%d, %d): %v", iv.lo, iv.hi, err)
		}
	}
	cases := []struct {
		addr uint64
		want string
		ok   bool
	}{
		{99, "", false}, {100, "a", true}, {199, "a", true}, {200, "c", true},
		{299, "c", true}, {300, "b", true}, {399, "b", true}, {400, "", false},
	}
	for _, c := range cases {
		if got, ok := m.Lookup(c.addr); ok != c.ok || got != c.want {
			t.Errorf("Lookup(%d) = (%q, %v), want (%q, %v)", c.addr, got, ok, c.want, c.ok)
		}
	}
}

func TestInsertErrors(t *testing.T) {
	var m Map[int]
	if err := m.Insert(10, 10, 0); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty interval: got %v", err)
	}
	if err := m.Insert(100, 200, 1); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]uint64{{150, 160}, {90, 101}, {199, 250}, {100, 200}, {50, 300}} {
		if err := m.Insert(c[0], c[1], 9); err == nil || !strings.Contains(err.Error(), "overlaps") {
			t.Fatalf("Insert(%d,%d): want overlap error, got %v", c[0], c[1], err)
		}
	}
	// Failed mutations must not republish (caches stay valid).
	if m.Rebuilds() != 1 {
		t.Fatalf("Rebuilds = %d, want 1 (failed inserts must not rebuild)", m.Rebuilds())
	}
}

func TestInsertRejectsOverlap(t *testing.T) {
	var m Map[string]
	if err := m.Insert(100, 200, "a"); err != nil {
		t.Fatal(err)
	}
	for _, ov := range [][2]uint64{{100, 200}, {50, 101}, {199, 300}, {150, 160}, {0, 1000}} {
		if err := m.Insert(ov[0], ov[1], "x"); err == nil {
			t.Errorf("Insert(%d, %d) should have failed", ov[0], ov[1])
		}
	}
	if m.Len() != 1 {
		t.Errorf("failed inserts mutated the map: len = %d", m.Len())
	}
}

func TestInsertRejectsEmpty(t *testing.T) {
	var m Map[int]
	if err := m.Insert(5, 5, 1); err == nil {
		t.Error("empty interval accepted")
	}
	if err := m.Insert(6, 5, 1); err == nil {
		t.Error("inverted interval accepted")
	}
	if m.Len() != 0 || m.Rebuilds() != 0 {
		t.Errorf("rejected inserts changed the map: Len = %d, Rebuilds = %d", m.Len(), m.Rebuilds())
	}
}

func TestRemoveAt(t *testing.T) {
	var m Map[string]
	m.Insert(10, 20, "a")
	m.Insert(30, 40, "b")
	if v, ok := m.RemoveAt(30); !ok || v != "b" {
		t.Fatalf("RemoveAt(30) = %q,%v", v, ok)
	}
	if _, ok := m.Lookup(35); ok {
		t.Fatal("removed range still found")
	}
	if _, ok := m.RemoveAt(30); ok {
		t.Fatal("double remove reported ok")
	}
	if _, ok := m.RemoveAt(15); ok {
		t.Fatal("RemoveAt mid-range must require the exact lower bound")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestRemoveAtThenReinsert removes one of two adjacent ranges, checks its
// neighbour is undisturbed, and inserts the freed range again.
func TestRemoveAtThenReinsert(t *testing.T) {
	var m Map[string]
	m.Insert(100, 200, "a")
	m.Insert(200, 300, "b")
	if _, ok := m.RemoveAt(150); ok {
		t.Error("RemoveAt(150) should fail: no interval starts there")
	}
	if v, ok := m.RemoveAt(100); !ok || v != "a" {
		t.Errorf("RemoveAt(100) = (%q, %v), want (a, true)", v, ok)
	}
	if _, ok := m.Lookup(150); ok {
		t.Error("address 150 still resolves after removal")
	}
	if v, ok := m.Lookup(250); !ok || v != "b" {
		t.Error("unrelated interval disturbed by removal")
	}
	if err := m.Insert(100, 200, "a2"); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Lookup(199); v != "a2" {
		t.Errorf("reinserted interval not found, got %q", v)
	}
}

func TestRemoveContaining(t *testing.T) {
	var m Map[int]
	m.Insert(1000, 2000, 7)
	m.Insert(2000, 2001, 8)
	if _, ok := m.RemoveContaining(999); ok {
		t.Fatal("RemoveContaining below every range reported ok")
	}
	if _, ok := m.RemoveContaining(2001); ok {
		t.Fatal("RemoveContaining past the end of a range reported ok")
	}
	if v, ok := m.RemoveContaining(1500); !ok || v != 7 {
		t.Fatalf("RemoveContaining(1500) = %d,%v", v, ok)
	}
	if _, ok := m.RemoveContaining(1500); ok {
		t.Fatal("second removal reported ok")
	}
	if v, ok := m.Lookup(2000); !ok || v != 8 {
		t.Fatal("adjacent range disturbed by removal")
	}
	if m.Len() != 1 || m.Rebuilds() != 3 {
		t.Fatalf("Len = %d, Rebuilds = %d, want 1, 3 (misses must not rebuild)", m.Len(), m.Rebuilds())
	}
}

// TestLookupCached covers the per-reader cache: a repeat hit is served from
// the cache, and any mutation — including a free+realloc reusing the same
// address for a different block — invalidates it via snapshot identity.
func TestLookupCached(t *testing.T) {
	var m Map[string]
	var c Cache[string]
	m.Insert(100, 200, "old")

	v, ok, cached := m.LookupCached(150, &c)
	if !ok || cached || v != "old" {
		t.Fatalf("first lookup = %q,%v,cached=%v", v, ok, cached)
	}
	v, ok, cached = m.LookupCached(150, &c)
	if !ok || !cached || v != "old" {
		t.Fatalf("repeat lookup = %q,%v,cached=%v, want cache hit", v, ok, cached)
	}

	// Realloc address reuse: same range, new identity.
	m.RemoveAt(100)
	m.Insert(100, 200, "new")
	v, ok, cached = m.LookupCached(150, &c)
	if !ok || cached || v != "new" {
		t.Fatalf("post-realloc lookup = %q,%v,cached=%v, want fresh %q", v, ok, cached, "new")
	}

	// Plain free: the cached range is gone; the cache must not resurrect it.
	m.RemoveAt(100)
	if _, ok, _ := m.LookupCached(150, &c); ok {
		t.Fatal("cache served a freed block")
	}

	if m.Rebuilds() != 4 {
		t.Fatalf("Rebuilds = %d, want 4", m.Rebuilds())
	}
}

func TestEach(t *testing.T) {
	var m Map[int]
	m.Insert(30, 40, 3)
	m.Insert(10, 20, 1)
	m.Insert(20, 30, 2)
	var got []int
	m.Each(func(lo, hi uint64, v int) bool { got = append(got, v); return true })
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Each order = %v, want ascending [1 2 3]", got)
	}
	got = got[:0]
	m.Each(func(lo, hi uint64, v int) bool { got = append(got, v); return v != 2 })
	if len(got) != 2 {
		t.Fatalf("Each early stop visited %d, want 2", len(got))
	}
}

// TestEachOrderAndEarlyStop inserts out of order and checks Each visits in
// ascending lo and stops as soon as the callback returns false.
func TestEachOrderAndEarlyStop(t *testing.T) {
	var m Map[int]
	for _, lo := range []uint64{500, 100, 300} {
		if err := m.Insert(lo, lo+10, int(lo)); err != nil {
			t.Fatal(err)
		}
	}
	var seen []uint64
	m.Each(func(lo, hi uint64, v int) bool {
		seen = append(seen, lo)
		return true
	})
	if len(seen) != 3 || seen[0] != 100 || seen[1] != 300 || seen[2] != 500 {
		t.Fatalf("Each order = %v, want [100 300 500]", seen)
	}
	var count int
	m.Each(func(uint64, uint64, int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("early stop visited %d intervals, want 2", count)
	}
}

// TestConcurrentReadersDuringMutation runs cached and uncached lookups
// from several goroutines while two writers repeatedly fill their slots in
// ascending order (splitting leaves) and free them all again (emptying and
// dropping leaves); run it under -race. A reader must only ever observe the
// value of the slot it hit, and every lookup of a block that stays live the
// whole time must find it.
func TestConcurrentReadersDuringMutation(t *testing.T) {
	const (
		slots  = 4096
		width  = 16
		stable = 64 // every 64th slot is live throughout
		rounds = 8
	)
	var m Map[uint64]
	for s := uint64(0); s < slots; s += stable {
		if err := m.Insert(s*width, s*width+width, s); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			var c Cache[uint64]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := uint64(i*7919+g*131) % slots
				if i%8 == 0 {
					s -= s % stable
				}
				addr := s*width + width/2
				v, ok, _ := m.LookupCached(addr, &c)
				v2, ok2 := m.Lookup(addr)
				if (ok && v != s) || (ok2 && v2 != s) {
					t.Errorf("lookup of slot %d observed value %d/%d", s, v, v2)
					return
				}
				if s%stable == 0 && !(ok && ok2) {
					t.Errorf("lookup of always-live slot %d missed", s)
					return
				}
			}
		}(g)
	}
	var writers sync.WaitGroup
	for w := uint64(0); w < 2; w++ {
		writers.Add(1)
		go func(w uint64) {
			defer writers.Done()
			for round := 0; round < rounds; round++ {
				for s := w; s < slots; s += 2 {
					if s%stable == 0 {
						continue
					}
					if err := m.Insert(s*width, s*width+width, s); err != nil {
						t.Error(err)
						return
					}
				}
				for s := w; s < slots; s += 2 {
					if s%stable == 0 {
						continue
					}
					if _, ok := m.RemoveAt(s * width); !ok {
						t.Errorf("RemoveAt(slot %d) lost the range", s)
						return
					}
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if m.Len() != slots/stable {
		t.Fatalf("Len = %d, want %d", m.Len(), slots/stable)
	}
}

// TestMutationCostBounded pins the layout's complexity as a count rather
// than a time: the bytes one RemoveAt+Insert pair allocates at 512 and at
// 16,384 live intervals. A copy-on-write flat slice pays 2 x n x 24 B —
// 786 KiB at 16,384; one leaf plus the spine per mutation stays far below.
func TestMutationCostBounded(t *testing.T) {
	const width, pairs = 64, 200
	for _, n := range []int{512, 16384} {
		var m Map[int]
		for i := 0; i < n; i++ {
			if err := m.Insert(uint64(i)*2*width, uint64(i)*2*width+width, i); err != nil {
				t.Fatal(err)
			}
		}
		lo := uint64(n/2) * 2 * width
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			if _, ok := m.RemoveAt(lo); !ok {
				t.Fatal("remove lost a range")
			}
			if err := m.Insert(lo, lo+width, i); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / pairs
		t.Logf("n=%d: %d B allocated per RemoveAt+Insert", n, per)
		if n == 16384 && per > 64<<10 {
			t.Errorf("n=%d: %d B per RemoveAt+Insert, want <= 64 KiB", n, per)
		}
	}
}

// benchMap fills a map with n blocks of 8 KiB at a 16 KiB stride, the
// profiler's block size.
func benchMap(b *testing.B, n int) *Map[int] {
	m := new(Map[int])
	for i := 0; i < n; i++ {
		if err := m.Insert(uint64(i)<<14, uint64(i)<<14+8192, i); err != nil {
			b.Fatal(err)
		}
	}
	return m
}

var sinkInt int

func BenchmarkLookup(b *testing.B) {
	for _, n := range []int{512, 16384} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			m := benchMap(b, n)
			rng := rand.New(rand.NewSource(7))
			addrs := make([]uint64, 4096)
			for i := range addrs {
				addrs[i] = uint64(rng.Intn(n))<<14 + uint64(rng.Intn(8192))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := m.Lookup(addrs[i%len(addrs)])
				sinkInt += v
			}
		})
	}
}

func BenchmarkInsertRemove(b *testing.B) {
	for _, n := range []int{512, 16384} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			m := benchMap(b, n)
			lo := uint64(n/2) << 14
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RemoveAt(lo)
				if err := m.Insert(lo, lo+8192, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
