package cache

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
	"testing"

	"dcprof/internal/machine"
	"dcprof/internal/mem"
)

// TestAccessTraceGolden pins the simulated outcome of one seeded access
// trace per topology: every AccessResult field, then the final Snapshot,
// DomainCounts and MappedPages, folded into one FNV-64 digest. A change to
// how the hierarchy or the page table is synchronized or laid out must not
// move a single simulated cycle, so the digests never change with one.
func TestAccessTraceGolden(t *testing.T) {
	for _, tc := range []struct {
		topo machine.Topology
		want uint64
	}{
		{machine.Tiny(), 0x28acf638b1958c67},
		{machine.MagnyCours48(), 0xceeb36a867198340},
	} {
		t.Run(tc.topo.Name, func(t *testing.T) {
			if got := accessTraceDigest(tc.topo); got != tc.want {
				t.Errorf("digest = %#x, want %#x", got, tc.want)
			}
		})
	}
}

// accessTraceDigest runs about 20k accesses from one goroutine across
// every core of topo. The heap region spans several 512-page runs and
// carries first-touch, interleaved and bound ranges; every 1,000 accesses
// a random page range is discarded (and sometimes re-policied) so later
// accesses re-touch it.
func accessTraceDigest(topo machine.Topology) uint64 {
	const (
		accesses = 20000
		pages    = 1536 // three 512-page runs
	)
	h := NewHierarchy(topo, DefaultConfig())
	pt := mem.NewPageTable(topo.NUMADomains, mem.FirstTouch{})
	base := mem.HeapBase
	page := func(i int) mem.Addr { return base + mem.Addr(i)*mem.PageSize }
	pt.SetRangePolicy(page(100), page(700), mem.Interleave{})
	pt.SetRangePolicy(page(1000), page(1100), mem.Bind{Domain: topo.NUMADomains - 1})

	rng := rand.New(rand.NewSource(1))
	cores := topo.NumCores()
	now := make([]uint64, cores)
	cursor := make([]mem.Addr, cores)
	for c := range cursor {
		cursor[c] = page(c * pages / cores)
	}
	d := fnv.New64a()
	for i := 0; i < accesses; i++ {
		if i%1000 == 999 {
			lo := rng.Intn(pages - 64)
			hi := lo + 1 + rng.Intn(64)
			pt.Discard(page(lo), page(hi))
			switch rng.Intn(3) {
			case 0:
				pt.SetRangePolicy(page(lo), page(hi), mem.Interleave{})
			case 1:
				pt.ClearRangePolicy(page(lo), page(hi))
			}
		}
		core := rng.Intn(cores)
		var addr mem.Addr
		if rng.Intn(10) < 7 { // a per-core stream
			cursor[core] += mem.Addr(8 * (1 + rng.Intn(16)))
			if cursor[core] >= page(pages) {
				cursor[core] = base
			}
			addr = cursor[core]
		} else {
			addr = base + mem.Addr(rng.Intn(pages*mem.PageSize))
		}
		r := h.Access(core, 0, addr, rng.Intn(4) == 0, pt, now[core])
		now[core] += r.Latency + uint64(rng.Intn(64))
		putU64(d, r.Latency, uint64(r.Source), b2u(r.TLBMiss), uint64(int64(r.HomeDomain)), b2u(r.Remote), r.QueueDelay)
	}
	s := h.Snapshot()
	putU64(d, s.Accesses, s.TLBMisses)
	putU64(d, s.BySource[:]...)
	putU64(d, s.DRAMAccesses...)
	putU64(d, s.DRAMBusy...)
	putU64(d, pt.DomainCounts()...)
	putU64(d, uint64(pt.MappedPages()))
	return d.Sum64()
}

func putU64(h hash.Hash64, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
