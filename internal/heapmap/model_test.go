package heapmap

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// model is the reference: a flat sorted slice searched and edited
// linearly, with the map's error texts.
type model struct {
	es []entry[int]
}

func (r *model) insert(lo, hi uint64, v int) error {
	if lo >= hi {
		return fmt.Errorf("heapmap: empty interval [%#x, %#x)", lo, hi)
	}
	i := 0
	for i < len(r.es) && r.es[i].lo <= lo {
		i++
	}
	// The map names the predecessor when both neighbours overlap.
	for _, k := range []int{i - 1, i} {
		if k >= 0 && k < len(r.es) && lo < r.es[k].hi && r.es[k].lo < hi {
			return fmt.Errorf("heapmap: [%#x, %#x) overlaps existing [%#x, %#x)", lo, hi, r.es[k].lo, r.es[k].hi)
		}
	}
	r.es = slices.Insert(r.es, i, entry[int]{lo, hi, v})
	return nil
}

func (r *model) index(addr uint64) int {
	for i, e := range r.es {
		if e.lo <= addr && addr < e.hi {
			return i
		}
	}
	return -1
}

func (r *model) lookup(addr uint64) (int, bool) {
	if i := r.index(addr); i >= 0 {
		return r.es[i].v, true
	}
	return 0, false
}

func (r *model) removeIndex(i int) (int, bool) {
	if i < 0 {
		return 0, false
	}
	v := r.es[i].v
	r.es = slices.Delete(r.es, i, i+1)
	return v, true
}

func (r *model) removeAt(lo uint64) (int, bool) {
	i := r.index(lo)
	if i >= 0 && r.es[i].lo != lo {
		i = -1
	}
	return r.removeIndex(i)
}

// Operations both drivers apply.
const (
	opInsert = iota
	opBulkInsert
	opLookup
	opRemoveAt
	opRemoveContaining
	opEach
	numOps
)

// harness applies one operation to the map and the model and reports the
// first disagreement. It owns one reader cache for the whole run, so cache
// invalidation across every kind of mutation is checked too.
type harness struct {
	m     Map[int]
	ref   model
	c     Cache[int]
	next  int  // value for the next insert: values are unique
	dirty bool // a mutation happened since the last cached lookup
}

func (h *harness) insert(lo, hi uint64) error {
	h.next++
	got, want := h.m.Insert(lo, hi, h.next), h.ref.insert(lo, hi, h.next)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("Insert(%#x, %#x) = %v, model %v", lo, hi, got, want)
	}
	h.dirty = h.dirty || got == nil
	return nil
}

func (h *harness) removed(what string, gv int, gok bool, rv int, rok bool) error {
	if gok != rok || gv != rv {
		return fmt.Errorf("%s = %d,%v, model %d,%v", what, gv, gok, rv, rok)
	}
	h.dirty = h.dirty || gok
	return nil
}

// step applies op with arguments a and b.
func (h *harness) step(op int, a, b uint64) error {
	switch op {
	case opInsert:
		return h.insert(a, a+b%97) // b%97 == 0 checks the empty interval error
	case opBulkInsert:
		// Consecutive adjacent intervals: enough of them split leaves.
		for i := uint64(0); i <= b%150; i++ {
			if err := h.insert(a+4*i, a+4*i+4); err != nil {
				return err
			}
		}
	case opLookup:
		rv, rok := h.ref.lookup(a)
		if gv, gok := h.m.Lookup(a); gv != rv || gok != rok {
			return fmt.Errorf("Lookup(%#x) = %d,%v, model %d,%v", a, gv, gok, rv, rok)
		}
		gv, gok, cached := h.m.LookupCached(a, &h.c)
		if gv != rv || gok != rok {
			return fmt.Errorf("LookupCached(%#x) = %d,%v, model %d,%v", a, gv, gok, rv, rok)
		}
		if cached && h.dirty {
			return fmt.Errorf("LookupCached(%#x) hit a cache filled before a mutation", a)
		}
		h.dirty = false
	case opRemoveAt:
		gv, gok := h.m.RemoveAt(a)
		rv, rok := h.ref.removeAt(a)
		return h.removed(fmt.Sprintf("RemoveAt(%#x)", a), gv, gok, rv, rok)
	case opRemoveContaining:
		gv, gok := h.m.RemoveContaining(a)
		rv, rok := h.ref.removeIndex(h.ref.index(a))
		return h.removed(fmt.Sprintf("RemoveContaining(%#x)", a), gv, gok, rv, rok)
	case opEach:
		stop := int(b) % (len(h.ref.es) + 2) // past the end: no early stop
		var got []entry[int]
		h.m.Each(func(lo, hi uint64, v int) bool {
			got = append(got, entry[int]{lo, hi, v})
			return len(got) != stop
		})
		want := h.ref.es
		if stop > 0 && stop <= len(want) {
			want = want[:stop]
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("Each (stop after %d) visited %d intervals, model %d, or in another order", stop, len(got), len(want))
		}
	}
	if h.m.Len() != len(h.ref.es) {
		return fmt.Errorf("Len = %d, model %d", h.m.Len(), len(h.ref.es))
	}
	return nil
}

// checkLayout verifies the published snapshot's leaf/spine invariants and
// that its entries are the model's.
func (h *harness) checkLayout() error {
	s := h.m.snap.Load()
	if s == nil {
		if len(h.ref.es) != 0 {
			return fmt.Errorf("no snapshot, model holds %d", len(h.ref.es))
		}
		return nil
	}
	if len(s.los) != len(s.leaves) {
		return fmt.Errorf("spine: %d bounds for %d leaves", len(s.los), len(s.leaves))
	}
	var flat []entry[int]
	for i, l := range s.leaves {
		if len(l) == 0 || len(l) > leafCap {
			return fmt.Errorf("leaf %d holds %d entries, want 1..%d", i, len(l), leafCap)
		}
		if s.los[i] != l[0].lo {
			return fmt.Errorf("spine bound %d = %#x, leaf starts at %#x", i, s.los[i], l[0].lo)
		}
		flat = append(flat, l...)
	}
	if s.n != len(flat) || !slices.Equal(flat, h.ref.es) {
		return fmt.Errorf("snapshot holds %d entries (n=%d), model %d, or they differ", len(flat), s.n, len(h.ref.es))
	}
	return nil
}

// TestQuickAgainstModel drives random operation sequences against the map
// and the model, growing each run to at least 1,000 live intervals (many
// leaf splits) and then draining it to none (every leaf emptied), and
// requires identical observable behaviour throughout.
func TestQuickAgainstModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h harness
		const space = 1 << 16
		// known returns an address inside, or the start of, a live interval.
		known := func() uint64 {
			if len(h.ref.es) == 0 {
				return rng.Uint64() % space
			}
			e := h.ref.es[rng.Intn(len(h.ref.es))]
			if rng.Intn(2) == 0 {
				return e.lo
			}
			return e.lo + rng.Uint64()%(e.hi-e.lo)
		}
		grow := true
		for n := 0; grow || len(h.ref.es) > 0; n++ {
			if n > 200000 {
				t.Errorf("seed %d: no progress (%d live)", seed, len(h.ref.es))
				return false
			}
			if grow && len(h.ref.es) >= 1000 {
				grow = false
			}
			var op int
			a, b := rng.Uint64()%space, rng.Uint64()
			switch r := rng.Intn(20); {
			case grow && r < 12, !grow && r < 2:
				op = opInsert
			case grow && r < 13:
				op = opBulkInsert
			case r < 16:
				op, a = opLookup, known()
			case r < 17:
				op = opEach
			case r < 19:
				op, a = opRemoveAt, known()
			default:
				op, a = opRemoveContaining, known()
			}
			if err := h.step(op, a, b); err != nil {
				t.Errorf("seed %d op %d: %v", seed, n, err)
				return false
			}
			if n%64 == 0 {
				if err := h.checkLayout(); err != nil {
					t.Errorf("seed %d op %d: %v", seed, n, err)
					return false
				}
			}
		}
		if err := h.checkLayout(); err != nil {
			t.Errorf("seed %d drained: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// FuzzMapMatchesModel decodes an operation sequence from the input — four
// bytes per operation: the operation, a 16-bit address, one argument — and
// requires the map and the model to agree after every operation and the
// snapshot layout to hold at the end.
func FuzzMapMatchesModel(f *testing.F) {
	f.Add([]byte{opInsert, 0, 1, 16, opLookup, 0, 1, 0, opRemoveAt, 0, 1, 0})
	f.Add([]byte{opBulkInsert, 0, 0, 149, opBulkInsert, 8, 0, 100, opEach, 0, 0, 70, opRemoveContaining, 0, 9, 0})
	f.Add([]byte{opBulkInsert, 0, 0, 200, opRemoveAt, 0, 0, 0, opLookup, 0, 0, 0, opInsert, 0, 2, 3, opEach, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h harness
		for n := 0; len(data) >= 4; n++ {
			op, a, b := int(data[0])%numOps, uint64(data[1])<<8|uint64(data[2]), uint64(data[3])
			data = data[4:]
			if err := h.step(op, a, b); err != nil {
				t.Fatalf("op %d: %v", n, err)
			}
		}
		if err := h.checkLayout(); err != nil {
			t.Fatal(err)
		}
	})
}
