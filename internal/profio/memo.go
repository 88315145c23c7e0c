package profio

import (
	"math/bits"
	"math/rand/v2"

	"dcprof/internal/cct"
)

// frameMemo is the decoder-local memo in front of cct.InternFrame: a
// frame-table entry, keyed by the decoder's string IDs, to the frame it
// interned as. Thread files of one execution declare the same frames over
// and over, so a warm decoder resolves nearly every entry here, and this
// lookup is the largest part of what staging a header costs.
//
// It is an open-addressed index over a dense entry list: slots holds 1 +
// the entry's position (0 is an empty slot), is a power of two in size,
// and is probed linearly and doubled before it is half full. The entries
// themselves sit in insertion order, so a lookup that hits reads one slot
// and one 32-byte entry, and growth rehashes the positions without moving
// an entry. The hash is keyed with a seed drawn per decoder, so an upload
// cannot be crafted so that its frames all land in one probe run.
//
// The zero memo is off: it knows nothing and remembers nothing — the
// decoder of a single image, whose header never repeats itself.
type frameMemo struct {
	slots []uint32
	ents  []memoEnt
	seed  [3]uint64
}

type memoEnt struct {
	key frameKey
	id  cct.FrameID
}

// memoSlots is the slot count a memo starts with.
const memoSlots = 64

func newFrameMemo() frameMemo {
	return frameMemo{
		slots: make([]uint32, memoSlots),
		seed:  [3]uint64{rand.Uint64(), rand.Uint64(), rand.Uint64() | 1},
	}
}

// mix is the 64×64→128-bit multiply folded to 64 bits (wyhash's mum).
func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

func (m *frameMemo) hash(k *frameKey) uint64 {
	h := mix(k.line^m.seed[0], (uint64(k.mod)<<32|uint64(k.name))^m.seed[1])
	return mix(h^(uint64(k.file)<<8|uint64(k.kind)), m.seed[2])
}

// get returns the frame k interned as, if the memo knows it.
func (m *frameMemo) get(k *frameKey) (cct.FrameID, bool) {
	if m.slots == nil {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.hash(k) & mask; ; i = (i + 1) & mask {
		s := m.slots[i]
		if s == 0 {
			return 0, false
		}
		if e := &m.ents[s-1]; e.key == *k {
			return e.id, true
		}
	}
}

// put records that k interned as id; k must not be known yet. An off memo
// ignores it.
func (m *frameMemo) put(k *frameKey, id cct.FrameID) {
	if m.slots == nil {
		return
	}
	if 2*(len(m.ents)+1) > len(m.slots) {
		m.grow()
	}
	m.ents = append(m.ents, memoEnt{key: *k, id: id})
	m.place(uint32(len(m.ents)))
}

// place puts slot value s (1 + an entry's position) in the first free
// slot of its probe run.
func (m *frameMemo) place(s uint32) {
	mask := uint64(len(m.slots) - 1)
	i := m.hash(&m.ents[s-1].key) & mask
	for m.slots[i] != 0 {
		i = (i + 1) & mask
	}
	m.slots[i] = s
}

// grow doubles the slots and re-places every entry.
func (m *frameMemo) grow() {
	m.slots = make([]uint32, 2*len(m.slots))
	for s := range m.ents {
		m.place(uint32(s + 1))
	}
}
