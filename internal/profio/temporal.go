package profio

// Temporal sidecar codec: the optional trailer section of a v2 or v3 file
// that persists a profile's cct.TimeSeries.
//
// The sidecar rides AFTER the footer as a tagged trailer section:
//
//	u32 section magic ("DCPT")   uvarint payloadLen · payload · u32 CRC32
//
// so a file remains exactly its old self up to and including the
// footer. Readers that predate trailers stop at the footer; this reader
// scans trailers until EOF, decoding the magics it knows and skipping
// (after checksum verification) the ones it does not — the same
// forward-compatibility seam future sidecars can use.
//
// Payload layout (all varints unsigned LEB128):
//
//	uvarint width                      window width in sim cycles
//	uvarint numWindows
//	per window (ascending index):
//	  uvarint indexDelta               first window absolute, later ones
//	                                   delta from the previous (≥ 1)
//	  uvarint numEntries
//	  per entry (sorted by class, then node index):
//	    byte class
//	    uvarint nodeIdxDelta           absolute when the class changes,
//	                                   else delta from the previous entry
//	                                   in the same class (≥ 1)
//	    byte nnz · {byte metricID, uvarint value}×nnz
//
// Node references are the deterministic pre-order indices the tree
// sections themselves are written in, so the decoder resolves them
// against the nodes it just built and the sidecar stores no paths at all.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"unsafe"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// TemporalMagic tags the temporal-sidecar trailer section ("DCPT").
const TemporalMagic = 0x44435054

// maxWindowSpan bounds the distance between a sidecar's first and last
// window index — a sanity cap on how sparse a corrupt-but-checksummed
// series may claim to be. Downstream consumers must not rely on it for
// memory safety: it is relative to each file's own first window, so the
// merged span across files is unbounded, and temporal.Index therefore
// works over the sparse window list, never a densified range.
const maxWindowSpan = 1 << 26

// nodeSlot is one entry of the encoder's node → position table: open
// addressing over the node's address, which for the heap objects nodes
// are does not change.
type nodeSlot struct {
	n   *cct.Node
	pos uint32
}

func (e *encoder) slot(n *cct.Node) uint64 {
	return uint64(uintptr(unsafe.Pointer(n))) * 0x9E3779B97F4A7C15 >> e.shift
}

// indexNodes fills the table with every linearised node's position.
func (e *encoder) indexNodes() {
	size := 1 << bits.Len(uint(2*len(e.nodes)))
	if cap(e.table) < size {
		e.table = make([]nodeSlot, size)
	}
	e.table = e.table[:size]
	e.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for pos, n := range e.nodes {
		h := e.slot(n)
		for e.table[h].n != nil {
			h = (h + 1) & uint64(size-1)
		}
		e.table[h] = nodeSlot{n, uint32(pos)}
	}
}

// sideEntry is one delta of the window being encoded, keyed by
// class<<32 | pre-order index so that one integer sort gives the
// format's (class, node) order.
type sideEntry struct {
	key uint64
	d   *cct.TimeDelta
}

// sidecar appends ts as the tagged temporal trailer. Windows are taken in
// index order and each index's deltas sorted by key once, adjacent equal
// keys summing into one entry — which is also all that a re-opened
// (duplicate) window needs. The recorder and the decoder both hand over
// ascending windows, so the window sort is normally skipped.
func (e *encoder) sidecar(ts *cct.TimeSeries) error {
	if ts.Width == 0 {
		return fmt.Errorf("profio: temporal sidecar has zero window width")
	}
	e.indexNodes()
	byIndex := func(a, b *cct.TimeWindow) int { return cmp.Compare(a.Index, b.Index) }
	for i := range ts.Windows {
		e.wins = append(e.wins, &ts.Windows[i])
	}
	if !slices.IsSortedFunc(e.wins, byIndex) {
		slices.SortFunc(e.wins, byIndex)
	}
	numWindows := 0
	for i, w := range e.wins {
		if i == 0 || w.Index != e.wins[i-1].Index {
			numWindows++
		}
	}

	e.out = binary.LittleEndian.AppendUint32(e.out, TemporalMagic)
	start := e.beginSection()
	out := binary.AppendUvarint(e.out, ts.Width)
	out = binary.AppendUvarint(out, uint64(numWindows))
	prevWin := uint64(0)
	for lo := 0; lo < len(e.wins); {
		index := e.wins[lo].Index
		e.ents = e.ents[:0]
		for ; lo < len(e.wins) && e.wins[lo].Index == index; lo++ {
			deltas := e.wins[lo].Deltas
			for di := range deltas {
				d := &deltas[di]
				if int(d.Class) >= cct.NumClasses {
					return fmt.Errorf("profio: temporal delta class %d out of range", d.Class)
				}
				pos, ok := e.position(d.Node)
				if !ok || pos < e.off[d.Class] || pos >= e.off[d.Class+1] {
					return fmt.Errorf("profio: temporal delta references a node outside the %v tree", d.Class)
				}
				e.ents = append(e.ents, sideEntry{uint64(d.Class)<<32 | uint64(pos-e.off[d.Class]), d})
			}
		}
		slices.SortFunc(e.ents, func(a, b sideEntry) int { return cmp.Compare(a.key, b.key) })
		numEntries := 0
		for i := range e.ents {
			if i == 0 || e.ents[i].key != e.ents[i-1].key {
				numEntries++
			}
		}

		out = binary.AppendUvarint(out, index-prevWin)
		prevWin = index
		out = binary.AppendUvarint(out, uint64(numEntries))
		prevKey := uint64(0)
		var sum metric.Vector
		for i := 0; i < len(e.ents); {
			key, v := e.ents[i].key, &e.ents[i].d.Metrics
			if i++; i < len(e.ents) && e.ents[i].key == key {
				sum = *v
				for ; i < len(e.ents) && e.ents[i].key == key; i++ {
					sum.Add(&e.ents[i].d.Metrics)
				}
				v = &sum
			}
			// The node index is absolute when the class changes, else a
			// delta from the previous entry's.
			out = append(out, byte(key>>32))
			if key>>32 == prevKey>>32 {
				out = binary.AppendUvarint(out, key-prevKey)
			} else {
				out = binary.AppendUvarint(out, key&(1<<32-1))
			}
			prevKey = key
			out = appendSparse(out, v)
		}
	}
	e.out = out
	e.endSection(start)
	return nil
}

// position returns n's place in e.nodes.
func (e *encoder) position(n *cct.Node) (int, bool) {
	for h := e.slot(n); e.table[h].n != nil; h = (h + 1) & uint64(len(e.table)-1) {
		if e.table[h].n == n {
			return int(e.table[h].pos), true
		}
	}
	return 0, false
}

// stagedWin is one staged sidecar window: its index and how many of the
// flat staged deltas belong to it.
type stagedWin struct {
	index uint64
	n     int
}

// stagedDelta is one staged sidecar entry; node is a pre-order index into
// its class tree.
type stagedDelta struct {
	metrics metric.Vector
	node    uint32
	class   cct.Class
}

// seriesStage is the sidecar decoder, in the same two steps as the tree
// decoder (stage.go): stage parses a payload into reusable scratch under
// every structural check, touching no node; resolve turns the staged
// entries into a cct.TimeSeries against the node arrays of whichever
// trees the file was applied to.
type seriesStage struct {
	width  uint64
	wins   []stagedWin
	deltas []stagedDelta

	// The resolved form, reused from file to file. out is its own
	// allocation so that a profile keeping the series does not keep the
	// decoder alive.
	out *cct.TimeSeries
	td  []cct.TimeDelta
}

// stage parses a sidecar payload. counts holds the node count of each
// class tree the entries may reference (zero for a lost tree). Every
// structural claim is validated; an error means the sidecar is dropped
// (the profile loads windowless), never that the reader panics or
// over-allocates — scratch grows with the entries actually present.
func (s *seriesStage) stage(b []byte, counts *[cct.NumClasses]int) error {
	return asTruncated(s.parse(b, counts))
}

func (s *seriesStage) parse(b []byte, counts *[cct.NumClasses]int) error {
	s.wins, s.deltas = s.wins[:0], s.deltas[:0]
	width, off, err := uvarint(b, 0)
	if err != nil {
		return fmt.Errorf("reading width: %w", err)
	}
	if width == 0 {
		return fmt.Errorf("zero window width")
	}
	numWindows, off, err := uvarint(b, off)
	if err != nil {
		return fmt.Errorf("reading window count: %w", err)
	}
	if numWindows > maxWindowSpan {
		return fmt.Errorf("unreasonable window count %d", numWindows)
	}
	s.width = width
	var firstIdx, prevIdx uint64
	for wi := uint64(0); wi < numWindows; wi++ {
		var delta, numEntries uint64
		if delta, off, err = uvarint(b, off); err != nil {
			return fmt.Errorf("window %d: reading index: %w", wi, err)
		}
		var idx uint64
		if wi == 0 {
			idx = delta
			firstIdx = idx
		} else {
			if delta == 0 {
				return fmt.Errorf("window %d: non-ascending index", wi)
			}
			idx = prevIdx + delta
			if idx < prevIdx {
				return fmt.Errorf("window %d: index overflows", wi)
			}
		}
		prevIdx = idx
		if idx-firstIdx > maxWindowSpan {
			return fmt.Errorf("window %d: unreasonable window span %d", wi, idx-firstIdx)
		}
		if numEntries, off, err = uvarint(b, off); err != nil {
			return fmt.Errorf("window %d: reading entry count: %w", wi, err)
		}
		if numEntries > maxSection {
			return fmt.Errorf("window %d: unreasonable entry count %d", wi, numEntries)
		}
		var prevClass cct.Class
		var prevNodeIdx uint32
		for ei := uint64(0); ei < numEntries; ei++ {
			if off >= len(b) {
				return fmt.Errorf("window %d entry %d: reading class: %w", wi, ei, errShort)
			}
			class := cct.Class(b[off])
			off++
			if int(class) >= cct.NumClasses {
				return fmt.Errorf("window %d entry %d: class %d out of range", wi, ei, class)
			}
			var rawIdx uint64
			if rawIdx, off, err = uvarint(b, off); err != nil {
				return fmt.Errorf("window %d entry %d: reading node index: %w", wi, ei, err)
			}
			var nodeIdx uint64
			if ei > 0 && class == prevClass {
				if rawIdx == 0 {
					return fmt.Errorf("window %d entry %d: non-ascending node index", wi, ei)
				}
				nodeIdx = uint64(prevNodeIdx) + rawIdx
				if nodeIdx < rawIdx {
					return fmt.Errorf("window %d entry %d: node index overflows", wi, ei)
				}
			} else {
				if ei > 0 && class < prevClass {
					return fmt.Errorf("window %d entry %d: class order violation", wi, ei)
				}
				nodeIdx = rawIdx
			}
			if nodeIdx >= uint64(counts[class]) {
				return fmt.Errorf("window %d entry %d: node index %d out of range for %v tree (%d nodes)",
					wi, ei, nodeIdx, class, counts[class])
			}
			prevClass, prevNodeIdx = class, uint32(nodeIdx)
			d := stagedDelta{class: class, node: uint32(nodeIdx)}
			if off >= len(b) {
				return fmt.Errorf("window %d entry %d: reading metric count: %w", wi, ei, errShort)
			}
			nz := int(b[off])
			off++
			if nz > int(metric.NumMetrics) {
				return fmt.Errorf("window %d entry %d: metric count %d out of range", wi, ei, nz)
			}
			for k := 0; k < nz; k++ {
				if off >= len(b) {
					return fmt.Errorf("window %d entry %d: reading metric id: %w", wi, ei, errShort)
				}
				id := b[off]
				off++
				if int(id) >= int(metric.NumMetrics) {
					return fmt.Errorf("window %d entry %d: metric id %d out of range", wi, ei, id)
				}
				var v uint64
				if v, off, err = uvarint(b, off); err != nil {
					return fmt.Errorf("window %d entry %d: reading metric value: %w", wi, ei, err)
				}
				d.metrics[id] += v
			}
			s.deltas = append(s.deltas, d)
		}
		s.wins = append(s.wins, stagedWin{index: idx, n: int(numEntries)})
	}
	if off != len(b) {
		return fmt.Errorf("trailing bytes in temporal section")
	}
	return nil
}

// resolve builds the staged sidecar's cct.TimeSeries against the given
// per-class pre-order node arrays, reusing the previous result's storage.
// It returns nil for a sidecar without windows.
func (s *seriesStage) resolve(nodes *[cct.NumClasses][]*cct.Node) *cct.TimeSeries {
	if len(s.wins) == 0 {
		return nil
	}
	if s.out == nil {
		s.out = new(cct.TimeSeries)
	}
	s.td = s.td[:0]
	for i := range s.deltas {
		d := &s.deltas[i]
		s.td = append(s.td, cct.TimeDelta{Class: d.class, Node: nodes[d.class][d.node], Metrics: d.metrics})
	}
	s.out.Width = s.width
	s.out.Windows = s.out.Windows[:0]
	next := 0
	for _, w := range s.wins {
		s.out.Windows = append(s.out.Windows, cct.TimeWindow{Index: w.index, Deltas: s.td[next : next+w.n : next+w.n]})
		next += w.n
	}
	return s.out
}

// decodeTimeSeries is stage and resolve in one step, for the row reader,
// which has already built the trees the sidecar refers to.
func decodeTimeSeries(payload []byte, classNodes *[cct.NumClasses][]*cct.Node) (*cct.TimeSeries, error) {
	var counts [cct.NumClasses]int
	for c, nodes := range classNodes {
		counts[c] = len(nodes)
	}
	var s seriesStage
	if err := s.stage(payload, &counts); err != nil {
		return nil, err
	}
	return s.resolve(classNodes), nil
}
