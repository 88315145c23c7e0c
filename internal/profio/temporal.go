package profio

// Temporal sidecar codec: the optional trailer section of a v2 or v3 file
// that persists a profile's cct.TimeSeries.
//
// The sidecar rides AFTER the footer as a tagged trailer section:
//
//	u32 section magic ("DCPC")   uvarint payloadLen · payload · u32 CRC32
//
// so a file remains exactly its old self up to and including the
// footer. Readers that predate trailers stop at the footer; this reader
// scans trailers until EOF, decoding the magics it knows and skipping
// (after checksum verification) the ones it does not — the same
// forward-compatibility seam future sidecars can use.
//
// Payload layout (all varints unsigned LEB128):
//
//	uvarint rawLen                     length of the column block
//	DEFLATE(column block)              compress/flate at BestSpeed, padded
//	                                   with empty stored blocks when staging
//	                                   it would cost more than maxStage×
//	                                   the stream (stageCost)
//
// Column block:
//
//	uvarint width                      window width in sim cycles
//	uvarint nodes × NumClasses         each class tree's node count
//	uvarint numRuns
//	per run of consecutive windows:
//	  uvarint gap                      first run: its first window index;
//	                                   later runs: empty windows since the
//	                                   previous run (≥ 1)
//	  uvarint length                   windows in the run (≥ 1)
//	per window: uvarint numEntries
//	per window, per entry (ascending):
//	  uvarint ref                      file-wide pre-order position: the
//	                                   first entry zig-zagged against the
//	                                   previous window's first, later ones
//	                                   delta from the previous entry (≥ 1)
//	per entry: uvarint mask            bit m set: metric m has a value
//	per metric m, per entry with bit m: uvarint value
//
// A file-wide position is a node's pre-order index in its class tree plus
// the node counts of the class trees before it — the order the tree
// sections themselves are written in — so the decoder resolves entries
// against the nodes it just built and the sidecar stores no paths and no
// class bytes at all. The node counts let a decoder that lost a tree
// still tell which class a position falls in, and reject the entries
// that fall in the lost one.
//
// "DCPT" is the row encoding the column block replaced: per window an
// index delta and an entry count, per entry a class byte, a per-class
// node index delta and a `byte nnz · {byte metricID, uvarint value}×nnz`
// vector. It is still read, into the same staged columns; nothing writes
// it.

import (
	"bytes"
	"cmp"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"unsafe"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// TemporalMagic tags the temporal-sidecar trailer section ("DCPC"): the
// deflated column block.
const TemporalMagic = 0x44435043

// TemporalRowsMagic tags the row-encoded sidecar ("DCPT") earlier writers
// produced. It is read, never written.
const TemporalRowsMagic = 0x44435054

// maxWindowSpan bounds the distance between a sidecar's first and last
// window index — a sanity cap on how sparse a corrupt-but-checksummed
// series may claim to be. Downstream consumers must not rely on it for
// memory safety: it is relative to each file's own first window, so the
// merged span across files is unbounded, and temporal.Index therefore
// works over the sparse window list, never a densified range.
const maxWindowSpan = 1 << 26

// maxStage caps what staging a deflated sidecar may hold per byte of its
// deflate stream: the inflated column block plus the columns staged from
// it (stageCost). The decoder checks the block length before inflating and
// each column's count before allocating it, so a hostile sidecar makes it
// hold at most maxStage× its own size; the encoder pads a stream that
// compresses better than that rather than write one it would reject.
// Dense sidecars come close: collect_dense's would stage at about 18×
// their stream, so the encoder pads them by about a tenth.
const maxStage = 16

// stageCost is what the decoder holds once it has staged a column block
// of rawLen bytes: the block, and per window its index and entry count, per
// entry a 4-byte position and a 2-byte mask, per value 8 bytes.
func stageCost(rawLen, windows, entries, values uint64) uint64 {
	return rawLen + uint64(unsafe.Sizeof(stagedWin{}))*windows + 6*entries + 8*values
}

// Column-block sections the encoder builds side by side and deflates in
// order: the window header (width, tree sizes, runs, entry counts), the
// node references, the presence masks, then one value column per metric.
const (
	colHeader = iota
	colRefs
	colMasks
	colValues
	numCols = colValues + int(metric.NumMetrics)
)

// slot hashes a node's address, which for the heap objects nodes are does
// not change, into the encoder's node → position table: open addressing,
// each slot holding a position in e.nodes plus one (zero is empty).
func (e *encoder) slot(n *cct.Node) uint64 {
	return uint64(uintptr(unsafe.Pointer(n))) * 0x9E3779B97F4A7C15 >> e.shift
}

// indexNodes fills the table with every linearised node's position.
func (e *encoder) indexNodes() {
	size := 1 << bits.Len(uint(2*len(e.nodes)))
	if cap(e.table) < size {
		e.table = make([]uint32, size)
	}
	e.table = e.table[:size]
	e.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for pos, n := range e.nodes {
		h := e.slot(n)
		for e.table[h] != 0 {
			h = (h + 1) & uint64(size-1)
		}
		e.table[h] = uint32(pos) + 1
	}
}

// sideEntry is one delta of the window being encoded — delta i of window
// w — keyed by its file-wide pre-order position, so that one integer sort
// gives the format's entry order.
type sideEntry struct {
	key uint64
	w   *cct.TimeWindow
	i   int
}

// sidecar appends ts as the tagged temporal trailer. Windows are taken in
// index order and each index's deltas sorted by position once, adjacent
// equal positions summing into one entry — which is also all that a
// re-opened (duplicate) window needs. The recorder and the decoder both
// hand over ascending windows, so the window sort is normally skipped.
func (e *encoder) sidecar(ts *cct.TimeSeries) error {
	if ts.Width == 0 {
		return fmt.Errorf("profio: temporal sidecar has zero window width")
	}
	e.indexNodes()
	byIndex := func(a, b *cct.TimeWindow) int { return cmp.Compare(a.Index, b.Index) }
	e.wins = grow(e.wins, len(ts.Windows))
	for i := range ts.Windows {
		e.wins = append(e.wins, &ts.Windows[i])
	}
	if !slices.IsSortedFunc(e.wins, byIndex) {
		slices.SortFunc(e.wins, byIndex)
	}
	for i := range e.cols {
		e.cols[i] = e.cols[i][:0]
	}

	hdr := binary.AppendUvarint(e.cols[colHeader], ts.Width)
	for c := 0; c < cct.NumClasses; c++ {
		hdr = binary.AppendUvarint(hdr, uint64(e.off[c+1]-e.off[c]))
	}
	// Runs of consecutive window indices; a repeated index continues its
	// run.
	numRuns, windows := 0, uint64(0)
	for i, w := range e.wins {
		if i == 0 || (w.Index != e.wins[i-1].Index && w.Index != e.wins[i-1].Index+1) {
			numRuns++
		}
		if i == 0 || w.Index != e.wins[i-1].Index {
			windows++
		}
	}
	hdr = binary.AppendUvarint(hdr, uint64(numRuns))
	for i := 0; i < len(e.wins); {
		start := e.wins[i].Index
		if i == 0 {
			hdr = binary.AppendUvarint(hdr, start)
		} else {
			hdr = binary.AppendUvarint(hdr, start-e.wins[i-1].Index-1)
		}
		end := start
		for ; i < len(e.wins) && (e.wins[i].Index == end || e.wins[i].Index == end+1); i++ {
			end = e.wins[i].Index
		}
		hdr = binary.AppendUvarint(hdr, end-start+1)
	}

	refs, masks := e.cols[colRefs], e.cols[colMasks]
	prevFirst, entries, values := uint64(0), uint64(0), uint64(0)
	for lo := 0; lo < len(e.wins); {
		index := e.wins[lo].Index
		e.ents = e.ents[:0]
		for ; lo < len(e.wins) && e.wins[lo].Index == index; lo++ {
			w := e.wins[lo]
			for di := range w.Deltas {
				d := &w.Deltas[di]
				if int(d.Class) >= cct.NumClasses {
					return fmt.Errorf("profio: temporal delta class %d out of range", d.Class)
				}
				pos, ok := e.position(d.Node)
				if !ok || pos < e.off[d.Class] || pos >= e.off[d.Class+1] {
					return fmt.Errorf("profio: temporal delta references a node outside the %v tree", d.Class)
				}
				e.ents = append(e.ents, sideEntry{uint64(pos), w, di})
			}
		}
		slices.SortFunc(e.ents, func(a, b sideEntry) int { return cmp.Compare(a.key, b.key) })
		numEntries := 0
		for i := range e.ents {
			if i == 0 || e.ents[i].key != e.ents[i-1].key {
				numEntries++
			}
		}
		hdr = binary.AppendUvarint(hdr, uint64(numEntries))
		entries += uint64(numEntries)
		refs = grow(refs, numEntries*binary.MaxVarintLen32)
		masks = grow(masks, numEntries*binary.MaxVarintLen16)
		for m := colValues; m < numCols; m++ {
			e.cols[m] = grow(e.cols[m], numEntries*binary.MaxVarintLen64)
		}

		for i := 0; i < len(e.ents); {
			key, v := e.ents[i].key, e.ents[i].w.Metrics(e.ents[i].i)
			// The first entry of a window is zig-zagged against the
			// previous window's first, later ones delta-coded.
			if i == 0 {
				refs = binary.AppendUvarint(refs, zigzag(int64(key)-int64(prevFirst)))
				prevFirst = key
			} else {
				refs = binary.AppendUvarint(refs, key-e.ents[i-1].key)
			}
			for i++; i < len(e.ents) && e.ents[i].key == key; i++ {
				o := e.ents[i].w.Metrics(e.ents[i].i)
				v.Add(&o)
			}
			mask := uint64(0)
			for m, x := range v {
				if x != 0 {
					mask |= 1 << m
					e.cols[colValues+m] = binary.AppendUvarint(e.cols[colValues+m], x)
				}
			}
			masks = binary.AppendUvarint(masks, mask)
			values += uint64(bits.OnesCount64(mask))
		}
	}
	e.cols[colHeader], e.cols[colRefs], e.cols[colMasks] = hdr, refs, masks

	rawLen := 0
	for _, col := range e.cols {
		rawLen += len(col)
	}
	e.out = binary.LittleEndian.AppendUint32(e.out, TemporalMagic)
	start := e.beginSection()
	e.out = binary.AppendUvarint(e.out, uint64(rawLen))
	cost := stageCost(uint64(rawLen), windows, entries, values)
	e.deflate(len(e.out), int((cost+maxStage-1)/maxStage))
	e.endSection(start)
	return nil
}

// deflate compresses the column block onto e.out, whose deflate stream
// starts at body, through the encoder's pooled writer. Before closing the
// stream it sync-flushes until the stream holds at least least bytes:
// each flush ends the current block and adds an empty stored one, which
// inflates to nothing.
func (e *encoder) deflate(body, least int) {
	if e.fw == nil {
		e.fw, _ = flate.NewWriter(e, flate.BestSpeed) // a valid level: no error
	} else {
		e.fw.Reset(e)
	}
	// e.Write cannot fail, so neither can the writer.
	for _, col := range e.cols {
		_, _ = e.fw.Write(col)
	}
	for len(e.out)-body < least {
		_ = e.fw.Flush()
	}
	_ = e.fw.Close()
}

// Write appends b to the image: the sink the sidecar's deflate writes into.
func (e *encoder) Write(b []byte) (int, error) {
	e.out = append(grow(e.out, len(b)), b...)
	return len(b), nil
}

// position returns n's place in e.nodes.
func (e *encoder) position(n *cct.Node) (int, bool) {
	for h := e.slot(n); e.table[h] != 0; h = (h + 1) & uint64(len(e.table)-1) {
		if pos := int(e.table[h]) - 1; e.nodes[pos] == n {
			return pos, true
		}
	}
	return 0, false
}

// stagedWin is one staged sidecar window: its index and how many of the
// staged entries belong to it.
type stagedWin struct {
	index uint64
	n     int
}

// seriesStage is the sidecar decoder, in the same two steps as the tree
// decoder (stage.go): stage parses a payload into reusable columns under
// every structural check, touching no node; resolve turns the staged
// columns into a cct.TimeSeries against the node arrays of whichever trees
// the file was applied to. Both encodings stage into the same columns.
type seriesStage struct {
	width uint64
	wins  []stagedWin
	// base[c] is the file-wide position of class c's root; base[NumClasses]
	// the total node count.
	base [cct.NumClasses + 1]uint64
	// Per entry, in window order: its file-wide position and which metrics
	// it carries.
	refs  []uint32
	masks []uint16
	// The value columns, metric by metric: column m is vals[col[m]:col[m+1]],
	// one value per entry whose mask has bit m, in entry order.
	vals []uint64
	col  [metric.NumMetrics + 1]int

	// Inflate scratch: the column block, the reader over the deflated
	// bytes and the inflater, all reused from file to file.
	raw []byte
	src bytes.Reader
	fr  io.ReadCloser
	// tmp is the row parser's entry-major values before they are
	// transposed into columns.
	tmp []uint64

	// The resolved form, reused from file to file: the deltas and their
	// values, entry by entry. out is its own allocation so that a profile
	// keeping the series does not keep the decoder alive.
	out *cct.TimeSeries
	td  []cct.TimeDelta
	tv  []uint64
}

// stage parses a sidecar payload tagged magic. counts holds the node
// count of each class tree the entries may reference (zero for a lost
// tree). Every structural claim is validated; an error means the sidecar
// is dropped (the profile loads windowless), never that the reader panics
// or over-allocates — what it stages is bounded by the bytes present
// (maxStage for the column block).
func (s *seriesStage) stage(magic uint32, b []byte, counts *[cct.NumClasses]int) error {
	s.wins, s.refs, s.masks, s.vals = s.wins[:0], s.refs[:0], s.masks[:0], s.vals[:0]
	if magic == TemporalRowsMagic {
		return asTruncated(s.parseRows(b, counts))
	}
	return asTruncated(s.parseDeflated(b, counts))
}

// parseDeflated checks the declared block length against the deflated
// bytes, inflates, and parses the column block.
func (s *seriesStage) parseDeflated(b []byte, counts *[cct.NumClasses]int) error {
	rawLen, off, err := uvarint(b, 0)
	if err != nil {
		return fmt.Errorf("reading block length: %w", err)
	}
	budget := maxStage * uint64(len(b)-off)
	if rawLen > maxSection || stageCost(rawLen, 0, 0, 0) > budget {
		return fmt.Errorf("column block of %d bytes claimed for %d deflated bytes", rawLen, len(b)-off)
	}
	if err := s.inflate(b[off:], int(rawLen)); err != nil {
		return err
	}
	return s.parseColumns(s.raw, counts, budget)
}

// inflate decompresses z into s.raw, which must come to exactly n bytes.
// The buffer is allocated at n, which the staging cap has already bounded;
// growing it with the output, fourfold at a time, would allocate up to
// 2.3× n in all, past the cap.
func (s *seriesStage) inflate(z []byte, n int) error {
	s.src.Reset(z)
	if s.fr == nil {
		s.fr = flate.NewReader(&s.src)
	} else if err := s.fr.(flate.Resetter).Reset(&s.src, nil); err != nil {
		return err
	}
	if cap(s.raw) < n {
		s.raw = make([]byte, n)
	}
	s.raw = s.raw[:n]
	if k, err := io.ReadFull(s.fr, s.raw); err != nil {
		return fmt.Errorf("column block inflates to %d bytes, declared %d: %w", k, n, err)
	}
	// n bytes in: the stream must end here.
	var probe [1]byte
	if k, err := s.fr.Read(probe[:]); k > 0 {
		return fmt.Errorf("column block inflates past its declared %d bytes", n)
	} else if err != io.EOF {
		return fmt.Errorf("inflating column block: %w", err)
	}
	if s.src.Len() != 0 {
		return fmt.Errorf("%d trailing bytes after the deflate stream", s.src.Len())
	}
	return nil
}

// setBase lays the class trees end to end: base[c] is where class c's
// file-wide positions start.
func (s *seriesStage) setBase(sizes *[cct.NumClasses]uint64) {
	for c, n := range sizes {
		s.base[c+1] = s.base[c] + n
	}
}

// classOf returns the class whose position range holds pos < base[NumClasses].
func (s *seriesStage) classOf(pos uint64) int {
	c := 0
	for pos >= s.base[c+1] {
		c++
	}
	return c
}

// sized returns s emptied, with room for n elements: a new slice of
// exactly n when it has less. Unlike slices.Grow it allocates nothing
// beside the column in any build, so staging stays within its budget.
func sized[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, 0, n)
	}
	return s[:0]
}

// parseColumns stages an inflated column block. Each column is counted
// before it is allocated, at its size, and only if the block's stageCost
// stays within budget.
func (s *seriesStage) parseColumns(b []byte, counts *[cct.NumClasses]int, budget uint64) error {
	overBudget := func(windows, entries, values uint64) error {
		if stageCost(uint64(len(b)), windows, entries, values) > budget {
			return fmt.Errorf("%d windows, %d entries and %d values in %d deflated bytes: over the %d× staging cap",
				windows, entries, values, budget/maxStage, maxStage)
		}
		return nil
	}
	width, off, err := uvarint(b, 0)
	if err != nil {
		return fmt.Errorf("reading width: %w", err)
	}
	if width == 0 {
		return fmt.Errorf("zero window width")
	}
	s.width = width
	var sizes [cct.NumClasses]uint64
	for c := range sizes {
		if sizes[c], off, err = uvarint(b, off); err != nil {
			return fmt.Errorf("reading %v tree size: %w", cct.Class(c), err)
		}
		if sizes[c] == 0 || sizes[c] > 1<<28 {
			return fmt.Errorf("unreasonable %v tree size %d", cct.Class(c), sizes[c])
		}
		if counts[c] != 0 && sizes[c] != uint64(counts[c]) {
			return fmt.Errorf("written for a %v tree of %d nodes, file has %d", cct.Class(c), sizes[c], counts[c])
		}
	}
	s.setBase(&sizes)
	total := s.base[cct.NumClasses]

	// Windows, from their runs: the runs are read once to count the
	// windows and again to stage them. Every window costs at least its
	// entry count's byte, so the block's length bounds how many there can
	// be.
	numRuns, runs, err := uvarint(b, off)
	if err != nil {
		return fmt.Errorf("reading run count: %w", err)
	}
	windows := uint64(0)
	for pass := 0; pass < 2; pass++ {
		off = runs
		var first, last, seen uint64
		for r := uint64(0); r < numRuns; r++ {
			var gap, length uint64
			if gap, off, err = uvarint(b, off); err != nil {
				return fmt.Errorf("run %d: reading start: %w", r, err)
			}
			if length, off, err = uvarint(b, off); err != nil {
				return fmt.Errorf("run %d: reading length: %w", r, err)
			}
			if length == 0 || length > uint64(len(b))-seen {
				return fmt.Errorf("run %d: unreasonable length %d", r, length)
			}
			start := gap
			if r == 0 {
				first = start
			} else {
				if gap == 0 {
					return fmt.Errorf("run %d: touches the previous run", r)
				}
				if start = last + gap + 1; start <= last {
					return fmt.Errorf("run %d: index overflows", r)
				}
			}
			if last = start + length - 1; last < start || last-first > maxWindowSpan {
				return fmt.Errorf("run %d: unreasonable window span", r)
			}
			if seen += length; pass == 0 {
				continue
			}
			for i := start; ; i++ {
				s.wins = append(s.wins, stagedWin{index: i})
				if i == last {
					break
				}
			}
		}
		if windows = seen; pass == 0 {
			if err := overBudget(windows, 0, 0); err != nil {
				return err
			}
			s.wins = sized(s.wins, int(windows))
		}
	}
	// Entry counts. Every entry costs at least a reference byte and a mask
	// byte.
	entries := uint64(0)
	for i := range s.wins {
		var n uint64
		if n, off, err = uvarint(b, off); err != nil {
			return fmt.Errorf("window %d: reading entry count: %w", s.wins[i].index, err)
		}
		if entries += n; n > uint64(len(b)) || 2*entries > uint64(len(b)-off) {
			return fmt.Errorf("window %d: unreasonable entry count %d", s.wins[i].index, n)
		}
		s.wins[i].n = int(n)
	}
	if err := overBudget(windows, entries, 0); err != nil {
		return err
	}

	// Node references.
	s.refs = sized(s.refs, int(entries))
	prevFirst := uint64(0)
	for i := range s.wins {
		var pos uint64
		for k := 0; k < s.wins[i].n; k++ {
			var u uint64
			if u, off, err = uvarint(b, off); err != nil {
				return fmt.Errorf("window %d: reading entry %d: %w", s.wins[i].index, k, err)
			}
			if k == 0 {
				d := unzigzag(u)
				if d < -int64(prevFirst) || d >= int64(total-prevFirst) {
					return fmt.Errorf("window %d: node position out of range", s.wins[i].index)
				}
				pos = uint64(int64(prevFirst) + d)
				prevFirst = pos
			} else {
				if u == 0 || u >= total-pos {
					return fmt.Errorf("window %d entry %d: node position not ascending or out of range", s.wins[i].index, k)
				}
				pos += u
			}
			if c := s.classOf(pos); counts[c] == 0 {
				return fmt.Errorf("window %d entry %d: references the lost %v tree", s.wins[i].index, k, cct.Class(c))
			}
			s.refs = append(s.refs, uint32(pos))
		}
	}

	// Masks, then the value columns they size.
	s.masks = sized(s.masks, int(entries))
	var per [metric.NumMetrics]int
	for i := uint64(0); i < entries; i++ {
		var u uint64
		if u, off, err = uvarint(b, off); err != nil {
			return fmt.Errorf("entry %d: reading mask: %w", i, err)
		}
		if u >= 1<<metric.NumMetrics {
			return fmt.Errorf("entry %d: mask %#x names an unknown metric", i, u)
		}
		for x := u; x != 0; x &= x - 1 {
			per[bits.TrailingZeros64(x)]++
		}
		s.masks = append(s.masks, uint16(u))
	}
	for m, n := range per {
		s.col[m+1] = s.col[m] + n
	}
	nv := s.col[metric.NumMetrics]
	if nv > len(b)-off {
		return fmt.Errorf("%d metric values claimed, %w", nv, errShort)
	}
	if err := overBudget(windows, entries, uint64(nv)); err != nil {
		return err
	}
	s.vals = sized(s.vals, nv)
	for i := 0; i < nv; i++ {
		var v uint64
		if v, off, err = uvarint(b, off); err != nil {
			return fmt.Errorf("reading metric value: %w", err)
		}
		s.vals = append(s.vals, v)
	}
	if off != len(b) {
		return fmt.Errorf("trailing bytes in temporal section")
	}
	return nil
}

// parseRows stages a "DCPT" row payload into the same columns: each
// entry's class and per-class index become a file-wide position, its
// metric ids a mask, and its values — gathered entry by entry — are
// transposed into per-metric columns at the end.
func (s *seriesStage) parseRows(b []byte, counts *[cct.NumClasses]int) error {
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
	var sizes [cct.NumClasses]uint64
	for c, n := range counts {
		sizes[c] = uint64(n)
	}
	s.setBase(&sizes)
	s.tmp = s.tmp[:0]
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
			if off >= len(b) {
				return fmt.Errorf("window %d entry %d: reading metric count: %w", wi, ei, errShort)
			}
			nz := int(b[off])
			off++
			if nz > int(metric.NumMetrics) {
				return fmt.Errorf("window %d entry %d: metric count %d out of range", wi, ei, nz)
			}
			var v metric.Vector
			for k := 0; k < nz; k++ {
				if off >= len(b) {
					return fmt.Errorf("window %d entry %d: reading metric id: %w", wi, ei, errShort)
				}
				id := b[off]
				off++
				if int(id) >= int(metric.NumMetrics) {
					return fmt.Errorf("window %d entry %d: metric id %d out of range", wi, ei, id)
				}
				var x uint64
				if x, off, err = uvarint(b, off); err != nil {
					return fmt.Errorf("window %d entry %d: reading metric value: %w", wi, ei, err)
				}
				v[id] += x
			}
			mask := uint16(0)
			for m, x := range v {
				if x != 0 {
					mask |= 1 << m
					s.tmp = append(s.tmp, x)
				}
			}
			s.refs = append(s.refs, uint32(s.base[class]+nodeIdx))
			s.masks = append(s.masks, mask)
		}
		s.wins = append(s.wins, stagedWin{index: idx, n: int(numEntries)})
	}
	if off != len(b) {
		return fmt.Errorf("trailing bytes in temporal section")
	}

	// Transpose the entry-major values into per-metric columns.
	var per [metric.NumMetrics]int
	for _, mask := range s.masks {
		for x := mask; x != 0; x &= x - 1 {
			per[bits.TrailingZeros16(x)]++
		}
	}
	for m, n := range per {
		s.col[m+1] = s.col[m] + n
	}
	s.vals = slices.Grow(s.vals, len(s.tmp))[:len(s.tmp)]
	cur := s.col
	j := 0
	for _, mask := range s.masks {
		for x := mask; x != 0; x &= x - 1 {
			m := bits.TrailingZeros16(x)
			s.vals[cur[m]] = s.tmp[j]
			cur[m]++
			j++
		}
	}
	return nil
}

// resolve builds the staged sidecar's cct.TimeSeries against the given
// per-class pre-order node arrays, reusing the previous result's storage.
// It is the one place staged entries become TimeDeltas: each keeps its
// staged mask, and its values are gathered from the metric columns into
// entry order. It returns nil for a sidecar without windows.
func (s *seriesStage) resolve(nodes *[cct.NumClasses][]*cct.Node) *cct.TimeSeries {
	if len(s.wins) == 0 {
		return nil
	}
	if s.out == nil {
		s.out = new(cct.TimeSeries)
	}
	s.td = slices.Grow(s.td[:0], len(s.refs))[:len(s.refs)]
	s.tv = slices.Grow(s.tv[:0], len(s.vals))[:len(s.vals)]
	s.out.Width = s.width
	s.out.Windows = s.out.Windows[:0]
	cur := s.col
	next, nv := 0, 0
	for _, w := range s.wins {
		v0 := nv
		for i := next; i < next+w.n; i++ {
			pos := uint64(s.refs[i])
			c := s.classOf(pos)
			s.td[i] = cct.TimeDelta{Node: nodes[c][pos-s.base[c]], Off: uint32(nv - v0), Mask: s.masks[i], Class: cct.Class(c)}
			for x := s.masks[i]; x != 0; x &= x - 1 {
				m := bits.TrailingZeros16(x)
				s.tv[nv] = s.vals[cur[m]]
				cur[m]++
				nv++
			}
		}
		s.out.Windows = append(s.out.Windows, cct.TimeWindow{
			Index:  w.index,
			Deltas: s.td[next : next+w.n : next+w.n],
			Vals:   s.tv[v0:nv:nv],
		})
		next += w.n
	}
	return s.out
}
