package profio

// Format v3: the compact columnar encoding. The framing is exactly v2's —
// magic, `uvarint len · payload · u32 CRC32` sections, counting footer,
// tagged trailers — so every integrity and salvage property carries over
// unchanged. What changes is what the payloads hold:
//
//	u32 magic "DCPF"            u32 version (3)
//	section: header
//	  uvarint rank · uvarint thread
//	  uvarint nStrings · (uvarint len · bytes)×nStrings
//	  uvarint eventIdx
//	  uvarint nFrames · (byte kind · uvarint module · uvarint name ·
//	                     uvarint file · uvarint line)×nFrames
//	section: tree ×NumClasses (columnar)
//	  uvarint count
//	  parent column: (count−1) × uvarint(i − parent_i)        gap ≥ 1
//	  frame column:  count × zigzag(frame_i − frame_{i−1})    frame_{−1} = 0
//	  metric columns: byte nCols · nCols × (byte metricID ·
//	                  uvarint nEntries · nEntries ×
//	                  (uvarint nodeIdxDelta · uvarint value))
//	u32 footer magic "DCPE"     uvarint total node records   u32 CRC32(count)
//	trailer ×N (optional)       — identical to v2
//
// Why this wins 2–4x over v2: a CCT repeats few distinct frames over many
// nodes, so v3 writes each frame's strings-and-line tuple once into a
// header frame table and each node becomes two or three delta varints
// (parent gap, frame-index delta) instead of a 4-byte parent index plus a
// full frame record. Metrics move from per-node sparse maps to per-metric
// columns, so the (overwhelmingly common) metric-less interior node costs
// zero metric bytes. Decode becomes table-driven: the frame table is
// interned once per file and every node record resolves by one slice
// index — no per-node string handling at all (stage.go, stageTree).
//
// Node pre-order indices are identical to v2's (both follow the
// deterministic tree Walk), so the temporal sidecar trailer is the same
// in both.

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// encoder is the write side, in the shape of the decoder it mirrors
// (stage.go): one walk linearises every class tree into reused pre-order
// columns, and header, tree sections, footer and sidecar are appended to
// one reused byte slice — length prefix patched in, one CRC pass per
// section — that the caller hands to a single Write. Encoders are pooled;
// a warm one allocates nothing.
type encoder struct {
	out []byte

	// The linearised trees: every class's nodes in Walk order, back to
	// back, class c at nodes[off[c]:off[c+1]]. parent and frame run
	// parallel to nodes: the parent's position in nodes (the class root:
	// its own) and the node's frame-table index. kids is linearise's
	// stack of sorted children.
	nodes  []*cct.Node
	parent []uint32
	frame  []uint32
	off    [cct.NumClasses + 1]int
	kids   []*cct.Node
	hot    []uint32 // one tree's nodes that carry a metric

	// The frame table in first-visit order, and the string table its
	// entries index. frameIdx maps a FrameID (dense, see cct.Interner) to
	// its table index + 1; zeroed again by reset.
	frames   []frameRec
	frameIdx []uint32
	strs     map[string]uint32
	strList  []string

	// Sidecar scratch (temporal.go): the node → position table, the
	// windows in index order, one index's deltas, the column block's
	// sections, and the deflate writer, made on first use.
	table []uint32
	shift uint
	wins  []*cct.TimeWindow
	ents  []sideEntry
	cols  [numCols][]byte
	fw    *flate.Writer
}

// frameRec is one frame-table entry: a frame by string-table indices.
type frameRec struct {
	id                 cct.FrameID
	kind               cct.Kind
	module, name, file uint32
	line               uint64
}

var encoderPool = sync.Pool{New: func() any { return &encoder{strs: make(map[string]uint32)} }}

// writeProfile encodes p and hands the image to w in one Write (none when
// w is nil). It returns the image's length.
func writeProfile(w io.Writer, p *cct.Profile) (int64, error) {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	return e.write(w, p)
}

// write is writeProfile on this encoder, which it leaves reset.
func (e *encoder) write(w io.Writer, p *cct.Profile) (int64, error) {
	defer e.reset()
	if err := e.encode(p); err != nil {
		return 0, err
	}
	if w != nil {
		if _, err := w.Write(e.out); err != nil {
			return 0, err
		}
	}
	return int64(len(e.out)), nil
}

// reset drops every reference the scratch holds into the encoded profile,
// so a pooled encoder pins only its own buffers.
func (e *encoder) reset() {
	for _, f := range e.frames {
		e.frameIdx[f.id] = 0
	}
	clear(e.nodes)
	clear(e.strList)
	clear(e.strs)
	clear(e.table)
	clear(e.wins)
	clear(e.kids[:cap(e.kids)])
	clear(e.ents[:cap(e.ents)])
	e.nodes, e.parent, e.frame = e.nodes[:0], e.parent[:0], e.frame[:0]
	e.frames, e.strList, e.table, e.wins = e.frames[:0], e.strList[:0], e.table[:0], e.wins[:0]
}

func (e *encoder) encode(p *cct.Profile) error {
	for c, t := range p.Trees {
		if t == nil || t.Root == nil {
			return fmt.Errorf("profio: profile has no %v tree", cct.Class(c))
		}
	}
	if cap(e.nodes) == 0 {
		// A new encoder sizes the columns by a count first: grown node by
		// node from nothing they would allocate two to four times their
		// final size. A warm one skips the walk, and doubles them when a
		// larger profile comes along.
		n := 0
		for _, t := range p.Trees {
			n += t.NumNodes()
		}
		e.nodes, e.parent, e.frame = make([]*cct.Node, 0, n), make([]uint32, 0, n), make([]uint32, 0, n)
	}
	for c, t := range p.Trees {
		e.off[c] = len(e.nodes)
		e.linearise(t.Root, uint32(len(e.nodes)))
	}
	e.off[cct.NumClasses] = len(e.nodes)
	event := e.intern(p.Event)

	e.out = binary.LittleEndian.AppendUint32(e.out[:0], Magic)
	e.out = binary.LittleEndian.AppendUint32(e.out, Version)

	// Header section: identification, string table, event, frame table.
	start := e.beginSection()
	out := binary.AppendUvarint(e.out, uint64(p.Rank))
	out = binary.AppendUvarint(out, uint64(p.Thread))
	out = binary.AppendUvarint(out, uint64(len(e.strList)))
	for _, s := range e.strList {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = binary.AppendUvarint(out, uint64(event))
	out = binary.AppendUvarint(out, uint64(len(e.frames)))
	for i := range e.frames {
		out = e.frames[i].append(out)
	}
	e.out = out
	e.endSection(start)

	for c := 0; c < cct.NumClasses; c++ {
		start := e.beginSection()
		e.treeColumns(e.off[c], e.off[c+1])
		e.endSection(start)
	}

	// Footer: magic, total node records, checksum of the count.
	e.out = binary.LittleEndian.AppendUint32(e.out, FooterMagic)
	cnt := len(e.out)
	e.out = binary.AppendUvarint(e.out, uint64(len(e.nodes)))
	e.out = binary.LittleEndian.AppendUint32(e.out, crc32.ChecksumIEEE(e.out[cnt:]))

	// Optional trailer: the temporal sidecar, referencing nodes by the
	// pre-order indices the tree sections above were just written in.
	if ts := p.Temporal; ts != nil && len(ts.Windows) > 0 {
		return e.sidecar(ts)
	}
	return nil
}

// linearise appends n's subtree to the columns in Walk order. The frame
// and string tables grow in first-visit order as it goes, which is the
// order the two-walk writers assigned.
func (e *encoder) linearise(n *cct.Node, parent uint32) {
	id := n.ID()
	if int(id) >= len(e.frameIdx) {
		e.frameIdx = append(e.frameIdx, make([]uint32, int(id)+1-len(e.frameIdx))...)
	}
	fi := e.frameIdx[id]
	if fi == 0 {
		f := n.Frame()
		e.frames = append(e.frames, frameRec{
			id: id, kind: f.Kind, line: uint64(int64(f.Line)),
			module: e.intern(f.Module), name: e.intern(f.Name), file: e.intern(f.File),
		})
		fi = uint32(len(e.frames))
		e.frameIdx[id] = fi
	}
	self := uint32(len(e.nodes))
	e.nodes = append(grow(e.nodes, 1), n)
	e.parent = append(grow(e.parent, 1), parent)
	e.frame = append(grow(e.frame, 1), fi-1)

	base := len(e.kids)
	e.kids = n.AppendChildren(e.kids)
	for i := base; i < len(e.kids); i++ {
		e.linearise(e.kids[i], self)
	}
	e.kids = e.kids[:base]
}

func (e *encoder) intern(s string) uint32 {
	i, ok := e.strs[s]
	if !ok {
		i = uint32(len(e.strList))
		e.strs[s] = i
		e.strList = append(e.strList, s)
	}
	return i
}

// append encodes one frame-table entry.
func (f *frameRec) append(out []byte) []byte {
	out = append(out, byte(f.kind))
	out = binary.AppendUvarint(out, uint64(f.module))
	out = binary.AppendUvarint(out, uint64(f.name))
	out = binary.AppendUvarint(out, uint64(f.file))
	return binary.AppendUvarint(out, f.line)
}

// sectionLenRoom is what beginSection reserves for the length prefix
// endSection patches in.
const sectionLenRoom = binary.MaxVarintLen64

// beginSection opens a `uvarint len · payload · u32 CRC32` section at the
// end of out; the payload is whatever is appended until endSection.
func (e *encoder) beginSection() int {
	start := len(e.out)
	e.out = append(e.out, make([]byte, sectionLenRoom)...)
	return start
}

// endSection closes the section opened at start: the payload moves down
// against its now-known length prefix and the checksum follows it.
func (e *encoder) endSection(start int) {
	payload := e.out[start+sectionLenRoom:]
	var prefix [sectionLenRoom]byte
	n := binary.PutUvarint(prefix[:], uint64(len(payload)))
	copy(e.out[start+n:], payload)
	copy(e.out[start:], prefix[:n])
	e.out = e.out[:start+n+len(payload)]
	e.out = binary.LittleEndian.AppendUint32(e.out, crc32.ChecksumIEEE(e.out[start+n:]))
	telWriteSections.Inc()
}

// treeColumns appends nodes[lo:hi] as one columnar v3 tree payload.
func (e *encoder) treeColumns(lo, hi int) {
	// Room for the tree up front: a v3 tree takes about five bytes a node.
	out := binary.AppendUvarint(grow(e.out, 8*(hi-lo)), uint64(hi-lo))
	// Parent column: pre-order guarantees parent(i) < i, so the gap is ≥ 1
	// and — along any call chain — exactly 1, a single byte.
	for i := lo + 1; i < hi; i++ {
		out = binary.AppendUvarint(out, uint64(i)-uint64(e.parent[i]))
	}
	// Frame column: frame-table indices, delta-coded in visit order.
	// Siblings sort by frame fields, so runs of near-equal indices are
	// common and the zigzag deltas stay short.
	prev := int64(0)
	for _, fi := range e.frame[lo:hi] {
		out = binary.AppendUvarint(out, zigzag(int64(fi)-prev))
		prev = int64(fi)
	}
	// Metric columns: one sparse (node index, value) run per metric that
	// appears anywhere in the tree, over the few nodes that carry any.
	var counts [metric.NumMetrics]int
	cols := 0
	e.hot = e.hot[:0]
	for i, n := range e.nodes[lo:hi] {
		v := n.Metrics()
		if v == (metric.Vector{}) {
			continue
		}
		e.hot = append(e.hot, uint32(i))
		for m, v := range v {
			if v != 0 {
				if counts[m] == 0 {
					cols++
				}
				counts[m]++
			}
		}
	}
	out = append(out, byte(cols))
	for m, cnt := range counts {
		if cnt == 0 {
			continue
		}
		out = append(out, byte(m))
		out = binary.AppendUvarint(out, uint64(cnt))
		prevIdx := uint32(0)
		for _, i := range e.hot {
			if v := e.nodes[lo+int(i)].Metric(metric.ID(m)); v != 0 {
				out = binary.AppendUvarint(out, uint64(i-prevIdx))
				out = binary.AppendUvarint(out, v)
				prevIdx = i
			}
		}
	}
	e.out = out
}

// grow returns s with room for n more elements, at least doubling its
// capacity when it has to reallocate. Past 256 elements append grows a
// slice by about 1.25× a step, which allocates some five times the final
// size on the way up; a cold encoder — the usual one, since the garbage
// collections between measurement writes empty the pool — would pay that
// on every column it builds.
func grow[S ~[]E, E any](s S, n int) S {
	if cap(s)-len(s) < n {
		s = slices.Grow(s, max(n, len(s)))
	}
	return s
}

// zigzag maps a signed delta to the unsigned varint space (0, -1, 1, -2 →
// 0, 1, 2, 3) so small negative frame-index deltas stay one byte.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
