package profio

// The bufio/map encoder the one-pass slice encoder (v3.go) replaced, kept
// as the test oracle: every byte the new encoder produces up to and
// including the footer is compared with what this one produces, and the
// sidecars after it by the series they decode to (writer_test.go,
// sameImage). It is the previous implementation verbatim, less the
// v2-cost shadow accounting and the telemetry increments, neither of which
// touched an output byte. Its sidecar is the "DCPT" row encoding — the
// only writer of it left, which is also how the row fixture under
// testdata/ was made (sidecar_test.go). The hand-built fixtures in
// robustness_test.go and v3_test.go use its bufio helpers (writeU32,
// writeUvarint, writeTree, newStringTable).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// referenceWriteProfile is the old WriteProfile (v3).
func referenceWriteProfile(w io.Writer, p *cct.Profile) error {
	bw := bufio.NewWriter(w)
	if err := writeProfileV3(bw, p); err != nil {
		return err
	}
	return bw.Flush()
}

// referenceWriteProfileV2 is the old WriteProfileV2, and the only v2
// writer left: the tests that need v2 images call it.
func referenceWriteProfileV2(w io.Writer, p *cct.Profile) error {
	bw := bufio.NewWriter(w)
	if err := writeProfileV2(bw, p); err != nil {
		return err
	}
	return bw.Flush()
}

func writeProfileV2(w *bufio.Writer, p *cct.Profile) error {
	// Collect the string table.
	strs := newStringTable()
	for _, tree := range p.Trees {
		tree.Walk(func(n *cct.Node, _ int) bool {
			strs.intern(n.Frame().Module)
			strs.intern(n.Frame().Name)
			strs.intern(n.Frame().File)
			return true
		})
	}
	strs.intern(p.Event)

	writeU32(w, Magic)
	writeU32(w, Version2)

	// Each section is staged in memory so its length prefix and checksum
	// can be emitted; sections are one tree each, so staging cost is one
	// tree's encoding, not the profile's.
	var payload bytes.Buffer
	sw := bufio.NewWriter(&payload)

	// Header section: identification + string table + event.
	writeUvarint(sw, uint64(p.Rank))
	writeUvarint(sw, uint64(p.Thread))
	writeUvarint(sw, uint64(len(strs.list)))
	for _, s := range strs.list {
		writeUvarint(sw, uint64(len(s)))
		if _, err := sw.WriteString(s); err != nil {
			return err
		}
	}
	writeUvarint(sw, uint64(strs.idx[p.Event]))
	if err := flushSection(w, sw, &payload); err != nil {
		return err
	}

	// Tree sections.
	if len(p.Trees) != cct.NumClasses {
		return fmt.Errorf("profio: profile has %d trees, want %d", len(p.Trees), cct.NumClasses)
	}
	totalNodes := uint64(0)
	var indexes [cct.NumClasses]map[*cct.Node]uint32
	for ci, tree := range p.Trees {
		index, err := writeTree(sw, tree, strs)
		if err != nil {
			return err
		}
		indexes[ci] = index
		totalNodes += uint64(len(index))
		if err := flushSection(w, sw, &payload); err != nil {
			return err
		}
	}

	// Footer: magic, total node records, checksum of the count.
	writeU32(w, FooterMagic)
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], totalNodes)
	w.Write(cnt[:cn])
	writeU32(w, crc32.ChecksumIEEE(cnt[:cn]))

	// Optional trailer: the temporal sidecar, referencing nodes by the
	// pre-order indices the tree sections above were just written in.
	if ts := p.Temporal; ts != nil && len(ts.Windows) > 0 {
		if err := writeTemporalSection(w, sw, &payload, ts, &indexes); err != nil {
			return err
		}
	}
	return nil
}

// flushSection drains the staged payload into w as one framed, checksummed
// section and resets the staging buffer for the next section.
func flushSection(w *bufio.Writer, sw *bufio.Writer, payload *bytes.Buffer) error {
	if err := sw.Flush(); err != nil {
		return err
	}
	b := payload.Bytes()
	writeUvarint(w, uint64(len(b)))
	if _, err := w.Write(b); err != nil {
		return err
	}
	writeU32(w, crc32.ChecksumIEEE(b))
	payload.Reset()
	return nil
}

// writeTree encodes one tree section and returns the node→pre-order-index
// map it assigned (also the section's node count) — the temporal sidecar
// trailer refers to nodes by these indices.
func writeTree(w *bufio.Writer, t *cct.Tree, strs *stringTable) (map[*cct.Node]uint32, error) {
	// Pre-order with parent indices. Walk is deterministic, so index
	// assignment is too.
	index := map[*cct.Node]uint32{}
	count := uint32(0)
	t.Walk(func(n *cct.Node, _ int) bool {
		index[n] = count
		count++
		return true
	})
	writeUvarint(w, uint64(count))
	t.Walk(func(n *cct.Node, _ int) bool {
		parent := noParent
		if n.Parent() != nil {
			parent = index[n.Parent()]
		}
		writeU32(w, parent)
		w.WriteByte(byte(n.Frame().Kind))
		writeUvarint(w, uint64(strs.idx[n.Frame().Module]))
		writeUvarint(w, uint64(strs.idx[n.Frame().Name]))
		writeUvarint(w, uint64(strs.idx[n.Frame().File]))
		writeUvarint(w, uint64(int64(n.Frame().Line)))
		// Sparse metrics.
		nz := 0
		for _, v := range n.Metrics() {
			if v != 0 {
				nz++
			}
		}
		w.WriteByte(byte(nz))
		for i, v := range n.Metrics() {
			if v != 0 {
				w.WriteByte(byte(i))
				writeUvarint(w, v)
			}
		}
		return true
	})
	return index, nil
}

// countWriter counts bytes, forwarding to w when set (nil discards). The
// durable writer takes its byte accounting from this counter rather than
// re-stat-ing the file it just wrote.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	if c.w == nil {
		c.n += int64(len(b))
		return len(b), nil
	}
	m, err := c.w.Write(b)
	c.n += int64(m)
	return m, err
}

// stringTable interns strings for writing.
type stringTable struct {
	idx  map[string]int
	list []string
}

func newStringTable() *stringTable {
	return &stringTable{idx: map[string]int{}}
}

func (s *stringTable) intern(str string) int {
	if i, ok := s.idx[str]; ok {
		return i
	}
	i := len(s.list)
	s.idx[str] = i
	s.list = append(s.list, str)
	return i
}

func writeU32(w *bufio.Writer, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	w.Write(buf[:])
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeProfileV3(w *bufio.Writer, p *cct.Profile) error {
	// Collect the string table (same walk order as v2, so both formats
	// build identical tables) and the deduplicated frame table.
	strs := newStringTable()
	frameIdx := make(map[cct.FrameID]uint32)
	var frames []cct.Frame
	for _, tree := range p.Trees {
		tree.Walk(func(n *cct.Node, _ int) bool {
			strs.intern(n.Frame().Module)
			strs.intern(n.Frame().Name)
			strs.intern(n.Frame().File)
			if _, ok := frameIdx[n.ID()]; !ok {
				frameIdx[n.ID()] = uint32(len(frames))
				frames = append(frames, n.Frame())
			}
			return true
		})
	}
	strs.intern(p.Event)

	writeU32(w, Magic)
	writeU32(w, Version)

	var payload bytes.Buffer
	sw := bufio.NewWriter(&payload)

	// Header section: identification + string table + event + frame table.
	writeUvarint(sw, uint64(p.Rank))
	writeUvarint(sw, uint64(p.Thread))
	writeUvarint(sw, uint64(len(strs.list)))
	for _, s := range strs.list {
		writeUvarint(sw, uint64(len(s)))
		if _, err := sw.WriteString(s); err != nil {
			return err
		}
	}
	writeUvarint(sw, uint64(strs.idx[p.Event]))
	writeUvarint(sw, uint64(len(frames)))
	for _, f := range frames {
		sw.WriteByte(byte(f.Kind))
		mi := uint64(strs.idx[f.Module])
		ni := uint64(strs.idx[f.Name])
		fi := uint64(strs.idx[f.File])
		line := uint64(int64(f.Line))
		writeUvarint(sw, mi)
		writeUvarint(sw, ni)
		writeUvarint(sw, fi)
		writeUvarint(sw, line)
	}
	if err := flushSection(w, sw, &payload); err != nil {
		return err
	}

	// Tree sections.
	totalNodes := uint64(0)
	var indexes [cct.NumClasses]map[*cct.Node]uint32
	for ci, tree := range p.Trees {
		index, err := writeTreeV3(sw, tree, frameIdx)
		if err != nil {
			return err
		}
		indexes[ci] = index
		totalNodes += uint64(len(index))
		if err := flushSection(w, sw, &payload); err != nil {
			return err
		}
	}

	// Footer: identical framing in both formats.
	writeU32(w, FooterMagic)
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], totalNodes)
	w.Write(cnt[:cn])
	writeU32(w, crc32.ChecksumIEEE(cnt[:cn]))

	if ts := p.Temporal; ts != nil && len(ts.Windows) > 0 {
		if err := writeTemporalSection(w, sw, &payload, ts, &indexes); err != nil {
			return err
		}
	}
	return nil
}

// writeTreeV3 encodes one tree section columnar and returns the
// node→pre-order-index map it assigned (for the temporal trailer).
func writeTreeV3(w *bufio.Writer, t *cct.Tree, frameIdx map[cct.FrameID]uint32) (map[*cct.Node]uint32, error) {
	// Pre-order via the deterministic Walk — the same index assignment v2
	// makes, which is what keeps sidecar node references format-agnostic.
	index := map[*cct.Node]uint32{}
	var nodes []*cct.Node
	t.Walk(func(n *cct.Node, _ int) bool {
		index[n] = uint32(len(nodes))
		nodes = append(nodes, n)
		return true
	})
	count := len(nodes)
	writeUvarint(w, uint64(count))

	// Parent column: pre-order guarantees parent(i) < i, so the gap is ≥ 1
	// and — along any call chain — exactly 1, a single byte.
	for i := 1; i < count; i++ {
		writeUvarint(w, uint64(i)-uint64(index[nodes[i].Parent()]))
	}
	// Frame column: local frame-table indices, delta-coded in visit order.
	// Siblings sort by frame fields, so runs of near-equal indices are
	// common and the zigzag deltas stay short.
	prev := int64(0)
	for _, n := range nodes {
		fi := int64(frameIdx[n.ID()])
		writeUvarint(w, zigzag(fi-prev))
		prev = fi
	}
	// Metric columns: one sparse (node index, value) run per metric that
	// appears anywhere in the tree.
	var colIDs []int
	for m := 0; m < int(metric.NumMetrics); m++ {
		for _, n := range nodes {
			if n.Metric(metric.ID(m)) != 0 {
				colIDs = append(colIDs, m)
				break
			}
		}
	}
	w.WriteByte(byte(len(colIDs)))
	for _, m := range colIDs {
		w.WriteByte(byte(m))
		cnt := 0
		for _, n := range nodes {
			if n.Metric(metric.ID(m)) != 0 {
				cnt++
			}
		}
		writeUvarint(w, uint64(cnt))
		prevIdx, first := uint64(0), true
		for i, n := range nodes {
			v := n.Metric(metric.ID(m))
			if v == 0 {
				continue
			}
			if first {
				writeUvarint(w, uint64(i))
				first = false
			} else {
				writeUvarint(w, uint64(i)-prevIdx)
			}
			prevIdx = uint64(i)
			writeUvarint(w, v)
		}
	}
	return index, nil
}

// encKey identifies one (class, node) slot during encoding.
type encKey struct {
	class cct.Class
	idx   uint32
}

// writeTemporalSection stages the encoded sidecar into sw and emits it as
// a tagged trailer section. indexes are the per-class node→pre-order-index
// maps the tree sections were written with.
func writeTemporalSection(w *bufio.Writer, sw *bufio.Writer, payload *bytes.Buffer, ts *cct.TimeSeries, indexes *[cct.NumClasses]map[*cct.Node]uint32) error {
	if ts.Width == 0 {
		return fmt.Errorf("profio: temporal sidecar has zero window width")
	}
	// Coalesce: the recorder may emit duplicate window indices (a window
	// re-opened after a mid-run flush) and the format wants one entry per
	// (window, class, node). Aggregate first, then sort for determinism.
	agg := make(map[uint64]map[encKey]*metric.Vector)
	for wi := range ts.Windows {
		win := &ts.Windows[wi]
		entries := agg[win.Index]
		if entries == nil {
			entries = make(map[encKey]*metric.Vector)
			agg[win.Index] = entries
		}
		for di := range win.Deltas {
			d := &win.Deltas[di]
			if int(d.Class) >= cct.NumClasses {
				return fmt.Errorf("profio: temporal delta class %d out of range", d.Class)
			}
			idx, ok := indexes[d.Class][d.Node]
			if !ok {
				return fmt.Errorf("profio: temporal delta references a node outside the %v tree", d.Class)
			}
			k := encKey{class: d.Class, idx: idx}
			if v := entries[k]; v != nil {
				dv := win.Metrics(di)
				v.Add(&dv)
			} else {
				cp := win.Metrics(di)
				entries[k] = &cp
			}
		}
	}

	winIdxs := make([]uint64, 0, len(agg))
	for w := range agg {
		winIdxs = append(winIdxs, w)
	}
	sort.Slice(winIdxs, func(i, j int) bool { return winIdxs[i] < winIdxs[j] })

	writeUvarint(sw, ts.Width)
	writeUvarint(sw, uint64(len(winIdxs)))
	prevWin := uint64(0)
	for i, wi := range winIdxs {
		if i == 0 {
			writeUvarint(sw, wi)
		} else {
			writeUvarint(sw, wi-prevWin)
		}
		prevWin = wi

		entries := agg[wi]
		keys := make([]encKey, 0, len(entries))
		for k := range entries {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if keys[a].class != keys[b].class {
				return keys[a].class < keys[b].class
			}
			return keys[a].idx < keys[b].idx
		})
		writeUvarint(sw, uint64(len(keys)))
		prevClass, prevIdx := cct.Class(0), uint32(0)
		for j, k := range keys {
			sw.WriteByte(byte(k.class))
			if j > 0 && k.class == prevClass {
				writeUvarint(sw, uint64(k.idx-prevIdx))
			} else {
				writeUvarint(sw, uint64(k.idx))
			}
			prevClass, prevIdx = k.class, k.idx
			v := entries[k]
			nz := 0
			for _, x := range v {
				if x != 0 {
					nz++
				}
			}
			sw.WriteByte(byte(nz))
			for m, x := range v {
				if x != 0 {
					sw.WriteByte(byte(m))
					writeUvarint(sw, x)
				}
			}
		}
	}

	writeU32(w, TemporalRowsMagic)
	return flushSection(w, sw, payload)
}
