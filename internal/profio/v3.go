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
// deterministic tree Walk), so the temporal sidecar trailer carries over
// byte-for-byte.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

func writeProfileV3(w *bufio.Writer, p *cct.Profile) error {
	// Collect the string table (same walk order as v2, so both formats
	// build identical tables) and the deduplicated frame table.
	strs := newStringTable()
	frameIdx := make(map[cct.FrameID]uint32)
	var frames []cct.Frame
	for _, tree := range p.Trees {
		tree.Walk(func(n *cct.Node, _ int) bool {
			strs.intern(n.Frame.Module)
			strs.intern(n.Frame.Name)
			strs.intern(n.Frame.File)
			if _, ok := frameIdx[n.ID()]; !ok {
				frameIdx[n.ID()] = uint32(len(frames))
				frames = append(frames, n.Frame)
			}
			return true
		})
	}
	strs.intern(p.Event)

	writeU32(w, Magic)
	writeU32(w, Version)

	var payload bytes.Buffer
	sw := bufio.NewWriter(&payload)

	// v2Bytes/v3Bytes track what this profile costs in each encoding
	// (trailers excluded: they are byte-identical in both), feeding the
	// profio.write.v3_saved_bytes counter with exact savings instead of a
	// second full encode.
	v2Bytes, v3Bytes := int64(8), int64(8)
	track := func(v2PayloadLen int64) error {
		if err := sw.Flush(); err != nil {
			return err
		}
		n := int64(payload.Len())
		v3Bytes += uvlen(uint64(n)) + n + 4
		v2Bytes += uvlen(uint64(v2PayloadLen)) + v2PayloadLen + 4
		return flushSection(w, sw, &payload)
	}

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
	frameTabBytes := uvlen(uint64(len(frames)))
	// rowCost[i] is what frame i's record costs inline in a v2 node row
	// (kind byte + string indices + line) — the per-node share of the v2
	// accounting below.
	rowCost := make([]int64, len(frames))
	for i, f := range frames {
		sw.WriteByte(byte(f.Kind))
		mi := uint64(strs.idx[f.Module])
		ni := uint64(strs.idx[f.Name])
		fi := uint64(strs.idx[f.File])
		line := uint64(int64(f.Line))
		writeUvarint(sw, mi)
		writeUvarint(sw, ni)
		writeUvarint(sw, fi)
		writeUvarint(sw, line)
		rowCost[i] = 1 + uvlen(mi) + uvlen(ni) + uvlen(fi) + uvlen(line)
		frameTabBytes += rowCost[i]
	}
	if err := sw.Flush(); err != nil {
		return err
	}
	if err := track(int64(payload.Len()) - frameTabBytes); err != nil {
		return err
	}

	// Tree sections.
	totalNodes := uint64(0)
	var indexes [cct.NumClasses]map[*cct.Node]uint32
	for ci, tree := range p.Trees {
		index, v2len, err := writeTreeV3(sw, tree, frameIdx, rowCost)
		if err != nil {
			return err
		}
		indexes[ci] = index
		totalNodes += uint64(len(index))
		if err := track(v2len); err != nil {
			return err
		}
	}

	// Footer: identical framing in both formats.
	writeU32(w, FooterMagic)
	var cnt [binary.MaxVarintLen64]byte
	cn := binary.PutUvarint(cnt[:], totalNodes)
	w.Write(cnt[:cn])
	writeU32(w, crc32.ChecksumIEEE(cnt[:cn]))

	if v2Bytes > v3Bytes {
		telV3SavedBytes.Add(uint64(v2Bytes - v3Bytes))
	}

	if ts := p.Temporal; ts != nil && len(ts.Windows) > 0 {
		if err := writeTemporalSection(w, sw, &payload, ts, &indexes); err != nil {
			return err
		}
	}
	return nil
}

// writeTreeV3 encodes one tree section columnar and returns the
// node→pre-order-index map it assigned (for the temporal trailer) plus the
// exact byte count the same tree would occupy as a v2 section payload.
func writeTreeV3(w *bufio.Writer, t *cct.Tree, frameIdx map[cct.FrameID]uint32, rowCost []int64) (map[*cct.Node]uint32, int64, error) {
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
	v2len := uvlen(uint64(count))

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
		v2len += 4 + rowCost[frameIdx[n.ID()]] + 1
	}
	// Metric columns: one sparse (node index, value) run per metric that
	// appears anywhere in the tree.
	var colIDs []int
	for m := 0; m < int(metric.NumMetrics); m++ {
		for _, n := range nodes {
			if n.Metrics[m] != 0 {
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
			if n.Metrics[m] != 0 {
				cnt++
			}
		}
		writeUvarint(w, uint64(cnt))
		prevIdx, first := uint64(0), true
		for i, n := range nodes {
			v := n.Metrics[m]
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
			v2len += 1 + uvlen(v)
		}
	}
	return index, v2len, nil
}

// uvlen returns the encoded length of v as an unsigned varint.
func uvlen(v uint64) int64 {
	n := int64(1)
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// zigzag maps a signed delta to the unsigned varint space (0, -1, 1, -2 →
// 0, 1, 2, 3) so small negative frame-index deltas stay one byte.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
