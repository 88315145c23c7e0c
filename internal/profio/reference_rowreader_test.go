package profio

// The bufio row reader the staged decoder's v1/v2 path (stage.go,
// stageRows) replaced, kept as the test oracle: FuzzRowStageMatchesReference
// requires the two to agree on every input's verdict, recovered trees and
// sidecar. It is the previous implementation verbatim — the row reader,
// its salvage drain and the sidecar decode it used — plus
// referenceSalvage, the entry point SalvageProfile used to be for v1/v2.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// referenceSalvage is the old SalvageProfile over the row reader, for
// v1/v2 images.
func referenceSalvage(r io.Reader, in *Intern) (*Salvage, error) {
	rr, err := newRowReader(r, in)
	if err != nil {
		return nil, err
	}
	return rr.salvage(), nil
}

// rowReader decodes one v1/v2 profile from a stream: the header and string
// table on construction, then one storage-class tree per readTree call.
//
// For v2 input every section's checksum is verified before its records
// are trusted. A checksum or decode failure inside one tree section is
// recoverable: the reader is already positioned at the next section, so
// further readTree calls continue with the following tree (the salvage
// path). A truncation or framing failure is terminal, because the stream
// offset of later sections is unknowable.
type rowReader struct {
	br           *bufio.Reader
	version      uint32
	rank, thread int
	event        string
	strs         []string
	// frameIDs memoizes string-table-index tuples to interned FrameIDs, so
	// each distinct frame in a file touches the process-global interner
	// once; every further node record with the same tuple resolves by one
	// integer-keyed map probe. Valid across trees of one file (the string
	// table is per-file).
	frameIDs   map[frameRef]cct.FrameID
	next       int
	nodes      int
	treeErrs   int
	footerDone bool
	terminal   error // sticky stream-level failure; nil if resync possible

	// classNodes retains each decoded tree's pre-order node array so the
	// temporal-sidecar trailer (whose entries reference nodes by pre-order
	// index) can be resolved after the footer. nil for a class whose
	// section was damaged.
	classNodes [cct.NumClasses][]*cct.Node
	// temporal is the decoded sidecar, nil when absent or damaged.
	temporal *cct.TimeSeries
	// trailerDamaged records that a trailer-region error was format-level
	// damage (bad checksum, truncation, undecodable sidecar) rather than
	// an I/O failure — the distinction salvage policies use to decide
	// whether a file is merely missing its sidecar or untrustworthy.
	trailerDamaged bool
}

// frameRef is a frame as the v1/v2 wire encodes it: kind plus string-table
// indices. Two records with equal refs decode to the same frame.
type frameRef struct {
	kind            byte
	mod, name, file uint64
	line            uint64
}

// newRowReader reads the preamble, header and string table of a v1/v2
// stream and positions the reader at the first storage-class tree.
func newRowReader(r io.Reader, in *Intern) (*rowReader, error) {
	br := bufio.NewReader(r)
	if m, err := readU32(br); err != nil || m != Magic {
		if err != nil {
			return nil, fmt.Errorf("profio: reading magic: %w", wrapEOF(err))
		}
		return nil, fmt.Errorf("profio: bad magic %#x", m)
	}
	v, err := readU32(br)
	if err != nil {
		return nil, fmt.Errorf("profio: reading version: %w", wrapEOF(err))
	}
	d := &rowReader{br: br, version: v}
	switch v {
	case Version1:
		if err := d.parseHeader(br, in); err != nil {
			return nil, err
		}
	case Version2:
		payload, err := readSection(br, "header")
		if err != nil {
			return nil, fmt.Errorf("profio: %w", err)
		}
		hr := bufio.NewReader(bytes.NewReader(payload))
		if err := d.parseHeader(hr, in); err != nil {
			return nil, err
		}
		if _, err := hr.ReadByte(); err != io.EOF {
			return nil, fmt.Errorf("profio: header: trailing bytes in section")
		}
	default:
		return nil, fmt.Errorf("profio: unsupported version %d", v)
	}
	return d, nil
}

// parseHeader decodes rank, thread, string table, and event description.
func (d *rowReader) parseHeader(br *bufio.Reader, in *Intern) error {
	rank, err := readUvarint(br)
	if err != nil {
		return wrapEOF(err)
	}
	thread, err := readUvarint(br)
	if err != nil {
		return wrapEOF(err)
	}
	nStrs, err := readUvarint(br)
	if err != nil {
		return wrapEOF(err)
	}
	if nStrs > 1<<24 {
		return fmt.Errorf("profio: unreasonable string table size %d", nStrs)
	}
	// Grow incrementally rather than trusting the claimed count: a corrupt
	// header must not be able to demand a huge upfront allocation.
	strs := make([]string, 0, min(nStrs, 4096))
	for i := uint64(0); i < nStrs; i++ {
		n, err := readUvarint(br)
		if err != nil {
			return wrapEOF(err)
		}
		if n > 1<<16 {
			return fmt.Errorf("profio: unreasonable string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return wrapEOF(err)
		}
		s := string(buf)
		if in != nil {
			s = in.Intern(s)
		}
		strs = append(strs, s)
	}
	d.rank, d.thread, d.strs = int(rank), int(thread), strs

	eventIdx, err := readUvarint(br)
	if err != nil {
		return wrapEOF(err)
	}
	event, err := d.str(eventIdx)
	if err != nil {
		return err
	}
	d.event = event
	return nil
}

// readSection reads one `len · payload · crc` frame and verifies the
// checksum. The payload buffer grows with the bytes actually present, so a
// corrupt length claiming gigabytes costs nothing before the stream runs
// dry. On a checksum failure the stream position is past the section — the
// caller may resync; on any other failure the position is undefined.
func readSection(br *bufio.Reader, what string) ([]byte, error) {
	n, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("%s: reading section length: %w", what, wrapEOF(err))
	}
	if n > maxSection {
		return nil, fmt.Errorf("%s: unreasonable section size %d", what, n)
	}
	var buf bytes.Buffer
	if m, err := io.CopyN(&buf, br, int64(n)); err != nil {
		telReadBytes.Add(uint64(m))
		telTruncations.Inc()
		return nil, fmt.Errorf("%s: %w after %d/%d payload bytes", what, ErrTruncated, m, n)
	}
	telReadBytes.Add(n + 4) // payload + stored checksum
	stored, err := readU32(br)
	if err != nil {
		return nil, fmt.Errorf("%s: reading checksum: %w", what, wrapEOF(err))
	}
	if got := crc32.ChecksumIEEE(buf.Bytes()); got != stored {
		telCRCFailures.Inc()
		return nil, fmt.Errorf("%s: %w: computed %08x, stored %08x", what, ErrChecksum, got, stored)
	}
	telReadSections.Inc()
	return buf.Bytes(), nil
}

func (d *rowReader) str(i uint64) (string, error) {
	if i >= uint64(len(d.strs)) {
		return "", fmt.Errorf("profio: string index %d out of range", i)
	}
	return d.strs[i], nil
}

// readTree decodes the next storage-class tree, returning io.EOF once all
// cct.NumClasses trees have been read and (for v2) the footer validated.
//
// A v2 tree section that is present but damaged yields an error for that
// class only; the next readTree call proceeds to the following class. A v1
// decode failure or a v2 truncation is terminal: the same error is
// returned from every subsequent call.
func (d *rowReader) readTree() (cct.Class, *cct.Tree, error) {
	if d.terminal != nil {
		return 0, nil, d.terminal
	}
	if d.next >= cct.NumClasses {
		if d.version != Version1 && !d.footerDone {
			d.footerDone = true
			if err := d.readFooter(); err != nil {
				return 0, nil, err
			}
		}
		return 0, nil, io.EOF
	}
	c := cct.Class(d.next)

	if d.version == Version1 {
		t := cct.New()
		nodes, err := d.decodeRows(d.br, t)
		if err != nil {
			// v1 has no framing: the offset of the next tree is unknown.
			d.terminal = fmt.Errorf("profio: tree %d: %w", d.next, wrapEOF(err))
			return c, nil, d.terminal
		}
		d.next++
		d.nodes += len(nodes)
		telReadNodes.Add(uint64(len(nodes)))
		d.classNodes[c] = nodes
		return c, t, nil
	}

	payload, err := readSection(d.br, fmt.Sprintf("tree %d", d.next))
	if err != nil {
		if errors.Is(err, ErrChecksum) {
			// Position is at the next section: recoverable.
			d.next++
			d.treeErrs++
			return c, nil, fmt.Errorf("profio: %w", err)
		}
		d.terminal = fmt.Errorf("profio: %w", err)
		d.treeErrs++
		return c, nil, d.terminal
	}
	// The payload passed its checksum; decode it. A record-level failure
	// here means the writer produced it damaged (or a CRC collision) —
	// either way only this tree is lost.
	t := cct.New()
	pr := bufio.NewReader(bytes.NewReader(payload))
	nodes, err := d.decodeRows(pr, t)
	if err == nil {
		if _, e := pr.ReadByte(); e != io.EOF {
			err = fmt.Errorf("trailing bytes in tree section")
		}
	}
	if err != nil {
		d.next++
		d.treeErrs++
		d.classNodes[c] = nil // a dropped tree must not anchor sidecar deltas
		return c, nil, fmt.Errorf("profio: tree %d: %w", int(c), err)
	}
	d.next++
	d.nodes += len(nodes)
	telReadNodes.Add(uint64(len(nodes)))
	// Retain the pre-order array: the temporal trailer refers to nodes by
	// these indices.
	d.classNodes[c] = nodes
	return c, t, nil
}

// readFooter validates the v2 end-of-file footer: magic, checksummed total
// node count, and absence of trailing bytes. The count is only compared to
// the decoded total when every tree section decoded cleanly — a salvaged
// file legitimately decodes fewer nodes than the writer recorded.
func (d *rowReader) readFooter() error {
	m, err := readU32(d.br)
	if err != nil {
		return fmt.Errorf("profio: footer: reading magic: %w", wrapEOF(err))
	}
	if m != FooterMagic {
		return fmt.Errorf("profio: footer: bad magic %#x", m)
	}
	// Checksum covers the exact varint bytes of the count.
	var raw []byte
	count, err := func() (uint64, error) {
		var v uint64
		for shift := uint(0); ; shift += 7 {
			b, err := d.br.ReadByte()
			if err != nil {
				return 0, wrapEOF(err)
			}
			raw = append(raw, b)
			if shift >= 64 {
				return 0, fmt.Errorf("count varint overflows")
			}
			v |= uint64(b&0x7f) << shift
			if b < 0x80 {
				return v, nil
			}
		}
	}()
	if err != nil {
		return fmt.Errorf("profio: footer: %w", err)
	}
	stored, err := readU32(d.br)
	if err != nil {
		return fmt.Errorf("profio: footer: reading checksum: %w", wrapEOF(err))
	}
	if got := crc32.ChecksumIEEE(raw); got != stored {
		telCRCFailures.Inc()
		return fmt.Errorf("profio: footer: %w: computed %08x, stored %08x", ErrChecksum, got, stored)
	}
	if d.treeErrs == 0 && count != uint64(d.nodes) {
		return fmt.Errorf("profio: footer: record count %d, decoded %d", count, d.nodes)
	}
	return d.readTrailers()
}

// readTrailers scans the tagged sections that may follow the footer:
// `u32 magic · uvarint len · payload · u32 CRC`. Known magics decode;
// unknown ones are checksum-verified and skipped, which is how older
// readers of future formats (and this reader, for sidecars it doesn't
// know) coexist with newer writers. A clean EOF before any magic is the
// normal no-trailer case. Errors here are non-terminal in the salvage
// sense: the trees were already delivered, so a damaged trailer costs
// only the sidecar.
func (d *rowReader) readTrailers() error {
	for {
		m, err := readU32(d.br)
		if errors.Is(err, io.EOF) {
			return nil // no (more) trailers
		}
		if err != nil {
			return d.trailerErr(fmt.Errorf("profio: trailer: reading magic: %w", wrapEOF(err)))
		}
		payload, err := readSection(d.br, fmt.Sprintf("trailer %#x", m))
		if err != nil {
			return d.trailerErr(fmt.Errorf("profio: %w", err))
		}
		switch m {
		case TemporalMagic, TemporalRowsMagic:
			if d.temporal != nil {
				d.trailerDamaged = true
				return fmt.Errorf("profio: duplicate temporal trailer section")
			}
			ts, err := decodeTimeSeries(m, payload, &d.classNodes)
			if err != nil {
				d.trailerDamaged = true
				return fmt.Errorf("profio: temporal sidecar: %w", err)
			}
			d.temporal = ts
			telTemporalRead.Inc()
		default:
			// Unknown trailer: intact (the checksum held), just not ours.
			telTrailerSkipped.Inc()
		}
	}
}

// trailerErr classifies a trailer-region failure before returning it:
// checksum mismatches and truncation are format-level damage of the
// optional trailing sections, anything else (a raw I/O error, say) is
// not, so callers won't treat a flaky disk as "just a lost sidecar".
func (d *rowReader) trailerErr(err error) error {
	if errors.Is(err, ErrChecksum) || errors.Is(err, ErrTruncated) {
		d.trailerDamaged = true
	}
	return err
}

// decodeRows decodes one v1/v2 row-oriented tree body into t and returns
// the pre-order node array (the temporal sidecar's reference space). The
// caller accounts nodes and retains or drops the array.
func (d *rowReader) decodeRows(br *bufio.Reader, t *cct.Tree) ([]*cct.Node, error) {
	str := d.str
	count, err := readUvarint(br)
	if err != nil {
		return nil, err
	}
	if count == 0 {
		return nil, fmt.Errorf("empty node array (even the root must be present)")
	}
	if count > 1<<28 {
		return nil, fmt.Errorf("unreasonable node count %d", count)
	}
	// As with the string table, never preallocate from an untrusted count:
	// a bogus header claiming 2^28 nodes would otherwise cost gigabytes
	// before the first record fails to decode.
	nodes := make([]*cct.Node, 0, min(count, 4096))
	for i := uint64(0); i < count; i++ {
		parent, err := readU32(br)
		if err != nil {
			return nil, err
		}
		kind, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		modI, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		nameI, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		fileI, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		line, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		// Intern each distinct (kind, indices, line) tuple once per file;
		// repeats — the overwhelmingly common case, since symbol frames
		// recur across the whole tree — skip string resolution entirely.
		ref := frameRef{kind: kind, mod: modI, name: nameI, file: fileI, line: line}
		id, known := d.frameIDs[ref]
		if !known {
			mod, err := str(modI)
			if err != nil {
				return nil, err
			}
			name, err := str(nameI)
			if err != nil {
				return nil, err
			}
			file, err := str(fileI)
			if err != nil {
				return nil, err
			}
			id = cct.InternFrame(cct.Frame{
				Kind:   cct.Kind(kind),
				Module: mod,
				Name:   name,
				File:   file,
				Line:   int(int64(line)),
			})
			if d.frameIDs == nil {
				d.frameIDs = make(map[frameRef]cct.FrameID)
			}
			d.frameIDs[ref] = id
		}

		var node *cct.Node
		switch {
		case parent == noParent:
			if i != 0 {
				return nil, fmt.Errorf("non-first node %d has no parent", i)
			}
			node = t.Root
		case uint64(parent) >= i:
			return nil, fmt.Errorf("node %d references later/self parent %d", i, parent)
		default:
			node = nodes[parent].ChildID(id)
		}

		nz, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		for k := 0; k < int(nz); k++ {
			id, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if int(id) >= int(metric.NumMetrics) {
				return nil, fmt.Errorf("metric id %d out of range", id)
			}
			v, err := readUvarint(br)
			if err != nil {
				return nil, err
			}
			var vec metric.Vector
			vec[id] = v
			t.Add(node, &vec)
		}
		nodes = append(nodes, node)
	}
	return nodes, nil
}

// salvage drains the row reader's trees in best-effort mode.
func (d *rowReader) salvage() *Salvage {
	s := &Salvage{
		Profile: cct.NewProfile(d.rank, d.thread, d.event),
		Staged:  Staged{Rank: d.rank, Thread: d.thread, Event: d.event, Version: d.version},
	}
	for {
		before := d.next
		c, t, err := d.readTree()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.Errs = append(s.Errs, err)
			if d.terminal != nil {
				// The stream is unframed or cut: d.next still names the
				// tree the failure surfaced on, and every class from it
				// onward is gone.
				s.Lost += cct.NumClasses - d.next
				break
			}
			if d.next > before {
				// A tree section was present but damaged; the reader
				// resynced past it, so only that class is lost.
				s.Lost++
			}
			// Otherwise the error was footer validation — trees already
			// accounted for; the next call returns io.EOF.
			continue
		}
		s.Profile.Trees[c] = t
		s.Trees++
	}
	s.NodesRead = d.nodes
	// A salvaged profile keeps its sidecar only if the trailer decoded
	// cleanly; a damaged sidecar is already in Errs and the profile loads
	// windowless.
	s.Profile.Temporal = d.temporal
	s.SidecarOnly = s.Lost == 0 && len(s.Errs) > 0 && d.trailerDamaged
	return s
}

// decodeTimeSeries is stage and resolve in one step, for the row reader,
// which has already built the trees the sidecar refers to.
func decodeTimeSeries(magic uint32, payload []byte, classNodes *[cct.NumClasses][]*cct.Node) (*cct.TimeSeries, error) {
	var counts [cct.NumClasses]int
	for c, nodes := range classNodes {
		counts[c] = len(nodes)
	}
	var s seriesStage
	if err := s.stage(magic, payload, &counts); err != nil {
		return nil, err
	}
	return s.resolve(classNodes), nil
}

func readU32(r *bufio.Reader) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func readUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}
