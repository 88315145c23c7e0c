package profio

// Stage, then apply: the one decoder, for every format version.
//
// A Decoder reads a profile image whole into a reusable buffer and
// *stages* it: the header (strings resolved through a decoder-local cache
// in front of the shared Intern, frame-table entries through a
// decoder-local memo of the frames earlier images declared), every section
// checksum, the footer, the trailer framing, and each tree section's
// parent, frame and metric columns, decoded under every record-level check
// into reusable scratch slices. Staging touches no tree and no
// process-global state, so it is also the whole of validation: an image
// the caller rejects leaves nothing behind in the frame interner. Apply
// then interns the frames the memo did not know, walks the staged columns
// into a caller-supplied profile, and cannot fail: everything that could
// be wrong with the file was ruled on before the first node was touched. A
// caller that applies file after file into one accumulator allocates a
// node only when a calling context is new to that accumulator, and a file
// it decides to reject has contributed nothing.
//
// v1 and v2 images (read, never written) stage into the same columns. Their
// trees are rows, one self-contained record per node; each distinct row
// frame is written, as a v3 frame-table entry, into decoder scratch that
// stands in for the header's frame table, so Apply, the footer and the
// sidecar serve every version alike. A v2 tree is framed like a v3 one, so
// a damaged section loses only its class; v1 has no framing, so its first
// failure loses every class from there on.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// Staged is the verdict on one profile image: what its integrity metadata
// vouches for, before any of it is applied.
type Staged struct {
	// Rank, Thread, and Event identify the producer, from the header.
	Rank, Thread int
	Event        string
	// Version is the format version (Version1, Version2, or Version).
	Version uint32
	// Bytes is the length of the image read.
	Bytes int64
	// Trees counts complete, integrity-checked class trees.
	Trees int
	// Lost counts class trees that could not be recovered.
	Lost int
	// Errs holds one error per damaged section (plus the footer or trailer
	// region, when its validation failed). Empty means the file is fully
	// intact.
	Errs []error
	// NodesRead is the number of CCT node records in the recovered trees.
	NodesRead int
	// SidecarOnly reports that every class tree was recovered and the
	// only damage was format-level corruption of the optional trailing
	// sidecar region (bad checksum, truncation, undecodable series). Such
	// a file is safe to merge windowless; an I/O error or footer failure
	// never sets this.
	SidecarOnly bool
}

// Intact reports whether the image decoded completely with every
// integrity check passing.
func (s *Staged) Intact() bool { return s.Lost == 0 && len(s.Errs) == 0 }

// frameKey is a v3 frame-table entry with its strings replaced by the
// decoder's dense string IDs — the key of the decoder-local memo in front
// of cct.InternFrame.
type frameKey struct {
	line            uint64
	mod, name, file uint32
	kind            byte
}

// metricEnt is one staged metric-column entry.
type metricEnt struct {
	v    uint64
	node uint32 // pre-order index within its tree
	id   uint8
}

// treeSpan locates one staged tree in the decoder's flat columns. A tree
// that staged clean has at least its root, so an empty node range means
// the class has nothing staged.
type treeSpan struct {
	node0, nodeN int // parent/frame/nodes columns [node0, nodeN)
	ent0, entN   int // metric entries [ent0, entN)
}

// Decoder stages profile images and applies them to profiles. It owns its
// read buffer, scratch columns and caches, all of which live exactly as
// long as it does; it is not safe for concurrent use. A load gives each of
// its workers one Decoder.
type Decoder struct {
	in *Intern

	// Decoder-local caches. Thread files of one execution repeat the same
	// strings and frames, so after the first few files every header
	// resolves here without touching the shared, synchronized interners.
	// Both are off (a nil map, a zero memo) in a decoder that will stage
	// a single image: a header never repeats itself, so there is nothing
	// to remember.
	strIDs map[string]uint32
	strTab []string
	frames frameMemo

	buf     []byte
	readErr error // non-EOF error that ended the read of buf

	st Staged

	strs     []uint32      // file string index → strTab index
	frameTab []cct.FrameID // file frame index → interned frame (misses: filled by Apply)
	frameSrc []byte        // the staged frame-table entries, for Apply
	missed   int           // frame-table entries the memo did not know
	parent   []uint32
	frame    []uint32 // file frame index per node
	ents     []metricEnt
	span     [cct.NumClasses]treeSpan
	nodes    []*cct.Node // Apply's pre-order node arrays, parallel to parent
	series   seriesStage
	haveTS   bool
	damaged  bool // trailer-region damage was format-level, not I/O
	// A row image's frame table: its distinct row frames as v3 entries,
	// and each one's index, by frame.
	rowTab []byte
	rowIdx map[frameKey]uint32
}

// NewDecoder creates a decoder whose strings are canonicalized through in
// (nil skips canonicalization).
func NewDecoder(in *Intern) *Decoder {
	return &Decoder{
		in:     in,
		strIDs: make(map[string]uint32),
		frames: newFrameMemo(),
	}
}

// Stage reads r to its end and stages the image. It returns an error only
// when the header (identification, string table, frame table) is
// unreadable — then nothing is salvageable. Otherwise the verdict says
// which trees staged clean and what was damaged; it stays valid until the
// next Stage. An error from r other than io.EOF ends the image at the
// bytes read so far, and whatever runs into that end reports the error.
//
// The 8-byte magic and version are judged before the buffer grows: input
// that is not a profile of a known version costs at most the buffer's
// existing capacity (4 KiB in a fresh decoder), however long it is.
func (d *Decoder) Stage(r io.Reader) (*Staged, error) {
	d.buf = d.buf[:0]
	d.readErr = d.fill(r, 8)
	d.st = Staged{Errs: d.st.Errs[:0]}
	d.haveTS, d.damaged = false, false
	d.span = [cct.NumClasses]treeSpan{}

	hdr := d.buf
	if len(hdr) < 4 {
		return nil, fmt.Errorf("profio: reading magic: %w", d.short())
	}
	if m := binary.LittleEndian.Uint32(hdr); m != Magic {
		return nil, fmt.Errorf("profio: bad magic %#x", m)
	}
	if len(hdr) < 8 {
		return nil, fmt.Errorf("profio: reading version: %w", d.short())
	}
	v := binary.LittleEndian.Uint32(hdr[4:])
	if v != Version && v != Version1 && v != Version2 {
		return nil, fmt.Errorf("profio: unsupported version %d", v)
	}
	if d.readErr == nil {
		d.readErr = d.fill(r, -1)
	}
	img := d.buf
	d.st.Bytes, d.st.Version = int64(len(img)), v
	d.parent, d.frame, d.ents = d.parent[:0], d.frame[:0], d.ents[:0]
	d.rowTab = d.rowTab[:0]
	clear(d.rowIdx)
	var err error
	if v == Version1 {
		err = d.stageV1(img)
	} else {
		err = d.stageFramed(img)
	}
	if err != nil {
		return nil, err
	}
	if v != Version {
		// The row trees declared their frames as they went; resolve the
		// table they built, as the header's is resolved for v3. Its
		// entries were validated as they were added, so the parse cannot
		// fail.
		d.frameSrc = d.rowTab
		_, _ = d.parseFrames(d.rowTab, 0, uint64(len(d.rowIdx)), false)
	}
	if !d.st.Intact() {
		telSalvageFiles.Inc()
		telSalvageRecovered.Add(uint64(d.st.Trees))
		telSalvageLost.Add(uint64(d.st.Lost))
	}
	return &d.st, nil
}

// errReader yields its error on every Read.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// fill appends r's bytes to the reusable buffer until it holds at least
// want bytes, or to EOF when want is negative. Each read fills the spare
// capacity, and the buffer grows only when full, so it grows with the bytes
// actually present and a small want never grows it. It returns the error
// that ended the read, nil for a clean EOF or once want bytes are held.
func (d *Decoder) fill(r io.Reader, want int) error {
	b := d.buf
	if cap(b) == 0 {
		b = make([]byte, 0, 4096)
	}
	for want < 0 || len(b) < want {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.buf = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	d.buf = b
	return nil
}

// short is the error for input that ended before a complete record: the
// read error that cut the image short if there was one, ErrTruncated
// otherwise.
func (d *Decoder) short() error {
	if d.readErr != nil {
		return d.readErr
	}
	telTruncations.Inc()
	return fmt.Errorf("%w (unexpected EOF)", ErrTruncated)
}

// errShort reports a checksummed section payload that ended inside a
// record — writer damage (or a CRC collision), not stream truncation.
var errShort = io.ErrUnexpectedEOF

var errVarint = errors.New("varint overflows a 64-bit integer")

// asTruncated classifies a header or sidecar payload that ended inside a
// record as ErrTruncated, so callers can tell it from other damage with
// errors.Is.
func asTruncated(err error) error {
	if errors.Is(err, errShort) {
		telTruncations.Inc()
		return fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	return err
}

// uvarint decodes one varint at b[off:], returning the offset past it.
// Its call does not inline (the slow path is over the inliner's budget),
// so the hot loops of staging test the one-byte case — nearly every
// varint in a profile — themselves and call uvarint only past it:
//
//	if off < len(b) && b[off] < 0x80 {
//		v, off = uint64(b[off]), off+1
//	} else if v, off, err = uvarint(b, off); err != nil {
func uvarint(b []byte, off int) (uint64, int, error) {
	if off < len(b) && b[off] < 0x80 {
		return uint64(b[off]), off + 1, nil
	}
	v, k := binary.Uvarint(b[off:])
	if k > 0 {
		return v, off + k, nil
	}
	if k == 0 {
		return 0, off, errShort
	}
	return 0, off, errVarint
}

// treeNames avoids formatting a section name per tree per file.
var treeNames = func() (n [cct.NumClasses]string) {
	for c := range n {
		n[c] = fmt.Sprintf("tree %d", c)
	}
	return n
}()

// section reads the `len · payload · crc` frame at *off and verifies the
// checksum. On a checksum failure *off is past the section and resync is
// true — the caller may continue with the next section; on any other
// failure the framing is lost.
func (d *Decoder) section(img []byte, off *int, what string) (payload []byte, resync bool, err error) {
	n, p, verr := uvarint(img, *off)
	if verr != nil {
		if verr == errShort {
			verr = d.short()
		}
		return nil, false, fmt.Errorf("%s: reading section length: %w", what, verr)
	}
	if n > maxSection {
		return nil, false, fmt.Errorf("%s: unreasonable section size %d", what, n)
	}
	if have := len(img) - p; uint64(have) < n {
		telReadBytes.Add(uint64(have))
		if d.readErr != nil {
			return nil, false, fmt.Errorf("%s: %w after %d/%d payload bytes (%v)", what, ErrTruncated, have, n, d.readErr)
		}
		telTruncations.Inc()
		return nil, false, fmt.Errorf("%s: %w after %d/%d payload bytes", what, ErrTruncated, have, n)
	}
	payload = img[p : p+int(n)]
	p += int(n)
	telReadBytes.Add(n + 4) // payload + stored checksum
	if len(img)-p < 4 {
		return nil, false, fmt.Errorf("%s: reading checksum: %w", what, d.short())
	}
	stored := binary.LittleEndian.Uint32(img[p:])
	*off = p + 4
	if got := crc32.ChecksumIEEE(payload); got != stored {
		telCRCFailures.Inc()
		return nil, true, fmt.Errorf("%s: %w: computed %08x, stored %08x", what, ErrChecksum, got, stored)
	}
	telReadSections.Inc()
	return payload, false, nil
}

// stageFramed stages a v2 or v3 image. Its bookkeeping is the salvage
// contract: a tree section that is present but damaged loses only its own
// class, a truncation or framing failure loses every class from there on,
// and the footer and trailers are only reachable when the framing held.
func (d *Decoder) stageFramed(img []byte) error {
	st := &d.st
	off := 8
	payload, _, err := d.section(img, &off, "header")
	if err != nil {
		return fmt.Errorf("profio: %w", err)
	}
	if err := d.stageHeader(payload); err != nil {
		return err
	}

	framed := true
	for c := 0; c < cct.NumClasses; c++ {
		payload, resync, err := d.section(img, &off, treeNames[c])
		if err != nil {
			st.Errs = append(st.Errs, fmt.Errorf("profio: %w", err))
			if resync {
				st.Lost++
				continue
			}
			st.Lost += cct.NumClasses - c
			framed = false
			break
		}
		if st.Version == Version {
			err = d.stageTree(c, payload)
		} else {
			_, err = d.stageRows(c, payload, 0, true)
		}
		if err != nil {
			st.Errs = append(st.Errs, fmt.Errorf("profio: tree %d: %w", c, err))
			st.Lost++
			continue
		}
		sp := &d.span[c]
		st.Trees++
		st.NodesRead += sp.nodeN - sp.node0
	}
	telReadNodes.Add(uint64(st.NodesRead))
	if framed {
		err := d.stageFooter(img, &off)
		if err == nil {
			err = d.stageTrailers(img, off)
		}
		if err != nil {
			st.Errs = append(st.Errs, err)
		}
	}
	st.SidecarOnly = st.Lost == 0 && len(st.Errs) > 0 && d.damaged
	return nil
}

// stageV1 stages a v1 image: the header fields and then the row trees back
// to back, with no framing, checksums, footer or trailers. The offset of a
// tree is known only once the tree before it has parsed, so the first
// failure loses every class from there on. Bytes after the last tree are
// not read.
func (d *Decoder) stageV1(img []byte) error {
	st := &d.st
	off, err := d.parseIdent(img, 8)
	if err != nil {
		return fmt.Errorf("profio: header: %w", d.cut(err))
	}
	for c := 0; c < cct.NumClasses; c++ {
		end, err := d.stageRows(c, img, off, false)
		if err != nil {
			st.Errs = append(st.Errs, fmt.Errorf("profio: tree %d: %w", c, d.cut(err)))
			st.Lost += cct.NumClasses - c
			break
		}
		off = end
		sp := &d.span[c]
		st.Trees++
		st.NodesRead += sp.nodeN - sp.node0
	}
	telReadNodes.Add(uint64(st.NodesRead))
	return nil
}

// cut classifies an unframed record that ran into the end of the image as
// the image having been cut short.
func (d *Decoder) cut(err error) error {
	if err == errShort {
		return d.short()
	}
	return err
}

// stageHeader decodes the header section: rank, thread, string table and
// event, then (v3) the frame table. Strings resolve through the
// decoder-local cache (a hit allocates nothing), frame-table entries
// through the decoder-local memo; an entry the memo does not know waits
// for Apply, which interns it.
func (d *Decoder) stageHeader(b []byte) error {
	off, err := d.parseIdent(b, 0)
	if err == nil && d.st.Version == Version {
		off, err = d.parseFrameTable(b, off)
	}
	if err == nil && off != len(b) {
		err = fmt.Errorf("trailing bytes in section")
	}
	if err != nil {
		return fmt.Errorf("profio: header: %w", asTruncated(err))
	}
	return nil
}

// parseIdent decodes rank, thread, string table and event index at b[off:]
// and returns the offset past them.
func (d *Decoder) parseIdent(b []byte, off int) (int, error) {
	rank, off, err := uvarint(b, off)
	if err != nil {
		return off, err
	}
	thread, off, err := uvarint(b, off)
	if err != nil {
		return off, err
	}
	nStrs, off, err := uvarint(b, off)
	if err != nil {
		return off, err
	}
	if nStrs > 1<<24 {
		return off, fmt.Errorf("unreasonable string table size %d", nStrs)
	}
	// Scratch grows with the entries actually present, never with the
	// claimed count: every entry consumes at least one payload byte.
	d.strs = d.strs[:0]
	for i := uint64(0); i < nStrs; i++ {
		var n uint64
		if off < len(b) && b[off] < 0x80 {
			n, off = uint64(b[off]), off+1
		} else if n, off, err = uvarint(b, off); err != nil {
			return off, err
		}
		if n > 1<<16 {
			return off, fmt.Errorf("unreasonable string length %d", n)
		}
		if uint64(len(b)-off) < n {
			return off, errShort
		}
		raw := b[off : off+int(n)]
		off += int(n)
		id, ok := d.strIDs[string(raw)]
		if !ok {
			s := string(raw)
			if d.in != nil {
				s = d.in.Intern(s)
			}
			id = uint32(len(d.strTab))
			d.strTab = append(d.strTab, s)
			if d.strIDs != nil {
				d.strIDs[s] = id
			}
		}
		d.strs = append(d.strs, id)
	}
	eventIdx, off, err := uvarint(b, off)
	if err != nil {
		return off, err
	}
	if eventIdx >= uint64(len(d.strs)) {
		return off, fmt.Errorf("string index %d out of range", eventIdx)
	}
	d.st.Rank, d.st.Thread = int(rank), int(thread)
	d.st.Event = d.strTab[d.strs[eventIdx]]
	return off, nil
}

// parseFrameTable decodes the v3 header's frame table at b[off:].
func (d *Decoder) parseFrameTable(b []byte, off int) (int, error) {
	nFrames, off, err := uvarint(b, off)
	if err != nil {
		return off, fmt.Errorf("frame table: %w", err)
	}
	if nFrames > 1<<24 {
		return off, fmt.Errorf("unreasonable frame table size %d", nFrames)
	}
	d.frameSrc = b[off:]
	return d.parseFrames(b, off, nFrames, false)
}

// parseFrames decodes the n frame-table entries at b[off:] into frameTab
// and returns the offset past them. An entry the decoder's memo knows
// resolves to its interned frame. Any other is interned when intern is set
// — Apply's pass — and otherwise left 0 and counted in missed: staging
// never interns.
func (d *Decoder) parseFrames(b []byte, off int, n uint64, intern bool) (int, error) {
	d.frameTab, d.missed = d.frameTab[:0], 0
	var err error
	for i := uint64(0); i < n; i++ {
		if off >= len(b) {
			return off, fmt.Errorf("frame table entry %d: %w", i, errShort)
		}
		key := frameKey{kind: b[off]}
		off++
		// Module, name and file string indices, then the line.
		var ref [4]uint64
		for k := range ref {
			if off < len(b) && b[off] < 0x80 {
				ref[k], off = uint64(b[off]), off+1
			} else if ref[k], off, err = uvarint(b, off); err != nil {
				return off, fmt.Errorf("frame table entry %d: %w", i, err)
			}
		}
		for _, r := range ref[:3] {
			if r >= uint64(len(d.strs)) {
				return off, fmt.Errorf("string index %d out of range", r)
			}
		}
		key.mod, key.name, key.file, key.line = d.strs[ref[0]], d.strs[ref[1]], d.strs[ref[2]], ref[3]
		id, ok := d.frames.get(&key)
		switch {
		case ok:
		case intern:
			id = cct.InternFrame(cct.Frame{
				Kind:   cct.Kind(key.kind),
				Module: d.strTab[key.mod],
				Name:   d.strTab[key.name],
				File:   d.strTab[key.file],
				Line:   int(int64(key.line)),
			})
			d.frames.put(&key, id)
		default:
			d.missed++
		}
		d.frameTab = append(d.frameTab, id)
	}
	return off, nil
}

// stageTree decodes one columnar tree section into the flat scratch
// columns. On failure the columns are rolled back, so a damaged tree
// leaves nothing staged. The columns never grow past what the payload's
// own length can account for, whatever count it claims.
func (d *Decoder) stageTree(c int, b []byte) (err error) {
	sp := treeSpan{node0: len(d.parent), ent0: len(d.ents)}
	defer func() {
		if err != nil {
			d.parent, d.frame, d.ents = d.parent[:sp.node0], d.frame[:sp.node0], d.ents[:sp.ent0]
		}
	}()
	count, off, err := uvarint(b, 0)
	if err != nil {
		return err
	}
	if count == 0 {
		return fmt.Errorf("empty node array (even the root must be present)")
	}
	if count > 1<<28 {
		return fmt.Errorf("unreasonable node count %d", count)
	}
	// Every node costs at least a frame-column byte, so a count the payload
	// cannot hold is damage — and a count it can hold is safe to reserve.
	if count > uint64(len(b)) {
		return errShort
	}
	d.parent = slices.Grow(d.parent, int(count))
	d.frame = slices.Grow(d.frame, int(count))
	// Parent column: gap ≥ 1 back to an earlier node.
	d.parent = append(d.parent, 0)
	for i := uint64(1); i < count; i++ {
		var gap uint64
		if off < len(b) && b[off] < 0x80 {
			gap, off = uint64(b[off]), off+1
		} else if gap, off, err = uvarint(b, off); err != nil {
			return err
		}
		if gap == 0 || gap > i {
			return fmt.Errorf("node %d: parent gap %d out of range", i, gap)
		}
		d.parent = append(d.parent, uint32(i-gap))
	}
	// Frame column: running delta over frame-table indices, kept as
	// indices; Apply maps them through the resolved table. The root's own
	// frame rides in the column for symmetry and is ignored by Apply, as
	// v1/v2 ignore the root record's frame fields.
	fi := int64(0)
	for i := uint64(0); i < count; i++ {
		var u uint64
		if off < len(b) && b[off] < 0x80 {
			u, off = uint64(b[off]), off+1
		} else if u, off, err = uvarint(b, off); err != nil {
			return err
		}
		fi += unzigzag(u)
		if fi < 0 || fi >= int64(len(d.frameTab)) {
			return fmt.Errorf("node %d: frame index %d out of range", i, fi)
		}
		d.frame = append(d.frame, uint32(fi))
	}
	// Metric columns.
	if off >= len(b) {
		return errShort
	}
	ncols := int(b[off])
	off++
	if ncols > int(metric.NumMetrics) {
		return fmt.Errorf("metric column count %d out of range", ncols)
	}
	prevID := -1
	for col := 0; col < ncols; col++ {
		if off >= len(b) {
			return errShort
		}
		id := b[off]
		off++
		if int(id) >= int(metric.NumMetrics) {
			return fmt.Errorf("metric id %d out of range", id)
		}
		if int(id) <= prevID {
			return fmt.Errorf("metric columns out of order (%d after %d)", id, prevID)
		}
		prevID = int(id)
		var n uint64
		if n, off, err = uvarint(b, off); err != nil {
			return err
		}
		if n > count {
			return fmt.Errorf("metric column %d: %d entries for %d nodes", id, n, count)
		}
		idx := uint64(0)
		for e := uint64(0); e < n; e++ {
			var delta, v uint64
			if off < len(b) && b[off] < 0x80 {
				delta, off = uint64(b[off]), off+1
			} else if delta, off, err = uvarint(b, off); err != nil {
				return err
			}
			switch {
			case e == 0:
				idx = delta
			case delta == 0 || delta > count:
				return fmt.Errorf("metric column %d: non-ascending node index", id)
			default:
				idx += delta
			}
			if idx >= count {
				return fmt.Errorf("metric column %d: node index %d out of range", id, idx)
			}
			if off < len(b) && b[off] < 0x80 {
				v, off = uint64(b[off]), off+1
			} else if v, off, err = uvarint(b, off); err != nil {
				return err
			}
			d.ents = append(d.ents, metricEnt{v: v, node: uint32(idx), id: id})
		}
	}
	if off != len(b) {
		return fmt.Errorf("trailing bytes in tree section")
	}
	sp.nodeN, sp.entN = len(d.parent), len(d.ents)
	d.span[c] = sp
	return nil
}

// stageRows stages the row-encoded (v1/v2) tree at b[off:] into the same
// columns stageTree fills, and returns the offset past it; whole requires
// the tree to end the payload. Each row is
//
//	u32 parent (^0 for the root) · byte kind · uvarint module · uvarint
//	name · uvarint file · uvarint line · byte nnz · (byte metricID ·
//	uvarint value)×nnz
//
// with string-table indices; a row frame not seen before in this image
// joins the row frame table. On failure the columns and the frame table
// are rolled back, so a damaged tree leaves nothing staged.
func (d *Decoder) stageRows(c int, b []byte, off int, whole bool) (_ int, err error) {
	sp := treeSpan{node0: len(d.parent), ent0: len(d.ents)}
	tab0, idx0 := len(d.rowTab), uint32(len(d.rowIdx))
	defer func() {
		if err != nil {
			d.parent, d.frame, d.ents = d.parent[:sp.node0], d.frame[:sp.node0], d.ents[:sp.ent0]
			d.rowTab = d.rowTab[:tab0]
			for k, i := range d.rowIdx {
				if i >= idx0 {
					delete(d.rowIdx, k)
				}
			}
		}
	}()
	if d.rowIdx == nil {
		d.rowIdx = make(map[frameKey]uint32)
	}
	count, off, err := uvarint(b, off)
	if err != nil {
		return off, err
	}
	if count == 0 {
		return off, fmt.Errorf("empty node array (even the root must be present)")
	}
	if count > 1<<28 {
		return off, fmt.Errorf("unreasonable node count %d", count)
	}
	// Every row takes at least ten bytes, so a count the bytes left cannot
	// hold is damage — and a count they can hold is safe to reserve.
	if count > uint64(len(b)-off) {
		return off, errShort
	}
	d.parent = slices.Grow(d.parent, int(count))
	d.frame = slices.Grow(d.frame, int(count))
	for i := uint64(0); i < count; i++ {
		if len(b)-off < 5 {
			return off, errShort
		}
		parent := binary.LittleEndian.Uint32(b[off:])
		key := frameKey{kind: b[off+4]}
		off += 5
		switch {
		case parent == noParent:
			if i != 0 {
				return off, fmt.Errorf("non-first node %d has no parent", i)
			}
			parent = 0
		case uint64(parent) >= i:
			return off, fmt.Errorf("node %d references later/self parent %d", i, parent)
		}
		// Module, name and file string indices, then the line.
		var ref [4]uint64
		for k := range ref {
			if ref[k], off, err = uvarint(b, off); err != nil {
				return off, err
			}
		}
		for _, r := range ref[:3] {
			if r >= uint64(len(d.strs)) {
				return off, fmt.Errorf("string index %d out of range", r)
			}
		}
		key.mod, key.name, key.file, key.line = d.strs[ref[0]], d.strs[ref[1]], d.strs[ref[2]], ref[3]
		fi, ok := d.rowIdx[key]
		if !ok {
			fi = uint32(len(d.rowIdx))
			d.rowIdx[key] = fi
			d.rowTab = append(d.rowTab, key.kind)
			for _, r := range ref {
				d.rowTab = binary.AppendUvarint(d.rowTab, r)
			}
		}
		d.parent = append(d.parent, parent)
		d.frame = append(d.frame, fi)

		if off >= len(b) {
			return off, errShort
		}
		nz := int(b[off])
		off++
		for k := 0; k < nz; k++ {
			if off >= len(b) {
				return off, errShort
			}
			id := b[off]
			off++
			if int(id) >= int(metric.NumMetrics) {
				return off, fmt.Errorf("metric id %d out of range", id)
			}
			var v uint64
			if v, off, err = uvarint(b, off); err != nil {
				return off, err
			}
			d.ents = append(d.ents, metricEnt{v: v, node: uint32(i), id: id})
		}
	}
	if whole && off != len(b) {
		return off, fmt.Errorf("trailing bytes in tree section")
	}
	sp.nodeN, sp.entN = len(d.parent), len(d.ents)
	d.span[c] = sp
	return off, nil
}

// stageFooter validates the end-of-file footer: magic and checksummed
// total node count. The count is only compared to the staged total when
// every tree section staged clean — a salvaged file legitimately holds
// fewer nodes than the writer recorded.
func (d *Decoder) stageFooter(img []byte, off *int) error {
	p := *off
	if len(img)-p < 4 {
		return fmt.Errorf("profio: footer: reading magic: %w", d.short())
	}
	if m := binary.LittleEndian.Uint32(img[p:]); m != FooterMagic {
		return fmt.Errorf("profio: footer: bad magic %#x", m)
	}
	p += 4
	count, q, err := uvarint(img, p)
	if err != nil {
		if err == errShort {
			err = d.short()
		}
		return fmt.Errorf("profio: footer: %w", err)
	}
	if len(img)-q < 4 {
		return fmt.Errorf("profio: footer: reading checksum: %w", d.short())
	}
	stored := binary.LittleEndian.Uint32(img[q:])
	// Checksum covers the exact varint bytes of the count.
	if got := crc32.ChecksumIEEE(img[p:q]); got != stored {
		telCRCFailures.Inc()
		return fmt.Errorf("profio: footer: %w: computed %08x, stored %08x", ErrChecksum, got, stored)
	}
	if d.st.Lost == 0 && count != uint64(d.st.NodesRead) {
		return fmt.Errorf("profio: footer: record count %d, decoded %d", count, d.st.NodesRead)
	}
	*off = q + 4
	return nil
}

// stageTrailers scans the tagged sections after the footer:
// `u32 magic · uvarint len · payload · u32 CRC`. Known magics stage;
// unknown ones are checksum-verified and skipped, which is how older
// readers of future formats (and this one, for sidecars it does not know)
// coexist with newer writers. The end of the image is the normal way out.
// The trees are already staged, so a damaged trailer costs only the
// sidecar.
func (d *Decoder) stageTrailers(img []byte, off int) error {
	var counts [cct.NumClasses]int
	for c, sp := range d.span {
		counts[c] = sp.nodeN - sp.node0
	}
	for {
		if off == len(img) && d.readErr == nil {
			return nil
		}
		if len(img)-off < 4 {
			// A read error here is not format-level damage: a flaky disk
			// must not pass for "just a lost sidecar".
			d.damaged = d.readErr == nil
			return fmt.Errorf("profio: trailer: reading magic: %w", d.short())
		}
		m := binary.LittleEndian.Uint32(img[off:])
		off += 4
		payload, _, err := d.section(img, &off, "trailer")
		if err != nil {
			d.damaged = d.readErr == nil && (errors.Is(err, ErrChecksum) || errors.Is(err, ErrTruncated))
			return fmt.Errorf("profio: trailer %#x: %w", m, err)
		}
		switch m {
		case TemporalMagic, TemporalRowsMagic:
			if d.haveTS {
				d.damaged = true
				return fmt.Errorf("profio: duplicate temporal trailer section")
			}
			if err := d.series.stage(m, payload, &counts); err != nil {
				d.damaged = true
				return fmt.Errorf("profio: temporal sidecar: %w", err)
			}
			d.haveTS = len(d.series.wins) > 0 // an empty sidecar is no sidecar
			telTemporalRead.Inc()
		default:
			// Unknown trailer: intact (the checksum held), just not ours.
			telTrailerSkipped.Inc()
		}
	}
}

// Apply walks every tree of the last staged image that staged clean into
// p, creating only the calling contexts p does not have yet, and returns
// the image's temporal sidecar resolved against p's nodes (nil when it
// had none, or lost it). It cannot fail. The returned series is backed by
// the decoder's scratch: it is valid until the next Stage.
func (d *Decoder) Apply(p *cct.Profile) *cct.TimeSeries {
	if cap(d.nodes) < len(d.parent) {
		d.nodes = make([]*cct.Node, len(d.parent))
	}
	d.nodes = d.nodes[:len(d.parent)]
	d.resolveFrames()
	tab := d.frameTab
	var classNodes [cct.NumClasses][]*cct.Node
	for c, sp := range d.span {
		if sp.nodeN == sp.node0 {
			continue
		}
		nodes := d.nodes[sp.node0:sp.nodeN]
		parent, frame := d.parent[sp.node0:sp.nodeN], d.frame[sp.node0:sp.nodeN]
		t := p.Trees[c]
		nodes[0] = t.Root
		for i := 1; i < len(nodes); i++ {
			nodes[i] = nodes[parent[i]].ChildID(tab[frame[i]])
		}
		for _, e := range d.ents[sp.ent0:sp.entN] {
			t.AddMetric(nodes[e.node], metric.ID(e.id), e.v)
		}
		classNodes[c] = nodes
	}
	if !d.haveTS {
		return nil
	}
	return d.series.resolve(&classNodes)
}

// resolveFrames completes frameTab when staging left entries unresolved —
// frames no earlier image of this decoder declared — by parsing the staged
// frame table again with interning on. The entries were validated when
// staged, so the second parse cannot fail. A warm decoder misses nothing
// and skips it.
func (d *Decoder) resolveFrames() {
	if d.missed > 0 {
		_, _ = d.parseFrames(d.frameSrc, 0, uint64(len(d.frameTab)), true)
	}
}

// materialize applies the staged image into a profile of its own.
func (d *Decoder) materialize() *cct.Profile {
	p := cct.NewProfile(d.st.Rank, d.st.Thread, d.st.Event)
	p.Temporal = d.Apply(p)
	return p
}
