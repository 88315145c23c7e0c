package profio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dcprof/internal/cct"
)

// TestCorruptionNeverPanics flips bytes all over a valid profile image and
// requires ReadProfile to either error out or return a structurally valid
// profile — never panic, never hang, never allocate absurdly.
func TestCorruptionNeverPanics(t *testing.T) {
	p := sampleProfile(1, 1)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		img := append([]byte{}, pristine...)
		flips := rng.Intn(4) + 1
		for f := 0; f < flips; f++ {
			img[rng.Intn(len(img))] ^= byte(1 << rng.Intn(8))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: ReadProfile panicked: %v", trial, r)
				}
			}()
			got, err := ReadProfile(bytes.NewReader(img))
			if err == nil && got != nil {
				// Accidentally still parseable: must be well-formed.
				_ = got.NumNodes()
				_ = got.Total()
			}
		}()
	}
}

// TestTruncationSweep truncates at every prefix length of a small profile.
func TestTruncationSweep(t *testing.T) {
	p := cctSmall()
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for n := 0; n < len(img); n++ {
		if _, err := ReadProfile(bytes.NewReader(img[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(img))
		}
	}
	if _, err := ReadProfile(bytes.NewReader(img)); err != nil {
		t.Fatalf("full image rejected: %v", err)
	}
}

func cctSmall() *cct.Profile {
	return sampleProfile(0, 0)
}

// imageHeader hand-encodes a minimal valid v1 header with a one-entry
// string table, up to the point where the first tree begins. The tree
// record encoding is identical in v1 and v2 (v2 merely frames it in a
// checksummed section), so these images exercise the shared record-level
// validation through the simpler v1 path.
func imageHeader() (*bytes.Buffer, *bufio.Writer) {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeU32(w, Magic)
	writeU32(w, Version1)
	writeUvarint(w, 0) // rank
	writeUvarint(w, 0) // thread
	writeUvarint(w, 1) // one string
	writeUvarint(w, 1)
	w.WriteString("a")
	writeUvarint(w, 0) // event index
	return &buf, w
}

// writeNode hand-encodes one node record with no metrics.
func writeNode(w *bufio.Writer, parent uint32, strIdx uint64) {
	writeU32(w, parent)
	w.WriteByte(byte(cct.KindCall))
	writeUvarint(w, strIdx) // module
	writeUvarint(w, strIdx) // name
	writeUvarint(w, strIdx) // file
	writeUvarint(w, 0)      // line
	w.WriteByte(0)          // no metrics
}

// imageWithBadStringIndex encodes a node whose name index points past the
// string table.
func imageWithBadStringIndex() []byte {
	buf, w := imageHeader()
	writeUvarint(w, 2) // two nodes
	writeNode(w, noParent, 0)
	writeNode(w, 0, 99) // string index out of range
	w.Flush()
	return buf.Bytes()
}

// imageWithCyclicParent encodes a node that names itself as its parent —
// the representative of the cyclic/forward parent-index corruption class.
func imageWithCyclicParent() []byte {
	buf, w := imageHeader()
	writeUvarint(w, 2)
	writeNode(w, noParent, 0)
	writeNode(w, 1, 0) // node 1's parent is node 1: a cycle
	w.Flush()
	return buf.Bytes()
}

// imageWithForwardParent encodes a node whose parent index points at a
// not-yet-decoded node.
func imageWithForwardParent() []byte {
	buf, w := imageHeader()
	writeUvarint(w, 3)
	writeNode(w, noParent, 0)
	writeNode(w, 2, 0) // parent decoded only later
	writeNode(w, 0, 0)
	w.Flush()
	return buf.Bytes()
}

// imageWithSecondRoot encodes a non-first node that claims to be a root.
func imageWithSecondRoot() []byte {
	buf, w := imageHeader()
	writeUvarint(w, 2)
	writeNode(w, noParent, 0)
	writeNode(w, noParent, 0)
	w.Flush()
	return buf.Bytes()
}

// encodeV1 hand-encodes a profile in the legacy v1 layout (no sections,
// checksums, or footer) — the compatibility surface v2 must keep reading.
func encodeV1(t testing.TB, p *cct.Profile) []byte {
	t.Helper()
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

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeU32(w, Magic)
	writeU32(w, Version1)
	writeUvarint(w, uint64(p.Rank))
	writeUvarint(w, uint64(p.Thread))
	writeUvarint(w, uint64(len(strs.list)))
	for _, s := range strs.list {
		writeUvarint(w, uint64(len(s)))
		w.WriteString(s)
	}
	writeUvarint(w, uint64(strs.idx[p.Event]))
	for _, tree := range p.Trees {
		if _, err := writeTree(w, tree, strs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV1CompatRoundTrip: v1 files written by older profilers must keep
// decoding bit-exact under the v2 reader.
func TestV1CompatRoundTrip(t *testing.T) {
	p := sampleProfile(3, 17)
	img := encodeV1(t, p)
	dec := new(Decoder)
	st, err := dec.Stage(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != Version1 {
		t.Errorf("version = %d, want %d", st.Version, Version1)
	}
	if !st.Intact() {
		t.Fatal(st.Errs[0])
	}
	got := dec.materialize()
	profilesEqual(t, p, got)
}

// sectionBoundaries parses a v2 image and returns the byte offset just
// past each section (header, then each tree) — the seams fault tests cut
// and corrupt at. The final entry is where the footer begins.
func sectionBoundaries(t *testing.T, img []byte) []int {
	t.Helper()
	pos := 8 // magic + version
	var out []int
	for s := 0; s < 1+cct.NumClasses; s++ {
		n, k := binary.Uvarint(img[pos:])
		if k <= 0 {
			t.Fatalf("section %d: bad length varint at %d", s, pos)
		}
		pos += k + int(n) + 4 // varint, payload, crc
		out = append(out, pos)
	}
	return out
}

// TestEveryBitFlipDetected is the integrity guarantee v1 could not make:
// flipping ANY single bit of a v2 image must produce a read error — magic
// and version are checked, every section payload and the footer count are
// checksummed, and the checksums themselves can only mismatch.
func TestEveryBitFlipDetected(t *testing.T) {
	p := sampleProfile(1, 1)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	pristine := buf.Bytes()
	for off := 0; off < len(pristine); off++ {
		for bit := 0; bit < 8; bit++ {
			img := append([]byte{}, pristine...)
			img[off] ^= 1 << bit
			if _, err := ReadProfile(bytes.NewReader(img)); err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", off, bit)
			}
		}
	}
}

// TestSalvageCorruptSection: damage confined to one checksummed tree
// section must cost exactly that class; the others salvage.
func TestSalvageCorruptSection(t *testing.T) {
	p := sampleProfile(2, 9)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	b := sectionBoundaries(t, img)

	for tree := 0; tree < cct.NumClasses; tree++ {
		damaged := append([]byte{}, img...)
		damaged[b[tree]+3] ^= 0x40 // inside tree section's payload
		s, err := SalvageProfile(bytes.NewReader(damaged), nil)
		if err != nil {
			t.Fatalf("tree %d: header should be salvageable: %v", tree, err)
		}
		if s.Trees != cct.NumClasses-1 || s.Lost != 1 {
			t.Errorf("tree %d: salvaged %d lost %d, want %d/1", tree, s.Trees, s.Lost, cct.NumClasses-1)
		}
		if len(s.Errs) != 1 || !strings.Contains(s.Errs[0].Error(), "checksum") {
			t.Errorf("tree %d: errs %v, want one checksum error", tree, s.Errs)
		}
		if s.Intact() {
			t.Errorf("tree %d: damaged file reported intact", tree)
		}
		// The salvaged classes must carry exactly the original data.
		for c := 0; c < cct.NumClasses; c++ {
			if c == tree {
				continue
			}
			if got, want := s.Profile.Trees[c].Total(), p.Trees[c].Total(); got != want {
				t.Errorf("tree %d: salvaged class %d total %v, want %v", tree, c, got, want)
			}
		}
	}
}

// TestSalvageTruncatedFile: a cut at a section seam keeps everything
// before the cut and loses everything after.
func TestSalvageTruncatedFile(t *testing.T) {
	p := sampleProfile(4, 2)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	b := sectionBoundaries(t, img)

	for keep := 0; keep <= cct.NumClasses; keep++ {
		// Cut right after `keep` tree sections (b[0] ends the header).
		s, err := SalvageProfile(bytes.NewReader(img[:b[keep]]), nil)
		if err != nil {
			t.Fatalf("keep=%d: %v", keep, err)
		}
		if s.Trees != keep || s.Lost != cct.NumClasses-keep {
			t.Errorf("keep=%d: salvaged %d lost %d", keep, s.Trees, s.Lost)
		}
		if len(s.Errs) == 0 {
			t.Errorf("keep=%d: truncation produced no error", keep)
		}
	}

	// Header destroyed: nothing salvageable, SalvageProfile must say so.
	if _, err := SalvageProfile(bytes.NewReader(img[:6]), nil); err == nil {
		t.Error("salvage of headerless file succeeded")
	}
}

// TestSalvageV1Partial: v1 has no framing, so salvage degrades to "trees
// before the first failure".
func TestSalvageV1Partial(t *testing.T) {
	p := sampleProfile(0, 1)
	img := encodeV1(t, p)
	s, err := SalvageProfile(bytes.NewReader(img[:len(img)-3]), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trees+s.Lost != cct.NumClasses || s.Lost == 0 {
		t.Errorf("salvaged %d lost %d, want a partial split of %d", s.Trees, s.Lost, cct.NumClasses)
	}
	// Intact v1 file: salvage degenerates to a clean read.
	s, err = SalvageProfile(bytes.NewReader(img), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Intact() || s.Trees != cct.NumClasses {
		t.Errorf("intact v1: %d trees, errs %v", s.Trees, s.Errs)
	}
}

// TestFooterValidation: footer damage is detected even when every tree is
// fine, and salvage still recovers all trees while reporting it.
func TestFooterValidation(t *testing.T) {
	p := sampleProfile(5, 5)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	for name, mutate := range map[string]func([]byte) []byte{
		"missing":     func(b []byte) []byte { return b[:len(b)-9] },
		"bad magic":   func(b []byte) []byte { c := append([]byte{}, b...); c[len(c)-9] ^= 0xff; return c },
		"bad crc":     func(b []byte) []byte { c := append([]byte{}, b...); c[len(c)-1] ^= 0x01; return c },
		"wrong count": func(b []byte) []byte { c := append([]byte{}, b...); c[len(c)-5] ^= 0x07; return c },
		"trailing":    func(b []byte) []byte { return append(append([]byte{}, b...), 0xaa) },
	} {
		bad := mutate(img)
		if _, err := ReadProfile(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
		s, err := SalvageProfile(bytes.NewReader(bad), nil)
		if err != nil {
			t.Errorf("%s: salvage refused: %v", name, err)
			continue
		}
		if s.Trees != cct.NumClasses {
			t.Errorf("%s: salvaged %d trees, want all %d", name, s.Trees, cct.NumClasses)
		}
		if len(s.Errs) == 0 {
			t.Errorf("%s: no error recorded", name)
		}
	}
}

// TestHugeClaimedCountFailsFast guards the fuzz-found DoS: a header
// claiming ~2^28 nodes (just under the sanity limit) must not trigger a
// gigabyte preallocation before the first record fails to decode.
func TestHugeClaimedCountFailsFast(t *testing.T) {
	buf, w := imageHeader()
	writeUvarint(w, 1<<28-1) // absurd node count, then nothing
	w.Flush()
	start := time.Now()
	if _, err := ReadProfile(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("truncated huge-count image accepted")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %s; claimed count caused a huge allocation", d)
	}
}

func TestCorruptStringIndexRejected(t *testing.T) {
	_, err := ReadProfile(bytes.NewReader(imageWithBadStringIndex()))
	if err == nil {
		t.Fatal("out-of-range string index accepted")
	}
	if !strings.Contains(err.Error(), "string index") {
		t.Errorf("error %q does not blame the string index", err)
	}
}

func TestCyclicParentRejected(t *testing.T) {
	for name, img := range map[string][]byte{
		"self-cycle": imageWithCyclicParent(),
		"forward":    imageWithForwardParent(),
	} {
		_, err := ReadProfile(bytes.NewReader(img))
		if err == nil {
			t.Fatalf("%s: cyclic/forward parent index accepted", name)
		}
		if !strings.Contains(err.Error(), "parent") {
			t.Errorf("%s: error %q does not blame the parent index", name, err)
		}
	}
}
