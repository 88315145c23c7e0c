package profio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// temporalProfile builds a sidecar-bearing profile: the sampleProfile
// trees plus a three-window series touching the heap and static trees.
func temporalProfile(rank, thread int) *cct.Profile {
	p := sampleProfile(rank, thread)
	var heapLeaf, staticLeaf *cct.Node
	p.Trees[cct.ClassHeap].Walk(func(n *cct.Node, _ int) bool {
		if n.NumChildren() == 0 {
			heapLeaf = n
		}
		return true
	})
	p.Trees[cct.ClassStatic].Walk(func(n *cct.Node, _ int) bool {
		if n.NumChildren() == 0 {
			staticLeaf = n
		}
		return true
	})
	mk := func(samples, lat uint64) metric.Vector {
		var v metric.Vector
		v[metric.Samples] = samples
		v[metric.Latency] = lat
		return v
	}
	p.Temporal = &cct.TimeSeries{
		Width: 4096,
		Windows: []cct.TimeWindow{
			window(0,
				delta{cct.ClassStatic, staticLeaf, mk(1, 40)},
				delta{cct.ClassHeap, heapLeaf, mk(2, 600)},
			),
			window(1,
				delta{cct.ClassHeap, heapLeaf, mk(1, 300)},
			),
			window(7,
				delta{cct.ClassHeap, heapLeaf.Parent(), mk(4, 100)},
			),
		},
	}
	return p
}

// delta is one node's dense metric increment, for building sidecars.
type delta struct {
	class cct.Class
	node  *cct.Node
	v     metric.Vector
}

// window builds sidecar window index from dense deltas.
func window(index uint64, ds ...delta) cct.TimeWindow {
	w := cct.TimeWindow{Index: index}
	for i := range ds {
		w.Add(ds[i].class, ds[i].node, &ds[i].v)
	}
	return w
}

// seriesEqual compares two sidecars structurally: same windows, and each
// delta resolves to a node with the same root path, class, and metrics.
func seriesEqual(t *testing.T, a, b *cct.TimeSeries) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatalf("sidecar presence differs: %v vs %v", a != nil, b != nil)
	}
	if a == nil {
		return
	}
	if a.Width != b.Width || len(a.Windows) != len(b.Windows) {
		t.Fatalf("series shape differs: width %d/%d, windows %d/%d",
			a.Width, b.Width, len(a.Windows), len(b.Windows))
	}
	key := func(d *cct.TimeDelta) string {
		var sb strings.Builder
		for _, f := range d.Node.Path() {
			sb.WriteString(f.String())
			sb.WriteByte('|')
		}
		return d.Class.String() + "!" + sb.String()
	}
	for i := range a.Windows {
		wa, wb := &a.Windows[i], &b.Windows[i]
		if wa.Index != wb.Index {
			t.Fatalf("window %d index %d vs %d", i, wa.Index, wb.Index)
		}
		ma := map[string]metric.Vector{}
		for j := range wa.Deltas {
			d := &wa.Deltas[j]
			v, dv := ma[key(d)], wa.Metrics(j)
			v.Add(&dv)
			ma[key(d)] = v
		}
		mb := map[string]metric.Vector{}
		for j := range wb.Deltas {
			d := &wb.Deltas[j]
			v, dv := mb[key(d)], wb.Metrics(j)
			v.Add(&dv)
			mb[key(d)] = v
		}
		if len(ma) != len(mb) {
			t.Fatalf("window %d: %d vs %d distinct deltas", i, len(ma), len(mb))
		}
		for k, va := range ma {
			if vb, ok := mb[k]; !ok || va != vb {
				t.Fatalf("window %d delta %q: %v vs %v (present %v)", i, k, va.String(), vb.String(), ok)
			}
		}
	}
}

func TestTemporalRoundTrip(t *testing.T) {
	p := temporalProfile(3, 17)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	profilesEqual(t, p, got)
	seriesEqual(t, p.Temporal, got.Temporal)

	// Decoded nodes must belong to the decoded trees, not dangle.
	for _, w := range got.Temporal.Windows {
		for _, d := range w.Deltas {
			root := d.Node
			for root.Parent() != nil {
				root = root.Parent()
			}
			if root != got.Trees[d.Class].Root {
				t.Fatal("sidecar delta not anchored in its class tree")
			}
		}
	}

	// Byte stability: encode → decode → encode is the identity.
	var buf2 bytes.Buffer
	if err := WriteProfile(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("temporal profile re-encoding differs")
	}
}

func TestTemporalAbsentStaysAbsent(t *testing.T) {
	// A profile without a sidecar writes the exact pre-trailer byte
	// stream and reads back with nil Temporal.
	p := sampleProfile(1, 2)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Temporal != nil {
		t.Fatal("sidecar materialized from nowhere")
	}
	// An empty series behaves like no series.
	p.Temporal = &cct.TimeSeries{Width: 64}
	var buf2 bytes.Buffer
	if err := WriteProfile(&buf2, p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("empty sidecar changed the encoding")
	}
}

// appendTrailer frames payload as a trailer section with the given magic.
func appendTrailer(img []byte, magic uint32, payload []byte) []byte {
	out := append([]byte{}, img...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], magic)
	out = append(out, u32[:]...)
	var n [binary.MaxVarintLen64]byte
	out = append(out, n[:binary.PutUvarint(n[:], uint64(len(payload)))]...)
	out = append(out, payload...)
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(payload))
	return append(out, u32[:]...)
}

func TestUnknownTrailerSkipped(t *testing.T) {
	p := temporalProfile(0, 0)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	img := appendTrailer(buf.Bytes(), 0x58545241 /* "XTRA" */, []byte("future section"))
	got, err := ReadProfile(bytes.NewReader(img))
	if err != nil {
		t.Fatalf("unknown trailer must be skipped, got %v", err)
	}
	profilesEqual(t, p, got)
	seriesEqual(t, p.Temporal, got.Temporal)
	if _, err := ValidateProfile(bytes.NewReader(img)); err != nil {
		t.Fatalf("validate rejected unknown trailer: %v", err)
	}
}

func TestCorruptTrailerRejectedStrict(t *testing.T) {
	p := temporalProfile(0, 0)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	img := append([]byte{}, buf.Bytes()...)
	img[len(img)-6] ^= 0x40 // inside the sidecar payload
	if _, err := ReadProfile(bytes.NewReader(img)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("strict read of damaged sidecar: %v, want checksum error", err)
	}
	// Truncated mid-trailer is a truncation, not a silent success.
	if _, err := ReadProfile(bytes.NewReader(img[:len(img)-8])); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated trailer: %v, want ErrTruncated", err)
	}
}

func TestTemporalNodeDeltaOverflowRejected(t *testing.T) {
	// A same-class node-index delta that wraps uint64 lands back inside
	// the bounds check (1 + (2^64-1) ≡ 0), silently re-attributing the
	// delta to the root. The decoder must reject the wrap itself.
	p := sampleProfile(0, 0)
	var base bytes.Buffer
	if err := WriteProfile(&base, p); err != nil {
		t.Fatal(err)
	}
	var pl []byte
	var tmp [binary.MaxVarintLen64]byte
	uv := func(x uint64) { pl = append(pl, tmp[:binary.PutUvarint(tmp[:], x)]...) }
	uv(4096) // width
	uv(1)    // one window
	uv(0)    // at index 0
	uv(2)    // two entries
	pl = append(pl, byte(cct.ClassHeap))
	uv(1) // entry 1: heap node 1, absolute
	pl = append(pl, 0)
	pl = append(pl, byte(cct.ClassHeap))
	uv(^uint64(0)) // entry 2: delta wraps back to node 0
	pl = append(pl, 0)
	img := appendTrailer(base.Bytes(), TemporalRowsMagic, pl)
	if _, err := ReadProfile(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "node index overflows") {
		t.Fatalf("wrapping node delta not rejected: %v", err)
	}
	// Salvage still recovers every tree; only the sidecar is lost.
	s, err := SalvageProfile(bytes.NewReader(img), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Trees != cct.NumClasses || s.Lost != 0 {
		t.Fatalf("trees %d lost %d, want %d/0", s.Trees, s.Lost, cct.NumClasses)
	}
	if s.Profile.Temporal != nil {
		t.Fatal("wrapping sidecar survived salvage")
	}
	if len(s.Errs) == 0 {
		t.Fatal("rejected sidecar produced no salvage note")
	}
}

func TestSalvageDamagedSidecarKeepsTrees(t *testing.T) {
	p := temporalProfile(5, 9)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func([]byte) []byte{
		"payload bit flip": func(img []byte) []byte {
			img[len(img)-6] ^= 0x40
			return img
		},
		"truncated trailer": func(img []byte) []byte {
			return img[:len(img)-8]
		},
		"trailer crc damaged": func(img []byte) []byte {
			img[len(img)-1] ^= 0x01
			return img
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := SalvageProfile(bytes.NewReader(mutate(append([]byte{}, buf.Bytes()...))), nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.Trees != cct.NumClasses || s.Lost != 0 {
				t.Fatalf("trees %d lost %d, want %d/0", s.Trees, s.Lost, cct.NumClasses)
			}
			if len(s.Errs) == 0 {
				t.Fatal("damaged sidecar produced no salvage note")
			}
			if s.Intact() {
				t.Fatal("damaged file reported intact")
			}
			if s.Profile.Temporal != nil {
				t.Fatal("damaged sidecar survived salvage")
			}
			if !s.SidecarOnly {
				t.Fatal("sidecar-only damage not classified as such")
			}
			profilesEqual(t, p, s.Profile)
		})
	}
}

func TestSalvageDamagedTreeDropsSidecar(t *testing.T) {
	// When a tree section is damaged, sidecar deltas referencing it can no
	// longer be anchored; the decoder must reject the sidecar rather than
	// resurrect data from a dropped tree.
	p := temporalProfile(0, 0)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	img := append([]byte{}, buf.Bytes()...)
	// Walk the section seams: header, then trees. Flip a byte inside the
	// heap tree's payload (section index 1 + int(cct.ClassHeap)).
	pos := 8
	target := 1 + int(cct.ClassHeap)
	for s := 0; ; s++ {
		n, k := binary.Uvarint(img[pos:])
		if k <= 0 {
			t.Fatal("bad seed image")
		}
		if s == target {
			img[pos+k+int(n)/2] ^= 0x20
			break
		}
		pos += k + int(n) + 4
	}
	s, err := SalvageProfile(bytes.NewReader(img), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Lost != 1 || s.Trees != cct.NumClasses-1 {
		t.Fatalf("trees %d lost %d, want %d/1", s.Trees, s.Lost, cct.NumClasses)
	}
	if s.Profile.Temporal != nil {
		t.Fatal("sidecar referencing a lost tree must be dropped")
	}
	if s.SidecarOnly {
		t.Fatal("tree damage misclassified as sidecar-only")
	}
}

// FuzzTemporalSection throws arbitrary bytes at the sidecar decoder four
// ways: framed as a checksum-valid "DCPT" row payload, as a "DCPC"
// payload (block length and deflate stream: inflate and the staging cap),
// as a "DCPC" column block the harness deflates (so mutations reach the
// column parser), all three so the decoder itself is always reached, and
// appended raw after the footer. None may panic; salvage must still
// recover every tree; and a sidecar that decodes re-encodes to one that
// decodes to the same series.
func FuzzTemporalSection(f *testing.F) {
	base := encodeV3(f, sampleProfile(3, 17))
	// Seed from what the encoders really write, so the fuzzer mutates
	// from structurally interesting points.
	payload := func(img []byte) []byte {
		ix, err := IndexSections(bytes.NewReader(img), int64(len(img)))
		if err != nil {
			f.Fatal(err)
		}
		tr := ix.Trailers()[0]
		return append([]byte{}, img[tr.Offset:tr.Offset+tr.Len]...)
	}
	p := temporalProfile(3, 17)
	rows := payload(encode(f, func(b *bytes.Buffer, p *cct.Profile) error { return referenceWriteProfile(b, p) }, p))
	cols := payload(encodeV3(f, p))
	_, k := binary.Uvarint(cols)
	block, err := inflateAll(cols[k:])
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{rows, cols, block, {}, {0x80, 0x01, 0x01, 0x00, 0x01}} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Staging costs at most 17 B a block byte (an empty window: the
		// byte of its entry count and 16 B staged), so a stream padded to
		// 17/16 of the block always passes the decoder's staging cap.
		z := padDeflate(data, len(data)+len(data)/maxStage+1)
		deflated := append(binary.AppendUvarint(nil, uint64(len(data))), z...)
		for _, framed := range [][]byte{
			appendTrailer(base, TemporalRowsMagic, data),
			appendTrailer(base, TemporalMagic, data),
			appendTrailer(base, TemporalMagic, deflated),
		} {
			if p, err := ReadProfile(bytes.NewReader(framed)); err == nil {
				var out bytes.Buffer
				if err := WriteProfile(&out, p); err != nil {
					t.Fatalf("decoded temporal profile failed to re-encode: %v", err)
				}
				back, err := ReadProfile(bytes.NewReader(out.Bytes()))
				if err != nil {
					t.Fatalf("re-encoded temporal profile failed to decode: %v", err)
				}
				if err := sameSeries(back, p); err != nil {
					t.Fatalf("re-encoding changed the series: %v", err)
				}
			}
			s, err := SalvageProfile(bytes.NewReader(framed), nil)
			if err != nil {
				t.Fatalf("salvage failed on framed sidecar: %v", err)
			}
			if s.Trees != cct.NumClasses {
				t.Fatalf("framed sidecar cost %d trees", cct.NumClasses-s.Trees)
			}
		}
		// Raw append: arbitrary post-footer garbage.
		raw := append(append([]byte{}, base...), data...)
		if _, err := SalvageProfile(bytes.NewReader(raw), nil); err != nil {
			t.Fatalf("salvage failed on raw trailer bytes: %v", err)
		}
	})
}
