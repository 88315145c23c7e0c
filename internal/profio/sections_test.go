package profio

import (
	"bytes"
	"hash/crc32"
	"io"
	"os"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// TestIndexSectionsLayout: the index must describe exactly the framing the
// writer emitted — header, one tree per class in class order, trailers —
// with offsets/lengths that slice the image at the right bytes.
func TestIndexSectionsLayout(t *testing.T) {
	for name, enc := range map[string]func(io.Writer, *cct.Profile) error{
		"v2": referenceWriteProfileV2,
		"v3": WriteProfile,
	} {
		t.Run(name, func(t *testing.T) {
			p := sampleProfile(3, 17)
			var buf bytes.Buffer
			if err := enc(&buf, p); err != nil {
				t.Fatal(err)
			}
			img := buf.Bytes()
			ix, err := IndexSections(bytes.NewReader(img), int64(len(img)))
			if err != nil {
				t.Fatal(err)
			}
			if want := map[string]uint32{"v2": Version2, "v3": Version}[name]; ix.Version != want {
				t.Errorf("version = %d, want %d", ix.Version, want)
			}
			if got := len(ix.Sections); got != 1+cct.NumClasses {
				t.Fatalf("%d sections, want %d", got, 1+cct.NumClasses)
			}
			if ix.Header().Kind != SectionHeader {
				t.Errorf("first section kind = %d, want header", ix.Header().Kind)
			}
			for i, s := range ix.Trees() {
				if s.Kind != SectionTree || s.Class != cct.Class(i) {
					t.Errorf("tree section %d = kind %d class %d", i, s.Kind, s.Class)
				}
			}
			if want := uint64(p.NumNodes()); ix.FooterCount != want {
				t.Errorf("footer count = %d, want %d", ix.FooterCount, want)
			}
			// Each indexed payload must verify against its recorded CRC.
			for i, s := range ix.Sections {
				if got := crc32.ChecksumIEEE(img[s.Offset : s.Offset+s.Len]); got != s.CRC {
					t.Errorf("section %d: payload checksum %08x, recorded %08x", i, got, s.CRC)
				}
			}
		})
	}
}

// TestIndexSectionsTrailer: a temporal sidecar shows up as a tagged
// trailer entry.
func TestIndexSectionsTrailer(t *testing.T) {
	p := sampleProfile(1, 2)
	var d metric.Vector
	d[metric.Samples] = 1
	p.Temporal = &cct.TimeSeries{
		Width:   1 << 20,
		Windows: []cct.TimeWindow{window(3, delta{cct.ClassStatic, p.Trees[cct.ClassStatic].Root, d})},
	}
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSections(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	tr := ix.Trailers()
	if len(tr) != 1 {
		t.Fatalf("%d trailers, want 1", len(tr))
	}
	if tr[0].Kind != SectionTrailer || tr[0].Magic != TemporalMagic {
		t.Errorf("trailer = kind %d magic %#x, want trailer/%#x", tr[0].Kind, tr[0].Magic, TemporalMagic)
	}
}

// TestIndexSectionsRejects: v1 (no framing), truncations, and footer
// damage must all fail indexing — never yield a bogus index.
func TestIndexSectionsRejects(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, sampleProfile(3, 17)); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()

	v1 := encodeV1(t, sampleProfile(0, 0))
	if _, err := IndexSections(bytes.NewReader(v1), int64(len(v1))); err == nil {
		t.Error("v1 image indexed without error")
	}
	for cut := 0; cut < len(img); cut += 7 {
		if _, err := IndexSections(bytes.NewReader(img[:cut]), int64(cut)); err == nil {
			t.Errorf("truncation at %d indexed without error", cut)
		}
	}
	dmg := append([]byte{}, img...)
	dmg[len(dmg)-1] ^= 0x01 // footer CRC
	if _, err := IndexSections(bytes.NewReader(dmg), int64(len(dmg))); err == nil {
		t.Error("footer CRC damage indexed without error")
	}
}

// TestReadProfileAtParity: for both format versions, with and without a
// temporal sidecar, the file reader must produce a profile whose v3
// re-encode is byte-identical to the stream reader's — same trees, same
// node order, same sidecar.
func TestReadProfileAtParity(t *testing.T) {
	base := sampleProfile(5, 9)
	var d metric.Vector
	d[metric.Samples] = 2
	withTS := sampleProfile(5, 9)
	withTS.Temporal = &cct.TimeSeries{
		Width:   1 << 20,
		Windows: []cct.TimeWindow{window(1, delta{cct.ClassStatic, base.Trees[cct.ClassStatic].Root, d})},
	}
	// The sidecar references nodes of its own profile; rebuild the delta
	// against withTS's tree.
	withTS.Temporal.Windows[0].Deltas[0].Node = withTS.Trees[cct.ClassStatic].Root

	cases := map[string]*cct.Profile{"plain": base, "temporal": withTS}
	for name, p := range cases {
		for ver, enc := range map[string]func(io.Writer, *cct.Profile) error{
			"v2": referenceWriteProfileV2,
			"v3": WriteProfile,
		} {
			t.Run(name+"/"+ver, func(t *testing.T) {
				var buf bytes.Buffer
				if err := enc(&buf, p); err != nil {
					t.Fatal(err)
				}
				img := buf.Bytes()
				seq, err := ReadProfile(bytes.NewReader(img))
				if err != nil {
					t.Fatal(err)
				}
				path := writeTempImage(t, img)
				for _, workers := range []int{1, 2, 4} {
					par, n, err := ReadFileParallel(path, nil, workers)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if n != seq.NumNodes() {
						t.Errorf("workers=%d: decoded %d records, want %d", workers, n, seq.NumNodes())
					}
					profilesEqual(t, seq, par)
					var a, b bytes.Buffer
					if err := WriteProfile(&a, seq); err != nil {
						t.Fatal(err)
					}
					if err := WriteProfile(&b, par); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a.Bytes(), b.Bytes()) {
						t.Errorf("workers=%d: parallel decode re-encodes differently", workers)
					}
					if p.Temporal != nil && par.Temporal == nil {
						t.Errorf("workers=%d: sidecar lost", workers)
					}
				}
			})
		}
	}
}

// TestReadProfileAtErrors: every corruption the stream reader rejects
// must also fail the file reader.
func TestReadProfileAtErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, sampleProfile(3, 17)); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for i := range img {
		dmg := append([]byte{}, img...)
		dmg[i] ^= 0x10
		_, seqErr := ReadProfile(bytes.NewReader(dmg))
		if seqErr == nil {
			continue // flip the strict reader tolerates (none today)
		}
		if _, _, err := ReadFileParallel(writeTempImage(t, dmg), nil, 4); err == nil {
			t.Fatalf("bit flip at byte %d: sequential rejects (%v), parallel accepted", i, seqErr)
		}
	}
	for cut := 0; cut < len(img); cut += 5 {
		if _, _, err := ReadFileParallel(writeTempImage(t, img[:cut]), nil, 4); err == nil {
			t.Fatalf("truncation at %d accepted by parallel reader", cut)
		}
	}
}

// writeTempImage writes img to a file of its own under the test's
// temporary directory and returns its path.
func writeTempImage(t *testing.T, img []byte) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "*.dcprof")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(img); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// TestReadFileParallel smoke-tests the path-based convenience wrapper.
func TestReadFileParallel(t *testing.T) {
	dir := t.TempDir()
	p := sampleProfile(2, 3)
	if _, err := WriteDir(dir, []*cct.Profile{p}); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFileParallel(dir+"/"+FileName(2, 3), nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	profilesEqual(t, p, got)
}
