package profio

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// denseProfile approximates a real per-thread CCT: a bounded symbol set (40
// functions, a few call-site and statement lines each) reached through many
// distinct calling contexts — frames few, contexts many, which is exactly
// the redundancy the v3 frame table deduplicates away.
func denseProfile(seed int64, contexts int) *cct.Profile {
	p := cct.NewProfile(int(seed)%64, int(seed)%8, "IBS@4096")
	name := func(f int) string { return fmt.Sprintf("fn%02d", f) }
	file := func(f int) string { return fmt.Sprintf("src%d.c", f%10) }
	var v metric.Vector
	v[metric.Samples] = 5
	v[metric.Latency] = 1200
	for i := 0; i < contexts; i++ {
		fn := (i + int(seed)) % 40
		var path []cct.Frame
		for d := 0; d < 6; d++ {
			f := (fn + d*7 + 3) % 40
			path = append(path, cct.Frame{
				Kind: cct.KindCall, Module: "exe",
				Name: name(f), File: file(f),
				Line: 10 + 10*((i>>uint(d))%3),
			})
		}
		leaf := (fn + i/40) % 40
		path = append(path, cct.Frame{
			Kind: cct.KindStmt, Module: "exe",
			Name: name(leaf), File: file(leaf), Line: 100 + 10*(i%5),
		})
		p.Trees[cct.Class(i%cct.NumClasses)].AddSample(path, &v)
	}
	return p
}

// encodedSizeV2 is EncodedSize for the reference v2 writer.
func encodedSizeV2(t *testing.T, p *cct.Profile) int64 {
	t.Helper()
	var cw countWriter
	if err := referenceWriteProfileV2(&cw, p); err != nil {
		t.Fatal(err)
	}
	return cw.n
}

// TestV2CompatRoundTrip: v2 files written by previous releases (here by
// the reference v2 writer) must keep decoding bit-exact.
func TestV2CompatRoundTrip(t *testing.T) {
	p := sampleProfile(3, 17)
	var buf bytes.Buffer
	if err := referenceWriteProfileV2(&buf, p); err != nil {
		t.Fatal(err)
	}
	dec := new(Decoder)
	st, err := dec.Stage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != Version2 {
		t.Errorf("version = %d, want %d", st.Version, Version2)
	}
	if !st.Intact() {
		t.Fatal(st.Errs[0])
	}
	got := dec.materialize()
	profilesEqual(t, p, got)
}

// TestV3WritesCurrentVersion pins that WriteProfile emits v3.
func TestV3WritesCurrentVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, sampleProfile(0, 0)); err != nil {
		t.Fatal(err)
	}
	st, err := new(Decoder).Stage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != Version {
		t.Errorf("version = %d, want %d", st.Version, Version)
	}
}

// TestV3V2Equivalence: both encodings of the same profile must decode to
// identical trees, and a v3 re-encode of a v2 decode must be byte-stable —
// the migration path users take on existing measurement directories.
func TestV3V2Equivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		p := randomProfile(seed)
		var b2, b3 bytes.Buffer
		if err := referenceWriteProfileV2(&b2, p); err != nil {
			t.Fatal(err)
		}
		if err := WriteProfile(&b3, p); err != nil {
			t.Fatal(err)
		}
		from2, err := ReadProfile(bytes.NewReader(b2.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: v2 decode: %v", seed, err)
		}
		from3, err := ReadProfile(bytes.NewReader(b3.Bytes()))
		if err != nil {
			t.Fatalf("seed %d: v3 decode: %v", seed, err)
		}
		profilesEqual(t, from2, from3)

		var re1, re2 bytes.Buffer
		if err := WriteProfile(&re1, from2); err != nil {
			t.Fatal(err)
		}
		if err := WriteProfile(&re2, from3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re1.Bytes(), re2.Bytes()) {
			t.Fatalf("seed %d: v3 re-encodes differ between v2- and v3-sourced decodes", seed)
		}
	}
}

// TestV3Compactness is the headline size claim: on a realistically dense
// CCT, v3 must be at least 2x smaller than the same profile as v2.
func TestV3Compactness(t *testing.T) {
	var v2, v3 int64
	for seed := int64(0); seed < 8; seed++ {
		p := denseProfile(seed, 400)
		v2 += encodedSizeV2(t, p)
		n, err := EncodedSize(p)
		if err != nil {
			t.Fatal(err)
		}
		v3 += n
	}
	ratio := float64(v2) / float64(v3)
	t.Logf("v2 %d bytes, v3 %d bytes, ratio %.2fx", v2, v3, ratio)
	if ratio < 2.0 {
		t.Errorf("v3 only %.2fx smaller than v2, want >= 2x", ratio)
	}
}

// TestV3TemporalSidecarParity: the temporal trailer references nodes by
// pre-order index, which v3 must assign identically to v2 — a sidecar
// written against either tree encoding decodes to the same series.
func TestV3TemporalSidecarParity(t *testing.T) {
	p := sampleProfile(2, 4)
	ts := &cct.TimeSeries{Width: 1 << 20}
	p.Trees[cct.ClassHeap].Walk(func(n *cct.Node, _ int) bool {
		if n.Metric(metric.Samples) == 0 {
			return true
		}
		var d metric.Vector
		d[metric.Samples] = 1
		ts.Windows = append(ts.Windows, window(7, delta{cct.ClassHeap, n, d}))
		return true
	})
	if len(ts.Windows) == 0 {
		t.Fatal("sample profile has no heap samples")
	}
	p.Temporal = ts

	for name, write := range map[string]func(*bytes.Buffer) error{
		"v2": func(b *bytes.Buffer) error { return referenceWriteProfileV2(b, p) },
		"v3": func(b *bytes.Buffer) error { return WriteProfile(b, p) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadProfile(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Temporal == nil {
			t.Fatalf("%s: sidecar lost", name)
		}
		if len(got.Temporal.Windows) != len(ts.Windows) {
			t.Fatalf("%s: %d windows, want %d", name, len(got.Temporal.Windows), len(ts.Windows))
		}
		for i, w := range got.Temporal.Windows {
			if w.Index != ts.Windows[i].Index || len(w.Deltas) != len(ts.Windows[i].Deltas) {
				t.Errorf("%s: window %d = {%d, %d deltas}, want {%d, %d}", name, i,
					w.Index, len(w.Deltas), ts.Windows[i].Index, len(ts.Windows[i].Deltas))
			}
		}
	}
}

// TestMixedVersionDir: one measurement directory may hold files written by
// different releases; ReadDir must load all of them.
func TestMixedVersionDir(t *testing.T) {
	dir := t.TempDir()
	p2, p3 := sampleProfile(0, 0), sampleProfile(0, 1)
	writeRaw := func(p *cct.Profile, enc func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := enc(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, FileName(p.Rank, p.Thread)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeRaw(p2, func(b *bytes.Buffer) error { return referenceWriteProfileV2(b, p2) })
	writeRaw(p3, func(b *bytes.Buffer) error { return WriteProfile(b, p3) })

	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d profiles, want 2", len(got))
	}
	profilesEqual(t, p2, got[0])
	profilesEqual(t, p3, got[1])
}

// TestV3FrameTableValidation: a frame-table entry with an out-of-range
// string index must be rejected at header parse (a valid CRC does not make
// the record trustworthy).
func TestV3FrameTableValidation(t *testing.T) {
	// Hand-encode a v3 header section whose one frame-table entry names a
	// string index past the table, with a valid CRC around it.
	var payload bytes.Buffer
	pw := bufio.NewWriter(&payload)
	writeUvarint(pw, 0) // rank
	writeUvarint(pw, 0) // thread
	writeUvarint(pw, 1) // one string
	writeUvarint(pw, 1)
	pw.WriteString("a")
	writeUvarint(pw, 0) // event
	writeUvarint(pw, 1) // one frame
	pw.WriteByte(byte(cct.KindCall))
	writeUvarint(pw, 99) // module string index out of range
	writeUvarint(pw, 0)
	writeUvarint(pw, 0)
	writeUvarint(pw, 0)
	pw.Flush()

	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	writeU32(w, Magic)
	writeU32(w, Version)
	writeUvarint(w, uint64(payload.Len()))
	w.Write(payload.Bytes())
	writeU32(w, crc32.ChecksumIEEE(payload.Bytes()))
	w.Flush()

	if _, err := new(Decoder).Stage(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("out-of-range frame-table string index accepted")
	}
}
