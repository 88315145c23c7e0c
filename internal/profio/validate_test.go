package profio

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

func validateTestProfile() *cct.Profile {
	p := cct.NewProfile(3, 7, "IBS@4096")
	var v metric.Vector
	v[metric.Samples] = 5
	v[metric.Latency] = 900
	p.Trees[cct.ClassHeap].AddSample([]cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
		{Kind: cct.KindStmt, Module: "exe", Name: "main", File: "main.c", Line: 12},
	}, &v)
	p.Trees[cct.ClassStatic].AddSample([]cct.Frame{
		{Kind: cct.KindStaticVar, Module: "exe", Name: "grid", File: "main.c"},
	}, &v)
	return p
}

func TestValidateProfileIntact(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, validateTestProfile()); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	info, err := ValidateProfile(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("intact profile rejected: %v", err)
	}
	if info.Rank != 3 || info.Thread != 7 || info.Event != "IBS@4096" {
		t.Errorf("identity = %d/%d/%q, want 3/7/IBS@4096", info.Rank, info.Thread, info.Event)
	}
	if info.Version != Version {
		t.Errorf("version = %d, want %d", info.Version, Version)
	}
	if info.Nodes == 0 {
		t.Error("no nodes counted")
	}
	if info.Bytes != int64(len(enc)) {
		t.Errorf("bytes = %d, want stream length %d", info.Bytes, len(enc))
	}
}

// Every single-bit flip anywhere in the stream must be rejected — the
// property that makes accept-at-ingest a real guarantee, not a smoke test.
func TestValidateProfileRejectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, validateTestProfile()); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for off := range enc {
		for bit := uint(0); bit < 8; bit++ {
			damaged := append([]byte(nil), enc...)
			damaged[off] ^= 1 << bit
			if _, err := ValidateProfile(bytes.NewReader(damaged)); err == nil {
				t.Fatalf("flip of byte %d bit %d accepted", off, bit)
			}
		}
	}
}

func TestValidateProfileRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteProfile(&buf, validateTestProfile()); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for _, cut := range []int{0, 1, 4, len(enc) / 2, len(enc) - 1} {
		if _, err := ValidateProfile(bytes.NewReader(enc[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage after a complete profile is equally invalid.
	if _, err := ValidateProfile(bytes.NewReader(append(append([]byte(nil), enc...), 0xAB))); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestValidateProfileRejectsGarbage(t *testing.T) {
	for _, in := range [][]byte{nil, {0}, []byte("not a profile at all"), bytes.Repeat([]byte{0xFF}, 64)} {
		if _, err := ValidateProfile(bytes.NewReader(in)); err == nil {
			t.Errorf("garbage %q accepted", in)
		}
	}
}

// A valid v1 stream reads but does not validate: without per-section
// CRCs the service could never distinguish at-rest damage from writer
// output.
func TestValidateV2RejectsVersion1(t *testing.T) {
	enc := encodeV1(t, validateTestProfile())
	if _, err := ReadProfile(bytes.NewReader(enc)); err != nil {
		t.Fatalf("valid v1 stream failed to read: %v", err)
	}
	info, err := ValidateProfile(bytes.NewReader(enc))
	if err == nil {
		t.Error("v1 stream accepted by the validator")
	}
	if info.Version != Version1 {
		t.Errorf("version = %d, want %d", info.Version, Version1)
	}
}

// zeroReader yields n zero bytes, counting the bytes it hands out.
type zeroReader struct{ n, read int64 }

func (z *zeroReader) Read(p []byte) (int, error) {
	if z.read >= z.n {
		return 0, io.EOF
	}
	k := min(int64(len(p)), z.n-z.read)
	clear(p[:k])
	z.read += k
	return int(k), nil
}

// TestValidateRejectsHostileHeaderEarly checks that a body whose 8-byte
// header is not a known profile is turned away before the body is
// buffered: 64 MiB of zeros, or a good magic with version 99 in front of
// them, cost a few KiB however long the body runs. Short inputs keep
// their error texts.
func TestValidateRejectsHostileHeaderEarly(t *testing.T) {
	v99 := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, Magic), 99)
	for _, c := range []struct {
		name string
		hdr  []byte
		want string
	}{
		{"zeros", nil, "bad magic 0x0"},
		{"version 99", v99, "unsupported version 99"},
	} {
		body := &zeroReader{n: 64 << 20}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ValidateProfile(io.MultiReader(bytes.NewReader(c.hdr), body))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Errorf("%s: rejecting the header allocated %d B, want <= 64 KiB", c.name, alloc)
		}
		if read := body.read + int64(len(c.hdr)); read > 4<<10 {
			t.Errorf("%s: read %d B of the body, want <= 4 KiB", c.name, read)
		}
	}
	for _, c := range []struct {
		in   []byte
		want string
	}{
		{[]byte{1, 2, 3}, "profio: reading magic: "},
		{v99[:6], "profio: reading version: "},
	} {
		if _, err := ValidateProfile(bytes.NewReader(c.in)); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%d-byte input: err = %v, want prefix %q", len(c.in), err, c.want)
		}
	}
}
