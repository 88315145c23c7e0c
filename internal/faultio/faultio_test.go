package faultio_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/faultio"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
)

func sampleProfile(rank, thread int) *cct.Profile {
	p := cct.NewProfile(rank, thread, "IBS@4096")
	var v metric.Vector
	v[metric.Samples] = 3
	v[metric.Latency] = 900
	p.Trees[cct.ClassHeap].AddSample([]cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
		{Kind: cct.KindStmt, Module: "exe", Name: "main", File: "main.c", Line: 5},
	}, &v)
	var v2 metric.Vector
	v2[metric.Samples] = 1
	p.Trees[cct.ClassNonMem].AddSample([]cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "spin", File: "spin.c"},
	}, &v2)
	return p
}

func encode(t *testing.T, p *cct.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profio.WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTruncatedReader(t *testing.T) {
	data := []byte("0123456789")
	got, err := io.ReadAll(faultio.TruncatedReader(bytes.NewReader(data), 4))
	if err != nil || string(got) != "0123" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestFlipBitReader(t *testing.T) {
	data := []byte{0x00, 0x00, 0x00}
	got, err := io.ReadAll(faultio.FlipBitReader(bytes.NewReader(data), 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 1<<3 || got[2] != 0 {
		t.Fatalf("flip landed wrong: %v", got)
	}
	// The fault must fire even when the target byte is mid-buffer of a
	// short read.
	r := faultio.FlipBitReader(iotest(data), 2, 0)
	got, err = io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if got[2] != 1 {
		t.Fatalf("flip missed under 1-byte reads: %v", got)
	}
}

// iotest returns a reader that delivers one byte per Read call.
func iotest(b []byte) io.Reader { return &oneByteReader{b: b} }

type oneByteReader struct{ b []byte }

func (o *oneByteReader) Read(p []byte) (int, error) {
	if len(o.b) == 0 {
		return 0, io.EOF
	}
	p[0] = o.b[0]
	o.b = o.b[1:]
	return 1, nil
}

func TestFailingReader(t *testing.T) {
	r := faultio.FailingReader(bytes.NewReader(make([]byte, 1<<20)), 3)
	buf := make([]byte, 16)
	for i := 0; i < 2; i++ {
		if _, err := r.Read(buf); err != nil {
			t.Fatalf("read %d failed early: %v", i+1, err)
		}
	}
	_, err := r.Read(buf)
	if !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("read 3: got %v, want ErrInjected", err)
	}
}

func TestSlowReader(t *testing.T) {
	start := time.Now()
	_, err := io.ReadAll(faultio.SlowReader(bytes.NewReader([]byte("ab")), 10*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("SlowReader did not slow down")
	}
}

// TestReaderFaultsAgainstProfiles drives each reader fault through the
// actual profile decoder: every fault must surface as an error, never a
// panic or a silently wrong profile.
func TestReaderFaultsAgainstProfiles(t *testing.T) {
	img := encode(t, sampleProfile(0, 0))
	cases := map[string]io.Reader{
		"truncate": faultio.TruncatedReader(bytes.NewReader(img), int64(len(img)/2)),
		"flip":     faultio.FlipBitReader(bytes.NewReader(img), int64(len(img)/2), 5),
		"eio":      faultio.FailingReader(bytes.NewReader(img), 1),
	}
	for name, r := range cases {
		if _, err := profio.ReadProfile(r); err == nil {
			t.Errorf("%s: fault-injected profile decoded without error", name)
		}
	}
}

// TestCrashLeavesNoPartialFinalFile is the crash-after-write-M sweep: for
// crash points across the whole measurement write, every .dcprof file that
// exists under a final name must be complete and readable — the durable
// write protocol's whole point.
func TestCrashLeavesNoPartialFinalFile(t *testing.T) {
	profiles := []*cct.Profile{sampleProfile(0, 0), sampleProfile(0, 1), sampleProfile(1, 0)}
	var fullSize int64
	for _, p := range profiles {
		n, err := profio.EncodedSize(p)
		if err != nil {
			t.Fatal(err)
		}
		fullSize += n
	}

	for m := int64(0); m <= fullSize; m += 7 {
		dir := filepath.Join(t.TempDir(), "m")
		fs := faultio.NewCrashFS(profio.OSFS{}, m)
		_, err := profio.WriteDirFS(fs, dir, profiles)
		if m < fullSize {
			if !errors.Is(err, faultio.ErrCrashed) {
				t.Fatalf("crash at %d: err = %v, want ErrCrashed", m, err)
			}
		} else if err != nil {
			t.Fatalf("budget %d ≥ total %d: err = %v", m, fullSize, err)
		}

		// Every file under a final profile name must parse completely.
		files, ferr := profio.Files(dir)
		if ferr != nil {
			if os.IsNotExist(ferr) {
				continue // crashed before MkdirAll
			}
			t.Fatal(ferr)
		}
		for _, f := range files {
			r, err := os.Open(f)
			if err != nil {
				t.Fatal(err)
			}
			_, err = profio.ReadProfile(r)
			r.Close()
			if err != nil {
				t.Fatalf("crash at %d: final-name file %s is partial/corrupt: %v", m, filepath.Base(f), err)
			}
		}

		// Torn temp files may remain (the "process" died before cleanup),
		// but they must be invisible to ingestion.
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), profio.TmpSuffix) {
				for _, f := range files {
					if filepath.Base(f) == e.Name() {
						t.Fatalf("crash at %d: temp file %s listed by Files", m, e.Name())
					}
				}
			}
		}
	}
}

// TestEncodeErrorRemovesTemp: a profile the encoder rejects (a nil tree
// used to panic inside Walk) fails the write with the tree named, its
// temp file is removed through the FS, and the files before it stand.
func TestEncodeErrorRemovesTemp(t *testing.T) {
	bad := sampleProfile(0, 1)
	bad.Trees[cct.ClassUnknown] = nil
	dir := t.TempDir()
	fs := faultio.NewCrashFS(profio.OSFS{}, 1<<30)
	_, err := profio.WriteDirFS(fs, dir, []*cct.Profile{sampleProfile(0, 0), bad, sampleProfile(0, 2)})
	if err == nil || !strings.Contains(err.Error(), "profio: profile has no unknown data tree") {
		t.Fatalf("WriteDirFS error = %v, want the missing tree named", err)
	}
	if fs.Crashed() {
		t.Fatal("the crash budget ran out; the test never reached the encoder's error")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != profio.FileName(0, 0) {
		t.Errorf("directory holds %v, want only %s", entries, profio.FileName(0, 0))
	}
}

// TestCrashFSPostCrashOpsFail locks in the "process is dead" semantics:
// after the crash point, every filesystem operation fails.
func TestCrashFSPostCrashOpsFail(t *testing.T) {
	dir := t.TempDir()
	fs := faultio.NewCrashFS(profio.OSFS{}, 0)
	f, err := fs.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("abc")); !errors.Is(err, faultio.ErrCrashed) {
		t.Fatalf("write after crash: %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("FS not crashed after budget exhausted")
	}
	if err := f.Sync(); !errors.Is(err, faultio.ErrCrashed) {
		t.Fatalf("sync after crash: %v", err)
	}
	if err := fs.Rename("a", "b"); !errors.Is(err, faultio.ErrCrashed) {
		t.Fatalf("rename after crash: %v", err)
	}
	if err := fs.Remove("a"); !errors.Is(err, faultio.ErrCrashed) {
		t.Fatalf("remove after crash: %v", err)
	}
	if err := fs.SyncDir(dir); !errors.Is(err, faultio.ErrCrashed) {
		t.Fatalf("syncdir after crash: %v", err)
	}
}

func TestAtRestCorruptionHelpers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte{0xff, 0xff, 0xff, 0xff}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := faultio.FlipBit(path, 2, 0); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b[2] != 0xfe {
		t.Fatalf("FlipBit: got %x", b)
	}
	if err := faultio.Truncate(path, 2); err != nil {
		t.Fatal(err)
	}
	if b, _ = os.ReadFile(path); len(b) != 2 {
		t.Fatalf("Truncate: %d bytes remain", len(b))
	}
	if err := faultio.Overwrite(path, []byte("zz")); err != nil {
		t.Fatal(err)
	}
	if b, _ = os.ReadFile(path); string(b) != "zz" {
		t.Fatalf("Overwrite: %q", b)
	}
}
