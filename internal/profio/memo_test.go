package profio

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// FuzzFrameMemoMatchesMap drives the frame memo with interleaved puts and
// gets — enough of them to grow it several times — under a seed the input
// chooses, and checks every answer against a Go map. Keys are drawn from
// small ranges, so the same key recurs and neighbouring keys differ in one
// field; lines include values past 32 bits and negative lines as the
// decoder stores them.
func FuzzFrameMemoMatchesMap(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 64))
	f.Add(append(make([]byte, 24), bytes.Repeat([]byte{1, 0, 0, 0, 0, 9, 2, 1, 1, 1, 1, 0}, 40)...))
	seq := make([]byte, 24)
	for i := 0; i < 600; i++ {
		seq = append(seq, byte(i), byte(i>>3), byte(i>>5), byte(i>>1), byte(i*7))
	}
	f.Add(seq)
	lines := [...]uint64{0, 1, 10, 1 << 32, 1<<32 + 10, math.MaxUint64, uint64(1<<64 - 10), 1 << 63}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newFrameMemo()
		if len(data) >= 24 {
			for i := range m.seed {
				m.seed[i] = binary.LittleEndian.Uint64(data[8*i:])
			}
			m.seed[2] |= 1
			data = data[24:]
		}
		model := map[frameKey]cct.FrameID{}
		var keys []frameKey
		for len(data) >= 5 {
			op, a, b, c, d := data[0], data[1], data[2], data[3], data[4]
			data = data[5:]
			k := frameKey{
				kind: a & 3,
				mod:  uint32(a >> 2 & 3),
				name: uint32(b),
				file: uint32(c & 7),
				line: lines[c>>3&7] + uint64(d&3),
			}
			if op&1 == 1 && len(keys) > 0 {
				k = keys[int(op>>1)%len(keys)] // a key put before
			}
			got, ok := m.get(&k)
			want, known := model[k]
			if ok != known || got != want {
				t.Fatalf("get %+v = %d, %v; the map holds %d, %v", k, got, ok, want, known)
			}
			if !known {
				id := cct.FrameID(len(keys)*3 + 1)
				m.put(&k, id)
				model[k] = id
				keys = append(keys, k)
			}
		}
		if len(m.ents) != len(model) || 2*len(m.ents) > len(m.slots) {
			t.Fatalf("%d entries in %d slots for %d keys", len(m.ents), len(m.slots), len(model))
		}
		for k, want := range model {
			if got, ok := m.get(&k); !ok || got != want {
				t.Fatalf("after every put, get %+v = %d, %v; want %d", k, got, ok, want)
			}
		}
	})
}

// TestFrameMemoOff: the zero memo — a single-image decoder's — knows
// nothing and keeps nothing.
func TestFrameMemoOff(t *testing.T) {
	var m frameMemo
	k := frameKey{line: 3, mod: 1, name: 2, file: 3, kind: 1}
	m.put(&k, 7)
	if id, ok := m.get(&k); ok || len(m.ents) != 0 {
		t.Fatalf("off memo returned %d, %v after a put", id, ok)
	}
}

// TestWarmDecoderResolvesEachFrameField stages, through one warm decoder,
// files whose frames differ from a base frame in exactly one field — kind,
// module, name, file, or line, lines past 32 bits and negative ones
// included — twice over, so the second pass resolves every frame from the
// memo. Each file's frame must come out as cct.InternFrame of itself.
func TestWarmDecoderResolvesEachFrameField(t *testing.T) {
	base := cct.Frame{Kind: cct.KindCall, Module: "exe", Name: "solve", File: "solve.c", Line: 42}
	vary := []func(*cct.Frame){
		func(f *cct.Frame) {},
		func(f *cct.Frame) { f.Kind = cct.KindStmt },
		func(f *cct.Frame) { f.Module = "libm" },
		func(f *cct.Frame) { f.Name = "solve_" },
		func(f *cct.Frame) { f.File = "solve.h" },
		func(f *cct.Frame) { f.Line = 43 },
		func(f *cct.Frame) { f.Line = 42 + 1<<32 },
		func(f *cct.Frame) { f.Line = 42 - 1<<32 },
		func(f *cct.Frame) { f.Line = -42 },
		func(f *cct.Frame) { f.Line = -1 },
		func(f *cct.Frame) { f.Line = math.MaxInt64 },
		func(f *cct.Frame) { f.Line = math.MinInt64 },
	}
	caller := cct.Frame{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"}
	var v metric.Vector
	v[metric.Samples] = 1
	frames := make([]cct.Frame, len(vary))
	imgs := make([][]byte, len(vary))
	for i, fn := range vary {
		frames[i] = base
		fn(&frames[i])
		p := cct.NewProfile(0, i, "IBS@4096")
		p.Trees[cct.ClassHeap].AddSample([]cct.Frame{caller, frames[i]}, &v)
		imgs[i] = encodeV3(t, p)
	}
	dec := NewDecoder(NewIntern())
	for pass := 0; pass < 2; pass++ {
		for i, img := range imgs {
			st, err := dec.Stage(bytes.NewReader(img))
			if err != nil || !st.Intact() {
				t.Fatalf("pass %d file %d: %v, verdict %+v", pass, i, err, st)
			}
			if pass == 1 && dec.missed != 0 {
				t.Errorf("pass %d file %d: %d frames missed a warm memo", pass, i, dec.missed)
			}
			p := cct.NewProfile(0, 0, "")
			dec.Apply(p)
			kids := p.Trees[cct.ClassHeap].Root.Children()
			if len(kids) != 1 || len(kids[0].Children()) != 1 {
				t.Fatalf("pass %d file %d: decoded tree has the wrong shape", pass, i)
			}
			leaf := kids[0].Children()[0]
			if got := leaf.Frame(); got != frames[i] {
				t.Errorf("pass %d file %d: decoded frame %+v, want %+v", pass, i, got, frames[i])
			}
			if got, want := leaf.ID(), cct.InternFrame(frames[i]); got != want {
				t.Errorf("pass %d file %d: frame resolved to %d, cct.InternFrame gives %d", pass, i, got, want)
			}
		}
	}
}

// TestFilesMatchesSortedReadDir: Files lists a directory the way it did
// when it read sorted entries and sorted the joined paths again — the
// .dcprof regular files, by name — with other files, temp files and a
// subdirectory named like a profile mixed in.
func TestFilesMatchesSortedReadDir(t *testing.T) {
	reference := func(dir string) ([]string, error) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		var out []string
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".dcprof" {
				continue
			}
			out = append(out, filepath.Join(dir, e.Name()))
		}
		sort.Strings(out)
		return out, nil
	}
	dir := t.TempDir()
	for _, name := range []string{
		"rank00003-thread00001.dcprof", "rank00000-thread00002.dcprof",
		"rank00000-thread00010.dcprof", "rank00010-thread00000.dcprof",
		"rank00000-thread00002.dcprof" + TmpSuffix, "notes.txt", "a.dcprof.bak",
		"Z.dcprof", ".dcprof", "rank00001.DCPROF",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "rank00002-thread00000.dcprof"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{dir, dir + "/", filepath.Join(dir, "rank00002-thread00000.dcprof")} {
		got, err := Files(d)
		if err != nil {
			t.Fatal(err)
		}
		want, err := reference(d)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("Files(%q) = %q, want %q", d, got, want)
		}
	}
	if _, err := Files(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Errorf("Files of a missing directory: %v, want a not-exist error", err)
	}
}

// TestOpenFile: the profile opener reads what os.Open reads, and fails as
// os.Open fails, with an *os.PathError.
func TestOpenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.dcprof")
	img := encodeV3(t, sampleProfile(1, 2))
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), img) {
		t.Error("OpenFile read different bytes")
	}
	missing := path + ".gone"
	_, err = OpenFile(missing)
	_, want := os.Open(missing)
	if err == nil || err.Error() != want.Error() || !os.IsNotExist(err) {
		t.Errorf("OpenFile of a missing file: %v, want %v", err, want)
	}
}

// BenchmarkStageApplyWarm is the per-file cost of a many-file load's
// steady state: a dense 40-sample file staged through a warm decoder and
// applied into an accumulator that already has its calling contexts.
func BenchmarkStageApplyWarm(b *testing.B) {
	img := encodeV3(b, denseProfile(1, 40))
	dec := NewDecoder(NewIntern())
	acc := cct.NewProfile(0, 0, "")
	rd := bytes.NewReader(img)
	step := func() {
		rd.Reset(img)
		if st, err := dec.Stage(rd); err != nil || !st.Intact() {
			b.Fatalf("stage: %v", err)
		}
		dec.Apply(acc)
	}
	step()
	b.ReportAllocs()
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
