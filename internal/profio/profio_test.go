package profio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

func sampleProfile(rank, thread int) *cct.Profile {
	p := cct.NewProfile(rank, thread, "IBS@4096")
	call := func(name string, line int) cct.Frame {
		return cct.Frame{Kind: cct.KindCall, Module: "exe", Name: name, File: name + ".c", Line: line}
	}
	stmt := func(name string, line int) cct.Frame {
		return cct.Frame{Kind: cct.KindStmt, Module: "exe", Name: name, File: name + ".c", Line: line}
	}
	var v metric.Vector
	v[metric.Samples] = 3
	v[metric.Latency] = 900
	v[metric.FromRMEM] = 2
	p.Trees[cct.ClassHeap].AddSample([]cct.Frame{
		call("main", 0), stmt("main", 5),
		{Kind: cct.KindCall, Module: "libc", Name: "calloc", File: "stdlib.h"},
		{Kind: cct.KindHeapData, Name: "S_diag_j"},
		call("main", 0), stmt("spmv", 480),
	}, &v)
	var v2 metric.Vector
	v2[metric.Samples] = 1
	v2[metric.Latency] = 40
	p.Trees[cct.ClassStatic].AddSample([]cct.Frame{
		{Kind: cct.KindStaticVar, Module: "exe", Name: "f_elem"},
		call("main", 0), stmt("kernel", 801),
	}, &v2)
	var v3 metric.Vector
	v3[metric.Samples] = 7
	p.Trees[cct.ClassNonMem].AddSample([]cct.Frame{call("main", 0), stmt("main", 2)}, &v3)
	return p
}

func profilesEqual(t *testing.T, a, b *cct.Profile) {
	t.Helper()
	if a.Rank != b.Rank || a.Thread != b.Thread || a.Event != b.Event {
		t.Fatalf("headers differ: %d/%d/%s vs %d/%d/%s",
			a.Rank, a.Thread, a.Event, b.Rank, b.Thread, b.Event)
	}
	for c := 0; c < cct.NumClasses; c++ {
		ta, tb := a.Trees[c], b.Trees[c]
		if ta.NumNodes() != tb.NumNodes() {
			t.Fatalf("class %d node counts differ: %d vs %d", c, ta.NumNodes(), tb.NumNodes())
		}
		if ta.Total() != tb.Total() {
			t.Fatalf("class %d totals differ: %v vs %v", c, ta.Total(), tb.Total())
		}
		// Structural walk comparison.
		type rec struct {
			frame cct.Frame
			depth int
			mets  metric.Vector
		}
		collect := func(tr *cct.Tree) []rec {
			var out []rec
			tr.Walk(func(n *cct.Node, d int) bool {
				out = append(out, rec{n.Frame(), d, n.Metrics()})
				return true
			})
			return out
		}
		ra, rb := collect(ta), collect(tb)
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("class %d node %d differs: %+v vs %+v", c, i, ra[i], rb[i])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	p := sampleProfile(3, 17)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	profilesEqual(t, p, got)
}

func TestEmptyProfileRoundTrip(t *testing.T) {
	p := cct.NewProfile(0, 0, "PM_MRK_DATA_FROM_RMEM@1000")
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	profilesEqual(t, p, got)
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := ReadProfile(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Error("garbage accepted")
	}
}

func TestTruncatedRejected(t *testing.T) {
	p := sampleProfile(0, 0)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, len(full) / 3, len(full) - 1} {
		if _, err := ReadProfile(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestEncodedSizeMatches(t *testing.T) {
	p := sampleProfile(1, 2)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	n, err := EncodedSize(p)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("EncodedSize = %d, actual %d", n, buf.Len())
	}
}

func TestCompactness(t *testing.T) {
	// A profile with thousands of samples into few contexts must stay small
	// — the format's reason for existing.
	p := cct.NewProfile(0, 0, "IBS@4096")
	var v metric.Vector
	v[metric.Samples] = 1
	v[metric.Latency] = 123
	path := []cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
		{Kind: cct.KindStmt, Module: "exe", Name: "main", File: "main.c", Line: 42},
	}
	for i := 0; i < 100_000; i++ {
		p.Trees[cct.ClassHeap].AddSample(path, &v)
	}
	n, err := EncodedSize(p)
	if err != nil {
		t.Fatal(err)
	}
	if n > 4096 {
		t.Errorf("100k coalesced samples encoded to %d bytes; format not compact", n)
	}
}

func TestWriteReadDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "measurements")
	var ps []*cct.Profile
	for rank := 0; rank < 2; rank++ {
		for th := 0; th < 3; th++ {
			ps = append(ps, sampleProfile(rank, th))
		}
	}
	total, err := WriteDir(dir, ps)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Error("WriteDir reported no bytes")
	}
	got, err := ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("read %d profiles, want %d", len(got), len(ps))
	}
	for i := range ps {
		profilesEqual(t, ps[i], got[i])
	}
	// Sorted by (rank, thread).
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.Rank > b.Rank || (a.Rank == b.Rank && a.Thread >= b.Thread) {
			t.Error("ReadDir not sorted")
		}
	}
}

// renameLog is an FS that records the final names it publishes, in
// order, from however many goroutines rename.
type renameLog struct {
	OSFS
	mu    sync.Mutex
	names []string
}

func (r *renameLog) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	r.names = append(r.names, filepath.Base(newpath))
	r.mu.Unlock()
	return r.OSFS.Rename(oldpath, newpath)
}

// TestWriteDirPublishesInInputOrder: with more workers than the host has
// CPUs, WriteDirFS publishes in input order; when profile i fails, exactly
// profiles 0..i-1 are published, the error is profile i's, and no temp
// file is left behind.
func TestWriteDirPublishesInInputOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var ps []*cct.Profile
	var want []string
	var size int64
	for th := 0; th < 40; th++ {
		p := temporalProfile(0, th)
		ps = append(ps, p)
		want = append(want, FileName(0, th))
		n, err := EncodedSize(p)
		if err != nil {
			t.Fatal(err)
		}
		size += n
	}
	for _, bad := range []int{-1, 0, 17, 39} {
		in := append([]*cct.Profile{}, ps...)
		if bad >= 0 {
			in[bad] = cct.NewProfile(0, bad, "IBS@1")
			in[bad].Trees[cct.ClassStatic] = nil
		}
		dir := t.TempDir()
		fsys := &renameLog{}
		total, err := WriteDirFS(fsys, dir, in)
		published := len(in)
		if bad >= 0 {
			published = bad
			if err == nil || !strings.Contains(err.Error(), "no static data tree") {
				t.Errorf("profile %d bad: error %v, want its missing tree named", bad, err)
			}
		} else if err != nil || total != size {
			t.Errorf("wrote %d B (%v), want %d", total, err, size)
		}
		if !slices.Equal(fsys.names, want[:published]) {
			t.Errorf("profile %d bad: published %v, want %v", bad, fsys.names, want[:published])
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != published {
			t.Errorf("profile %d bad: directory holds %d entries, want the %d published", bad, len(ents), published)
		}
	}
}

// randomProfile builds an arbitrary profile from a seed.
func randomProfile(seed int64) *cct.Profile {
	rng := rand.New(rand.NewSource(seed))
	p := cct.NewProfile(rng.Intn(100), rng.Intn(1000), "IBS@65536")
	names := []string{"main", "solve", "hypre_CAlloc", "omp_fn.0", "α-unicode"}
	for i := 0; i < rng.Intn(60); i++ {
		class := cct.Class(rng.Intn(cct.NumClasses))
		depth := rng.Intn(5) + 1
		var path []cct.Frame
		if class == cct.ClassStatic {
			path = append(path, cct.Frame{Kind: cct.KindStaticVar, Module: "exe", Name: names[rng.Intn(len(names))]})
		}
		for d := 0; d < depth; d++ {
			path = append(path, cct.Frame{
				Kind: cct.KindCall, Module: "exe",
				Name: names[rng.Intn(len(names))], File: "f.c", Line: rng.Intn(500),
			})
		}
		path = append(path, cct.Frame{Kind: cct.KindStmt, Module: "exe", Name: "leaf", File: "f.c", Line: rng.Intn(500)})
		var v metric.Vector
		for m := 0; m < int(metric.NumMetrics); m++ {
			if rng.Intn(3) == 0 {
				v[m] = rng.Uint64() % 1_000_000
			}
		}
		p.Trees[class].AddSample(path, &v)
	}
	return p
}

// Property: round-trip preserves totals and node counts for arbitrary
// profiles.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		p := randomProfile(seed)
		var buf bytes.Buffer
		if err := WriteProfile(&buf, p); err != nil {
			return false
		}
		got, err := ReadProfile(&buf)
		if err != nil {
			return false
		}
		if got.Total() != p.Total() {
			return false
		}
		return got.NumNodes() == p.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriteProfile(b *testing.B) {
	p := randomProfile(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodedSize(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadProfile(b *testing.B) {
	p := randomProfile(42)
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadProfile(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
