package analysis

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/faultio"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
)

// withRandomSidecars attaches a random temporal sidecar to every profile:
// a few windows at ascending indices, each holding deltas for a random
// subset of the profile's nodes (the root included).
func withRandomSidecars(ps []*cct.Profile, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range ps {
		type ref struct {
			c cct.Class
			n *cct.Node
		}
		var all []ref
		for c, t := range p.Trees {
			t.Walk(func(n *cct.Node, _ int) bool {
				all = append(all, ref{cct.Class(c), n})
				return true
			})
		}
		ts := &cct.TimeSeries{Width: 4096}
		idx := uint64(rng.Intn(3))
		for w := 0; w < rng.Intn(5)+1; w++ {
			win := cct.TimeWindow{Index: idx}
			idx += uint64(rng.Intn(4) + 1)
			for _, r := range all {
				if rng.Intn(3) != 0 {
					continue
				}
				var v metric.Vector
				v[metric.Samples] = uint64(rng.Intn(5) + 1)
				v[metric.Latency] = uint64(rng.Intn(900))
				win.Add(r.c, r.n, &v)
			}
			if len(win.Deltas) > 0 {
				ts.Windows = append(ts.Windows, win)
			}
		}
		if len(ts.Windows) > 0 {
			p.Temporal = ts
		}
	}
}

// encodeProfile is the canonical v3 byte image of a profile.
func encodeProfile(t testing.TB, p *cct.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := profio.WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadMatchesInMemoryMerge is the differential property the fused
// loader rests on: decoding files straight into per-worker accumulators
// must produce, to the byte, the database that materialising every file
// with ReadProfile and merging the profiles in memory produces — trees,
// identity, and (when the files carry sidecars) every temporal query.
func TestLoadMatchesInMemoryMerge(t *testing.T) {
	for _, sidecars := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			ps := randomProfiles(seed*13, 3, 9)
			if sidecars {
				withRandomSidecars(ps, seed)
			}
			dir := filepath.Join(t.TempDir(), "m")
			if _, err := profio.WriteDir(dir, ps); err != nil {
				t.Fatal(err)
			}
			files, err := profio.Files(dir)
			if err != nil {
				t.Fatal(err)
			}
			decoded := make([]*cct.Profile, len(files))
			for i, f := range files {
				img, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if decoded[i], err = profio.ReadProfile(bytes.NewReader(img)); err != nil {
					t.Fatal(err)
				}
			}
			want := MergePreserving(decoded, 2)

			for _, workers := range []int{1, 2, 7} {
				name := fmt.Sprintf("sidecars=%v seed=%d workers=%d", sidecars, seed, workers)
				db, st, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(encodeDB(t, db), encodeDB(t, want)) {
					t.Errorf("%s: loaded database encodes differently from the in-memory merge", name)
				}
				if db.Ranks != want.Ranks || db.Threads != want.Threads || db.Event != want.Event {
					t.Errorf("%s: identity %d/%d/%q, want %d/%d/%q", name,
						db.Ranks, db.Threads, db.Event, want.Ranks, want.Threads, want.Event)
				}
				if st.MaxResident < 1 || st.MaxResident > workers {
					t.Errorf("%s: peak residency %d, want 1..%d (one staged file per worker)", name, st.MaxResident, workers)
				}
				if (db.Temporal != nil) != sidecars || (want.Temporal != nil) != sidecars {
					t.Fatalf("%s: temporal index present: load %v, in-memory %v", name, db.Temporal != nil, want.Temporal != nil)
				}
				if !sidecars {
					continue
				}
				gotPh, err := Phases(db)
				if err != nil {
					t.Fatal(err)
				}
				wantPh, err := Phases(want)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotPh, wantPh) {
					t.Errorf("%s: phases differ:\n got %+v\nwant %+v", name, gotPh, wantPh)
				}
				_, end := want.Temporal.Span()
				for _, r := range [][2]uint64{{0, end}, {0, 4096}, {4096 * 2, 4096 * 6}, {end / 2, end}} {
					got, err := Clip(db, r[0], r[1])
					if err != nil {
						t.Fatal(err)
					}
					ref, err := Clip(want, r[0], r[1])
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(encodeProfile(t, got), encodeProfile(t, ref)) {
						t.Errorf("%s: clip [%d,%d) differs from the in-memory merge's", name, r[0], r[1])
					}
				}
			}
		}
	}
}

// TestLoadBytesReadThroughOpen: the loader counts the bytes it read, so a
// load through a wrapping LoadOptions.Open — the server's OpenProfile
// seam, every faultio reader — reports the same BytesRead and
// MeasurementBytes as a load that opens the files itself. (It used to ask
// the opened reader for its Stat size, and read 0 for anything that was
// not an *os.File.)
func TestLoadBytesReadThroughOpen(t *testing.T) {
	ps := randomProfiles(5, 2, 6)
	dir := filepath.Join(t.TempDir(), "m")
	onDisk, err := profio.WriteDir(dir, ps)
	if err != nil {
		t.Fatal(err)
	}
	plainDB, plain, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wrappedDB, wrapped, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{
		Workers: 2,
		Open: func(path string) (io.ReadCloser, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			return faultio.WithCloser(io.LimitReader(f, 1<<40), f), nil // hides Stat
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.BytesRead != onDisk {
		t.Errorf("plain load read %d bytes, directory holds %d", plain.BytesRead, onDisk)
	}
	if wrapped.BytesRead != plain.BytesRead {
		t.Errorf("load through a wrapping Open read %d bytes, plain load %d", wrapped.BytesRead, plain.BytesRead)
	}
	if wrappedDB.MeasurementBytes != plainDB.MeasurementBytes || wrappedDB.MeasurementBytes != onDisk {
		t.Errorf("measurement bytes: wrapped %d, plain %d, on disk %d", wrappedDB.MeasurementBytes, plainDB.MeasurementBytes, onDisk)
	}
}

// TestQuarantineExactAtLateDamage: damage that sits behind trees which
// already staged clean — in the last tree section, in the footer's record
// count, as garbage after the footer — must still keep every byte of the
// file out of the merge. A loader that applied trees as it decoded them
// would have merged three good trees before finding out.
func TestQuarantineExactAtLateDamage(t *testing.T) {
	ps := randomProfiles(61, 2, 8)
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	files, err := profio.Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	lastTree := func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		ix, err := profio.IndexSections(f, fi.Size())
		f.Close()
		if err != nil {
			return err
		}
		sec := ix.Trees()[cct.NumClasses-1]
		return faultio.FlipBit(path, sec.Offset+sec.Len/2, 3)
	}
	footerCount := func(path string) error {
		fi, err := os.Stat(path)
		if err != nil {
			return err
		}
		// footer = magic(4) · count varint · crc(4); these files hold fewer
		// than 128 nodes, so the count is the single byte before the CRC.
		return faultio.FlipBit(path, fi.Size()-5, 0)
	}
	trailingGarbage := func(path string) error {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			return err
		}
		// A trailer magic nobody knows, then a section length past the
		// format's bound: framing damage, not a merely unreadable sidecar
		// (which would keep the file in the merge, windowless).
		if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 0x7f}); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	damage := map[string]func(string) error{
		files[1]:  lastTree,
		files[6]:  footerCount,
		files[11]: trailingGarbage,
	}

	intactDir := filepath.Join(t.TempDir(), "intact")
	if err := os.MkdirAll(intactDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, bad := damage[f]; !bad {
			copyFile(t, f, filepath.Join(intactDir, filepath.Base(f)))
		}
	}
	for f, d := range damage {
		if err := d(f); err != nil {
			t.Fatal(err)
		}
		// Each victim must still have trees that stage clean — otherwise
		// the test would not be probing the apply-after-verdict ordering.
		img, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		s, err := profio.SalvageProfile(bytes.NewReader(img), nil)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(f), err)
		}
		if s.Intact() || s.Trees < cct.NumClasses-1 || s.SidecarOnly {
			t.Fatalf("%s: salvage verdict %d trees, intact %v, sidecar-only %v; want late damage with the early trees recoverable",
				filepath.Base(f), s.Trees, s.Intact(), s.SidecarOnly)
		}
	}

	want, _, err := LoadDirStreamingCtx(context.Background(), intactDir, LoadOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		db, st, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: workers, Policy: PolicyQuarantine})
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Quarantined) != len(damage) {
			t.Fatalf("workers=%d: quarantined %+v, want the %d damaged files", workers, st.Quarantined, len(damage))
		}
		if renderDB(t, db) != renderDB(t, want) {
			t.Errorf("workers=%d: quarantine merge differs from the intact-only merge", workers)
		}
	}
}

// TestLoadAllocBudget is the allocation gate on the file loader, as a
// count rather than a timing: loading 1,000 dense thread files may
// allocate 4 MiB in total. Materialising each file as trees cost about
// 109 KiB per file — 109 MiB for this load; the budget holds only while
// nodes are allocated per new calling context per worker, and buffers and
// scratch are reused from file to file. One worker, so that the merged
// tree (about 1.6 MiB of nodes, once per worker) leaves most of the budget
// to what is paid per file: 2 KiB more per file would break it.
func TestLoadAllocBudget(t *testing.T) {
	const files = 1000
	dir := filepath.Join(t.TempDir(), "m")
	var ps []*cct.Profile
	for th := 0; th < files; th++ {
		ps = append(ps, scaleProfile(int64(th), 40))
	}
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	ps = nil
	// Intern the corpus' frames first: the interner is process-wide, so a
	// cold one would charge this load for what every later load reuses.
	if _, _, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	db, st, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: 1})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Inputs != files {
		t.Fatalf("merged %d of %d files", st.Inputs, files)
	}
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("%d files, %d merged nodes: %.2f MiB allocated, %d mallocs",
		files, db.Merged.NumNodes(), float64(alloc)/(1<<20), m1.Mallocs-m0.Mallocs)
	if alloc > 4<<20 {
		t.Errorf("load of %d dense files allocated %.2f MiB, budget 4 MiB", files, float64(alloc)/(1<<20))
	}
}
