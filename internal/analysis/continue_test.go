package analysis

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dcprof/internal/faultio"
	"dcprof/internal/profio"
)

// dbDump renders everything a reader can get out of a database: its
// measurement byte count and mergeDump.
func dbDump(t testing.TB, db *Database) string {
	t.Helper()
	return fmt.Sprintf("bytes=%d\n", db.MeasurementBytes) + mergeDump(t, db)
}

// mergeDump renders everything a database holds whether it was loaded from
// files or merged in memory: the merged trees' encoding, the identity,
// and — when it has one — every window of the temporal index (its clip and
// total) and the detected phases.
func mergeDump(t testing.TB, db *Database) string {
	t.Helper()
	var b strings.Builder
	b.Write(encodeDB(t, db))
	fmt.Fprintf(&b, "\nranks=%d threads=%d event=%q\n", db.Ranks, db.Threads, db.Event)
	if ix := db.Temporal; ix != nil {
		fmt.Fprintf(&b, "width=%d windows=%v\n", ix.Width(), ix.WindowIndices())
		for _, w := range ix.WindowIndices() {
			tot := ix.WindowTotal(w)
			b.Write(encodeProfile(t, ix.WindowProfile(w)))
			b.WriteString(tot.String())
		}
		ph, err := Phases(db)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "\nphases=%+v", ph)
	}
	return b.String()
}

// checkContinued loads files[:split], then files[split:] on top of that,
// and requires the result to equal a load of every file: the database to
// the byte, and the statistics in every cumulative field. The base must
// read the same after the second load as before it. It reports false,
// checking nothing, when files[:split] alone does not load — a failed
// build leaves nothing to continue from.
func checkContinued(t testing.TB, files []string, split int, opt LoadOptions) bool {
	t.Helper()
	ctx := context.Background()
	base, baseSt, err := LoadFilesStreamingCtx(ctx, "base", nil, files[:split], opt)
	if err != nil {
		return false
	}
	full, fullSt, err := LoadFilesStreamingCtx(ctx, "full", nil, files, opt)
	if err != nil {
		t.Fatalf("full load: %v", err)
	}
	baseDump, baseQuar := dbDump(t, base), slices.Clone(baseSt.Quarantined)

	got, st, err := LoadFilesStreamingCtx(ctx, "continued", base, files[split:], opt)
	if err != nil {
		t.Fatalf("continued load: %v", err)
	}
	if dbDump(t, got) != dbDump(t, full) {
		t.Errorf("split %d/%d, %d workers: continued load differs from the full load", split, len(files), opt.Workers)
	}
	type cumulative struct {
		Inputs, InputNodes, MergedNodes int
		BytesRead                       int64
		Quarantined                     []QuarantinedFile
	}
	cum := func(s MergeStats) cumulative {
		return cumulative{s.Inputs, s.InputNodes, s.MergedNodes, s.BytesRead, s.Quarantined}
	}
	if g, w := cum(st), cum(fullSt); !reflect.DeepEqual(g, w) {
		t.Errorf("split %d/%d: cumulative stats %+v, full load %+v", split, len(files), g, w)
	}
	if dbDump(t, base) != baseDump || !reflect.DeepEqual(baseSt.Quarantined, baseQuar) {
		t.Errorf("split %d/%d: the continued load modified its base", split, len(files))
	}
	return true
}

// writeFiles writes the profiles into a fresh directory and returns their
// paths in load order.
func writeFiles(t testing.TB, dir string, seed int64, ranks, threads int, sidecars bool) []string {
	t.Helper()
	ps := randomProfiles(seed, ranks, threads)
	if sidecars {
		withRandomSidecars(ps, seed)
	}
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	files, err := profio.Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestLoadContinuesFromBase: a load on top of an earlier load's database is
// byte-identical to loading every file at once, whatever the split point
// and worker count, with and without sidecars and with a damaged file on
// either side of the split, and it leaves the base unmodified.
func TestLoadContinuesFromBase(t *testing.T) {
	for _, sidecars := range []bool{false, true} {
		for _, damaged := range []bool{false, true} {
			files := writeFiles(t, filepath.Join(t.TempDir(), "m"), 31, 3, 6, sidecars)
			if damaged {
				fi, err := os.Stat(files[4])
				if err != nil {
					t.Fatal(err)
				}
				if err := faultio.FlipBit(files[4], fi.Size()/2, 2); err != nil {
					t.Fatal(err)
				}
				_, st, err := LoadFilesStreamingCtx(context.Background(), "all", nil, files, LoadOptions{Policy: PolicyQuarantine})
				if err != nil || len(st.Quarantined) != 1 {
					t.Fatalf("damaged set: %v, quarantined %+v; want one file quarantined", err, st.Quarantined)
				}
			}
			for _, split := range []int{1, 4, 5, 13, len(files)} {
				for _, workers := range []int{1, 2, 7} {
					t.Run(fmt.Sprintf("sidecars=%v/damaged=%v/split=%d/workers=%d", sidecars, damaged, split, workers), func(t *testing.T) {
						if !checkContinued(t, files, split, LoadOptions{Workers: workers, Policy: PolicyQuarantine}) {
							t.Fatal("base did not load")
						}
					})
				}
			}
		}
	}
}

// FuzzLoadContinuesFromBase drives checkContinued over fuzz-chosen file
// sets, split points, worker counts and damage: sidecars or none, and
// optionally one bit flipped in one file, on either side of the split.
func FuzzLoadContinuesFromBase(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(2), uint8(1), false, uint8(0), uint16(0))
	f.Add(int64(2), uint8(7), uint8(3), uint8(2), true, uint8(0), uint16(0))
	f.Add(int64(3), uint8(4), uint8(0), uint8(3), true, uint8(2), uint16(400))
	f.Add(int64(4), uint8(10), uint8(9), uint8(0), false, uint8(9), uint16(60))
	f.Fuzz(func(t *testing.T, seed int64, n, split, workers uint8, sidecars bool, victim uint8, at uint16) {
		files := writeFiles(t, filepath.Join(t.TempDir(), "m"), seed, 1+int(n%3), 1+int(n/3%4), sidecars)
		if victim > 0 {
			path := files[int(victim-1)%len(files)]
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := faultio.FlipBit(path, int64(at)%fi.Size(), uint(at%8)); err != nil {
				t.Fatal(err)
			}
		}
		opt := LoadOptions{Workers: 1 + int(workers%4), Policy: PolicyQuarantine}
		if _, _, err := LoadFilesStreamingCtx(context.Background(), "all", nil, files, opt); err != nil {
			return // every file unreadable: nothing to compare
		}
		checkContinued(t, files, 1+int(split)%len(files), opt)
	})
}
