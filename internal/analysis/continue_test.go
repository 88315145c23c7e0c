package analysis

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/faultio"
	"dcprof/internal/metric"
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
// the byte, and the statistics in every cumulative field. The second load
// takes ownership of the base: its result must be built in the base's own
// tree, and the base's statistics stay as they were. It reports false,
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
	baseTree, baseQuar := base.Merged, slices.Clone(baseSt.Quarantined)

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
	if got.Merged != baseTree {
		t.Errorf("split %d/%d: the continued load copied its base's tree instead of folding into it", split, len(files))
	}
	if !reflect.DeepEqual(baseSt.Quarantined, baseQuar) {
		t.Errorf("split %d/%d: the continued load modified its base's statistics", split, len(files))
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
// either side of the split, and it folds into the base's tree.
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

// TestContinuedLoadAllocGate pins what continuing a load costs: folding one
// file into a base allocates the same number of objects whatever the base's
// size, here ≈ 3k and ≈ 13k nodes. The base's tree is folded into, not
// copied, so nothing may scale with its node count. The new file's calling
// contexts are all in both bases, so the fold itself adds no node either.
// "The same" allows objectSlack: the runtime's own bookkeeping (goroutine
// start-up, a collection finishing) moves the fewest-of-ten count by a
// couple of objects between runs, while one object a node would move it by
// 10,000.
func TestContinuedLoadAllocGate(t *testing.T) {
	// profile has one calling context for each of n functions named
	// prefix + index, spread over the classes.
	profile := func(thread, n int, prefix string) *cct.Profile {
		p := cct.NewProfile(0, thread, "IBS@4096")
		for i := 0; i < n; i++ {
			var v metric.Vector
			v[metric.Samples], v[metric.Latency] = 1, uint64(10+i)
			fn := fmt.Sprintf("%s%05d", prefix, i)
			p.Trees[cct.Class(i%cct.NumClasses)].AddSample([]cct.Frame{
				{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
				{Kind: cct.KindCall, Module: "exe", Name: fn, File: fn + ".c"},
				{Kind: cct.KindStmt, Module: "exe", Name: fn, File: fn + ".c", Line: 1},
			}, &v)
		}
		return p
	}
	opt := LoadOptions{Workers: 1, Policy: PolicyQuarantine}
	ctx := context.Background()
	// continued returns the base's node count and the fewest objects one
	// continued load allocated over a few runs, each on a fresh base.
	continued := func(contexts int) (int, uint64) {
		dir := filepath.Join(t.TempDir(), "m")
		// The base is threads 0 and 1; thread 2, the file continued by,
		// repeats thread 0's contexts.
		if _, err := profio.WriteDir(dir, []*cct.Profile{profile(0, 60, "s"), profile(1, contexts, "w"), profile(2, 60, "s")}); err != nil {
			t.Fatal(err)
		}
		files, err := profio.Files(dir)
		if err != nil {
			t.Fatal(err)
		}
		nodes, fewest := 0, uint64(math.MaxUint64)
		for run := 0; run < 10; run++ {
			base, _, err := LoadFilesStreamingCtx(ctx, "base", nil, files[:2], opt)
			if err != nil {
				t.Fatal(err)
			}
			nodes = base.Merged.NumNodes()
			runtime.GC() // no collection cycle inside the measured load
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, _, err := LoadFilesStreamingCtx(ctx, "continued", base, files[2:], opt); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return nodes, fewest
	}
	smallNodes, small := continued(1_500)
	largeNodes, large := continued(6_500)
	if smallNodes < 2_500 || largeNodes < 12_000 {
		t.Fatalf("bases of %d and %d nodes; the gate wants about 3k and 13k", smallNodes, largeNodes)
	}
	const objectSlack = 16
	if max(small, large)-min(small, large) > objectSlack {
		t.Errorf("continuing a load by one file allocates %d objects on a %d-node base and %d on a %d-node base; want the same count",
			small, smallNodes, large, largeNodes)
	} else {
		t.Logf("continuing a load by one file: %d objects on a %d-node base, %d on a %d-node base", small, smallNodes, large, largeNodes)
	}
}
