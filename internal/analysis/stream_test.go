package analysis

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/profio"
)

// canonicalProfile renders a profile deterministically (sorted pre-order
// walk of every class tree with frames and metric vectors), so two merge
// results can be compared byte-for-byte regardless of merge order.
func canonicalProfile(p *cct.Profile) string {
	var b strings.Builder
	for c, tree := range p.Trees {
		tree.Walk(func(n *cct.Node, depth int) bool {
			fmt.Fprintf(&b, "%d/%d %+v %v\n", c, depth, n.Frame(), n.Metrics())
			return true
		})
	}
	return b.String()
}

// cloneProfiles deep-copies profiles so consuming merges can run on them.
func cloneProfiles(ps []*cct.Profile) []*cct.Profile {
	out := make([]*cct.Profile, len(ps))
	for i, p := range ps {
		c := cct.NewProfile(p.Rank, p.Thread, p.Event)
		c.Merge(p)
		out[i] = c
	}
	return out
}

func TestLoadDirStreamingMatchesBatch(t *testing.T) {
	const workers = 4
	ps := randomProfiles(42, 2, 64) // 128 thread profiles
	want := MergePreserving(ps, 0)

	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	db, st, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}

	if got, wantC := canonicalProfile(db.Merged), canonicalProfile(want.Merged); got != wantC {
		t.Error("streaming merge result differs from batch merge")
	}
	if db.Ranks != want.Ranks || db.Threads != want.Threads || db.Event != want.Event {
		t.Errorf("header: got %d/%d/%q, want %d/%d/%q",
			db.Ranks, db.Threads, db.Event, want.Ranks, want.Threads, want.Event)
	}

	// The bounded-residency guarantee: at most one staged file per worker,
	// never all 128.
	if st.MaxResident == 0 || st.MaxResident > workers {
		t.Errorf("peak residency = %d, want 1..%d (one staged file per worker)", st.MaxResident, workers)
	}
	if st.Inputs != 128 {
		t.Errorf("stats inputs = %d", st.Inputs)
	}
	if st.BytesRead <= 0 || db.MeasurementBytes != st.BytesRead {
		t.Errorf("bytes read = %d, db bytes = %d", st.BytesRead, db.MeasurementBytes)
	}
	if st.InputNodes == 0 || st.MergedNodes == 0 || st.InputNodes < st.MergedNodes {
		t.Errorf("node counts: input %d, merged %d", st.InputNodes, st.MergedNodes)
	}
	if st.CoalescingFactor() <= 1 {
		t.Errorf("coalescing factor = %.2f, want > 1 for 128 near-identical threads", st.CoalescingFactor())
	}
	if st.DecodeWall <= 0 || st.MergeWall < st.DecodeWall {
		t.Errorf("stage walls: decode %s, merge %s", st.DecodeWall, st.MergeWall)
	}
	if st.Workers != workers {
		t.Errorf("workers = %d", st.Workers)
	}
}

// TestLoadReportsWorkersRun: MergeStats.Workers is the number of workers
// that ran — never more than there were files to load, including when a
// load continues from a base and folds only the new files.
func TestLoadReportsWorkersRun(t *testing.T) {
	files := writeFiles(t, filepath.Join(t.TempDir(), "m"), 19, 1, 4, false)
	ctx := context.Background()
	base, st, err := LoadFilesStreamingCtx(ctx, "three", nil, files[:3], LoadOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 3 {
		t.Errorf("3-file load at 8 workers reports %d workers, want 3", st.Workers)
	}
	if _, st, err = LoadFilesStreamingCtx(ctx, "one more", base, files[3:], LoadOptions{Workers: 8}); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 {
		t.Errorf("1-file load continued from a base reports %d workers, want 1", st.Workers)
	}
}

func TestLoadDirStreamingSingleWorker(t *testing.T) {
	ps := randomProfiles(3, 1, 5)
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	want := MergePreserving(ps, 1)
	db, _, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if canonicalProfile(db.Merged) != canonicalProfile(want.Merged) {
		t.Error("1-worker streaming merge differs from batch merge")
	}
}

func TestLoadDirStreamingCorruptFile(t *testing.T) {
	ps := randomProfiles(8, 1, 4)
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, profio.FileName(0, 2))
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: 2})
	if err == nil {
		t.Fatal("corrupt file accepted")
	}
	if !strings.Contains(err.Error(), filepath.Base(bad)) {
		t.Errorf("error %q does not name the corrupt file", err)
	}
}

// MergePreserving must leave its inputs untouched, so merging the same
// profiles twice (experiment drivers share memoized runs) cannot
// double-count metrics.
func TestMergePreservingDoubleMerge(t *testing.T) {
	ps := randomProfiles(23, 2, 6)
	wantTotal := totals(ps)
	before := make([]string, len(ps))
	for i, p := range ps {
		before[i] = canonicalProfile(p)
	}

	db1 := MergePreserving(ps, 3)
	db2 := MergePreserving(ps, 3)

	for i, p := range ps {
		if canonicalProfile(p) != before[i] {
			t.Fatalf("MergePreserving mutated input %d", i)
		}
	}
	if got := db1.Merged.Total(); got != wantTotal {
		t.Errorf("first merge total %v, want %v", got, wantTotal)
	}
	if got := db2.Merged.Total(); got != wantTotal {
		t.Errorf("second merge total %v, want %v (double-counted?)", got, wantTotal)
	}
	if canonicalProfile(db1.Merged) != canonicalProfile(db2.Merged) {
		t.Error("repeated preserving merges disagree")
	}
}

// Merge, by contrast, consumes its inputs (documented behavior): after a
// merge the inputs' combined totals exceed the true total, so re-merging
// them must NOT be done. This test locks in the contract that motivates
// MergePreserving.
func TestMergeConsumesInputs(t *testing.T) {
	ps := randomProfiles(29, 1, 8)
	wantTotal := totals(ps)
	db := Merge(ps, 2)
	if got := db.Merged.Total(); got != wantTotal {
		t.Fatalf("merge total %v, want %v", got, wantTotal)
	}
	if after := totals(ps); after == wantTotal {
		t.Skip("inputs happened to be untouched; consumption is an optimization, not a guarantee")
	}
}

func BenchmarkLoadDirStreaming128(b *testing.B) {
	ps := randomProfiles(42, 1, 128)
	dir := filepath.Join(b.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMergePreserving128Threads(b *testing.B) {
	ps := randomProfiles(42, 1, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergePreserving(ps, 8)
	}
}
