package analysis

// The failure-mode suite: every degradation path of the ingest pipeline,
// driven by deterministic fault injection (internal/faultio). These tests
// are the §4.2-at-scale robustness contract — a measurement directory with
// killed-rank debris merges under quarantine to exactly the merge of its
// intact files, cancellation is prompt and leak-free, and worker panics
// become per-file quarantine records instead of crashed analyzers.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dcprof/internal/faultio"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
)

// renderDB is the deterministic byte rendering fault tests compare merge
// results with: the canonical tree walk plus the JSON export.
func renderDB(t *testing.T, db *Database) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(canonicalProfile(db.Merged))
	fmt.Fprintf(&b, "ranks=%d threads=%d event=%s bytes=%d\n",
		db.Ranks, db.Threads, db.Event, db.MeasurementBytes)
	if err := WriteJSON(&b, db); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineMergeMatchesIntactOnly is the headline acceptance test:
// for a 128-profile directory with k files damaged in distinct ways, a
// quarantine-mode merge succeeds, MergeStats lists exactly the k
// quarantined files with reasons, and the database renders byte-identical
// to merging only the 128-k intact files. Strict mode still fails fast.
func TestQuarantineMergeMatchesIntactOnly(t *testing.T) {
	ps := randomProfiles(42, 2, 64) // 128 thread profiles
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	files, err := profio.Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 128 {
		t.Fatalf("wrote %d files", len(files))
	}

	// Damage k=9 files, each a different failure mode.
	corrupt := map[string]func(path string) error{
		files[3]:   func(p string) error { return faultio.Truncate(p, 0) },  // empty file
		files[17]:  func(p string) error { return faultio.Truncate(p, 5) },  // cut inside header magic/version
		files[30]:  func(p string) error { return faultio.Truncate(p, 40) }, // cut inside string table
		files[55]:  func(p string) error { return truncateToFraction(p, 0.6) },
		files[64]:  func(p string) error { return faultio.FlipBit(p, 4, 0) }, // version field
		files[77]:  func(p string) error { return flipAtFraction(p, 0.3, 2) },
		files[90]:  func(p string) error { return flipAtFraction(p, 0.9, 7) },
		files[101]: func(p string) error { return faultio.Overwrite(p, []byte("not a profile at all")) },
		files[126]: func(p string) error { return faultio.Overwrite(p, nil) },
	}
	intactDir := filepath.Join(t.TempDir(), "intact")
	if err := os.MkdirAll(intactDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, bad := corrupt[f]; !bad {
			copyFile(t, f, filepath.Join(intactDir, filepath.Base(f)))
		}
	}
	for f, damage := range corrupt {
		if err := damage(f); err != nil {
			t.Fatal(err)
		}
	}

	// Strict mode fails fast and names the offending file by full path.
	_, _, err = LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: 4})
	if err == nil {
		t.Fatal("strict merge of damaged directory succeeded")
	}
	if !strings.Contains(err.Error(), dir+string(os.PathSeparator)) {
		t.Errorf("strict error %q lacks the full file path", err)
	}

	// Quarantine mode merges the rest.
	db, st, err := LoadDirStreamingCtx(context.Background(), dir,
		LoadOptions{Workers: 4, Policy: PolicyQuarantine})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != len(corrupt) {
		t.Fatalf("quarantined %d files, want %d: %+v", len(st.Quarantined), len(corrupt), st.Quarantined)
	}
	for i, q := range st.Quarantined {
		if _, ok := corrupt[q.Path]; !ok {
			t.Errorf("quarantined %s, which was not damaged", q.Path)
		}
		if q.Reason == "" {
			t.Errorf("%s quarantined without a reason", q.Path)
		}
		if i > 0 && st.Quarantined[i-1].Path >= q.Path {
			t.Error("quarantine report not sorted by path")
		}
	}
	if st.Inputs != 128-len(corrupt) {
		t.Errorf("merged %d inputs, want %d", st.Inputs, 128-len(corrupt))
	}

	// Byte-identical to merging only the intact files.
	want, wantSt, err := LoadDirStreamingCtx(context.Background(), intactDir, LoadOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, wantR := renderDB(t, db), renderDB(t, want); got != wantR {
		t.Error("quarantine merge differs from intact-only merge")
	}
	if st.BytesRead != wantSt.BytesRead {
		t.Errorf("bytes read %d, intact-only %d", st.BytesRead, wantSt.BytesRead)
	}
}

// truncateToFraction cuts a file to the given fraction of its size.
func truncateToFraction(path string, frac float64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return faultio.Truncate(path, int64(float64(fi.Size())*frac))
}

// flipAtFraction flips one bit at the given fractional offset.
func flipAtFraction(path string, frac float64, bit uint) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	return faultio.FlipBit(path, int64(float64(fi.Size())*frac), bit)
}

// TestSalvageMergeRecoversPartialFiles checks PolicySalvage sits between
// quarantine (damaged files contribute nothing) and the undamaged merge:
// the salvaged class trees of a truncated file are folded in, and the
// quarantine record reports how many trees were recovered.
func TestSalvageMergeRecoversPartialFiles(t *testing.T) {
	ps := randomProfiles(7, 1, 8)
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	files, err := profio.Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := files[2]

	// Compute the expected salvage directly from the damaged image.
	if err := truncateToFraction(victim, 0.7); err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	salv, err := profio.SalvageProfile(strings.NewReader(string(img)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if salv.Intact() {
		t.Fatal("truncation to 70% left the file intact; test needs a damaged file")
	}

	sum := func(v metric.Vector) uint64 {
		var s uint64
		for _, x := range v {
			s += x
		}
		return s
	}

	dbQ, stQ, err := LoadDirStreamingCtx(context.Background(), dir,
		LoadOptions{Workers: 2, Policy: PolicyQuarantine})
	if err != nil {
		t.Fatal(err)
	}
	dbS, stS, err := LoadDirStreamingCtx(context.Background(), dir,
		LoadOptions{Workers: 2, Policy: PolicySalvage})
	if err != nil {
		t.Fatal(err)
	}

	// Both policies report the damaged file, with its salvageable count.
	for _, st := range []MergeStats{stQ, stS} {
		if len(st.Quarantined) != 1 || st.Quarantined[0].Path != victim {
			t.Fatalf("quarantine report %+v, want just %s", st.Quarantined, victim)
		}
		if st.Quarantined[0].SalvagedTrees != salv.Trees {
			t.Errorf("reported %d salvaged trees, want %d", st.Quarantined[0].SalvagedTrees, salv.Trees)
		}
	}
	if stQ.Inputs != 7 {
		t.Errorf("quarantine merged %d inputs, want 7", stQ.Inputs)
	}
	if salv.Trees > 0 && stS.Inputs != 8 {
		t.Errorf("salvage merged %d inputs, want 8", stS.Inputs)
	}

	// Salvage total = quarantine total + what the salvage recovered.
	wantS := sum(dbQ.Merged.Total()) + sum(salv.Profile.Total())
	if got := sum(dbS.Merged.Total()); got != wantS {
		t.Errorf("salvage total %d, want %d (quarantine %d + salvaged %d)",
			got, wantS, sum(dbQ.Merged.Total()), sum(salv.Profile.Total()))
	}
}

// TestInjectedReadErrorQuarantined drives the EIO-on-read-k fault through
// the Open seam: the affected file is quarantined, everything else merges.
func TestInjectedReadErrorQuarantined(t *testing.T) {
	ps := randomProfiles(11, 1, 6)
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, profio.FileName(0, 3))
	open := func(path string) (io.ReadCloser, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		if path == victim {
			return faultio.WithCloser(faultio.FailingReader(f, 2), f), nil
		}
		return f, nil
	}

	db, st, err := LoadDirStreamingCtx(context.Background(), dir,
		LoadOptions{Workers: 3, Policy: PolicyQuarantine, Open: open})
	if err != nil {
		t.Fatal(err)
	}
	if st.Inputs != 5 || db.Threads != 5 {
		t.Errorf("merged %d inputs / %d threads, want 5", st.Inputs, db.Threads)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0].Path != victim {
		t.Fatalf("quarantine report %+v", st.Quarantined)
	}
	if !strings.Contains(st.Quarantined[0].Reason, "injected I/O error") {
		t.Errorf("reason %q does not surface the injected error", st.Quarantined[0].Reason)
	}

	// Strict mode propagates the same fault as a failure.
	if _, _, err := LoadDirStreamingCtx(context.Background(), dir,
		LoadOptions{Workers: 3, Policy: PolicyStrict, Open: open}); err == nil {
		t.Error("strict merge ignored the injected read error")
	}
}

// TestDecodePanicQuarantined: a panic inside a decode worker (here from a
// poisoned reader) must become a quarantine record, not a crashed process;
// strict mode must turn it into an ordinary error.
func TestDecodePanicQuarantined(t *testing.T) {
	ps := randomProfiles(13, 1, 4)
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(dir, profio.FileName(0, 1))
	open := func(path string) (io.ReadCloser, error) {
		if path == victim {
			return io.NopCloser(faultio.PanicReader()), nil
		}
		return os.Open(path)
	}

	_, st, err := LoadDirStreamingCtx(context.Background(), dir,
		LoadOptions{Workers: 2, Policy: PolicyQuarantine, Open: open})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Quarantined) != 1 || !strings.Contains(st.Quarantined[0].Reason, "panic") {
		t.Fatalf("quarantine report %+v, want one panic record", st.Quarantined)
	}
	if st.Inputs != 3 {
		t.Errorf("merged %d inputs, want 3", st.Inputs)
	}

	_, _, err = LoadDirStreamingCtx(context.Background(), dir,
		LoadOptions{Workers: 2, Policy: PolicyStrict, Open: open})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("strict error = %v, want decode panic surfaced as error", err)
	}
}

// TestLoadCancelReturnsPromptly: cancelling mid-merge must abort decoding
// (slowed to a crawl by injected slow reads) and return the context error
// quickly, leaking no goroutines.
func TestLoadCancelReturnsPromptly(t *testing.T) {
	ps := randomProfiles(19, 2, 32) // 64 files
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	open := func(path string) (io.ReadCloser, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return faultio.WithCloser(faultio.SlowReader(f, 5*time.Millisecond), f), nil
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := LoadDirStreamingCtx(ctx, dir, LoadOptions{Workers: 4, Policy: PolicyQuarantine, Open: open})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// 64 files x several slow reads each would take far longer than this
	// uncancelled; give generous slack for loaded CI machines.
	if elapsed > 3*time.Second {
		t.Errorf("cancel took %s, want prompt return", elapsed)
	}
	waitForGoroutines(t, before)
}

// TestNoGoroutineLeakAcrossPolicies: the pipeline's goroutines must all
// exit after every ingest mode, including degraded ones.
func TestNoGoroutineLeakAcrossPolicies(t *testing.T) {
	ps := randomProfiles(23, 1, 12)
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	if err := truncateToFraction(filepath.Join(dir, profio.FileName(0, 4)), 0.4); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for _, policy := range []ErrorPolicy{PolicyStrict, PolicyQuarantine, PolicySalvage} {
		_, _, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: 3, Policy: policy})
		if policy == PolicyStrict && err == nil {
			t.Error("strict merge of damaged dir succeeded")
		}
		if policy != PolicyStrict && err != nil {
			t.Errorf("%v merge failed: %v", policy, err)
		}
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines asserts the goroutine count returns to (at most) its
// pre-test level, allowing time for workers to observe shutdown.
func waitForGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines: %d before, %d after — pipeline leaked", before, runtime.NumGoroutine())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAllFilesQuarantinedIsAnError: a directory with nothing readable must
// fail loudly, not return an empty database.
func TestAllFilesQuarantinedIsAnError(t *testing.T) {
	ps := randomProfiles(29, 1, 3)
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	files, err := profio.Files(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if err := faultio.Overwrite(f, []byte("junk")); err != nil {
			t.Fatal(err)
		}
	}
	_, st, err := LoadDirStreamingCtx(context.Background(), dir,
		LoadOptions{Workers: 2, Policy: PolicyQuarantine})
	if err == nil {
		t.Fatal("all-quarantined directory returned a database")
	}
	if len(st.Quarantined) != len(files) {
		t.Errorf("quarantined %d, want %d", len(st.Quarantined), len(files))
	}
}
