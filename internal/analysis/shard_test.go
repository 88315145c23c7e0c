package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
)

// encodeDB renders a merged profile to its canonical v3 byte image —
// the strongest equality we can ask of two merge results.
func encodeDB(t testing.TB, db *Database) []byte {
	t.Helper()
	return encodeProfile(t, db.Merged)
}

// TestMergeWorkerInvariance: the in-memory merge, consuming or preserving,
// must produce the 1-worker database at every worker count, with and
// without sidecars — the worker count is a scheduling decision, never a
// semantic one. Consuming merges run on freshly generated copies.
func TestMergeWorkerInvariance(t *testing.T) {
	for _, sidecars := range []bool{false, true} {
		gen := func() []*cct.Profile {
			ps := randomProfiles(77, 3, 16)
			if sidecars {
				withRandomSidecars(ps, 77)
			}
			return ps
		}
		ps := gen()
		want := mergeDump(t, MergePreserving(ps, 1))
		if got := mergeDump(t, Merge(gen(), 1)); got != want {
			t.Errorf("sidecars=%v: 1-worker Merge differs from 1-worker MergePreserving", sidecars)
		}
		for _, workers := range []int{2, 7, 16} {
			if got := mergeDump(t, MergePreserving(ps, workers)); got != want {
				t.Errorf("sidecars=%v workers=%d: MergePreserving differs from 1 worker", sidecars, workers)
			}
			if got := mergeDump(t, Merge(gen(), workers)); got != want {
				t.Errorf("sidecars=%v workers=%d: Merge differs from 1 worker", sidecars, workers)
			}
		}
	}
}

// TestLoadShardInvariance runs the same property end to end through the
// file loader: same directory, different worker counts and policies (and
// the Shards field file loads now ignore), byte-identical merged database.
func TestLoadShardInvariance(t *testing.T) {
	ps := randomProfiles(101, 2, 24)
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, cfg := range []LoadOptions{
		{Workers: 1, Shards: 1},
		{Workers: 4, Shards: 2},
		{Workers: 4, Shards: 7},
		{Workers: 8, Shards: 16},
		{Workers: 3, Policy: PolicySalvage},
	} {
		db, _, err := LoadDirStreamingCtx(context.Background(), dir, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		got := encodeDB(t, db)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%+v: merged encoding differs", cfg)
		}
	}
}

// FuzzMergeMatchesLoad: profiles built from fuzz bytes, with or without
// sidecars, merge to one database three ways — MergePreserving at a
// fuzz-chosen worker count, Merge over a second build of the same
// profiles, and a file load of their profio.WriteDir output — and
// MergePreserving leaves every input's encoding as it was.
func FuzzMergeMatchesLoad(f *testing.F) {
	f.Add([]byte{3, 0, 0x15, 7, 1, 0x92, 40, 2, 0x3c, 9}, uint8(2), false)
	f.Add([]byte{11, 5, 0xff, 1, 9, 0x80, 2, 10, 0x41, 200, 0, 0x07, 33}, uint8(7), true)
	f.Add([]byte{}, uint8(0), true)
	f.Fuzz(func(t *testing.T, data []byte, workers uint8, sidecars bool) {
		ps := fuzzProfiles(data, sidecars)
		before := make([][]byte, len(ps))
		for i, p := range ps {
			before[i] = encodeProfile(t, p)
		}
		want := mergeDump(t, MergePreserving(ps, 1+int(workers%8)))
		for i, p := range ps {
			if !bytes.Equal(encodeProfile(t, p), before[i]) {
				t.Fatalf("MergePreserving changed input %d", i)
			}
		}
		if got := mergeDump(t, Merge(fuzzProfiles(data, sidecars), 1+int(workers/8%8))); got != want {
			t.Error("Merge differs from MergePreserving")
		}
		dir := filepath.Join(t.TempDir(), "m")
		if _, err := profio.WriteDir(dir, ps); err != nil {
			t.Fatal(err)
		}
		files, err := profio.Files(dir)
		if err != nil {
			t.Fatal(err)
		}
		db, _, err := LoadFilesStreamingCtx(context.Background(), "fuzz", nil, files, LoadOptions{Workers: 1 + int(workers%5)})
		if err != nil {
			t.Fatal(err)
		}
		if got := mergeDump(t, db); got != want {
			t.Error("file load differs from MergePreserving")
		}
	})
}

// fuzzProfiles builds thread profiles from fuzz bytes: the first byte sets
// the thread count (1–12, four threads per rank), and every following
// triple adds one sample — its thread, then a byte choosing the storage
// class, the call path's function and depth, then its latency and line.
// With sidecars, every profile gets a random sidecar seeded by the input
// length.
func fuzzProfiles(data []byte, sidecars bool) []*cct.Profile {
	n, seed := 1, int64(len(data))
	if len(data) > 0 {
		n, data = 1+int(data[0]%12), data[1:]
	}
	ps := make([]*cct.Profile, n)
	for i := range ps {
		ps[i] = cct.NewProfile(i/4, i%4, "IBS@4096")
	}
	for ; len(data) >= 3; data = data[3:] {
		sel, lat := data[1], data[2]
		path := []cct.Frame{
			{Kind: cct.KindCall, Module: "exe", Name: fmt.Sprintf("f%d", sel>>2&7), File: "a.c", Line: int(sel >> 5)},
			{Kind: cct.KindStmt, Module: "exe", Name: "s", File: "a.c", Line: int(lat % 16)},
		}
		var v metric.Vector
		v[metric.Samples] = 1
		v[metric.Latency] = uint64(lat)
		ps[int(data[0])%n].Trees[cct.Class(sel%uint8(cct.NumClasses))].AddSample(path[int(sel>>7):], &v)
	}
	if sidecars {
		withRandomSidecars(ps, seed)
	}
	return ps
}

// scalePoint is one cell of the merge-scale sweep.
type scalePoint struct {
	Profiles     int     `json:"profiles"`
	Workers      int     `json:"workers"`
	WallNS       int64   `json:"wall_ns"`
	ProfilesPerS float64 `json:"profiles_per_s"`
}

// scaleCorpus names the sweep corpus shape; bump it when scaleProfile
// changes so the regression check never compares across corpora.
const scaleCorpus = "dense-d6-40fn-v1"

// scaleReport is the BENCH_merge_scale.json schema.
type scaleReport struct {
	Corpus           string       `json:"corpus"`
	NumCPU           int          `json:"num_cpu"`
	GOMAXPROCS       int          `json:"gomaxprocs"`
	Points           []scalePoint `json:"points"`
	Speedup10k8v1    float64      `json:"speedup_10k_8v1"`
	SpeedupEnforced  bool         `json:"speedup_enforced"`
	ConstrainedByCPU bool         `json:"constrained_by_cpus"`
	V3Bytes          int64        `json:"v3_bytes"`
	BestOf           int          `json:"best_of"`
	Timestamp        string       `json:"timestamp"`
}

// TestMergeScaleGate is the 10k-profile scaling gate: it sweeps
// {1k, 10k} profiles x {1, 4, 8} workers through the file loader, writes
// BENCH_merge_scale.json, and enforces
//
//   - >= 3x speedup for 10k profiles at 8 workers vs 1 — but only when
//     the machine actually has 8 CPUs to scale onto; on smaller hosts the
//     sweep still runs and the gate degrades to "8 workers must not be
//     more than 40% slower than 1" (bounding what the extra accumulators
//     and goroutines cost an oversubscribed host), with
//     constrained_by_cpus recorded so readers know why.
//   - <= 20% regression of 8-worker 1k-profile throughput against the
//     committed BENCH_merge_scale.json, when one exists for the same CPU
//     count.
//
// Opt-in via DCPROF_BENCH_MERGE_SCALE=<output file> (check.sh sets it):
// wall-clock gates are too noisy for the default `go test ./...` tier.
func TestMergeScaleGate(t *testing.T) {
	out := os.Getenv("DCPROF_BENCH_MERGE_SCALE")
	if out == "" {
		t.Skip("set DCPROF_BENCH_MERGE_SCALE=<output file> to run the merge scale gate")
	}

	// Two corpora: 1k realistic thread profiles and a 10k-thread variant
	// with smaller per-thread trees (same merged shape, 10x the files).
	mk := func(n, samples int) string {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("m%d", n))
		var ps []*cct.Profile
		for th := 0; th < n; th++ {
			ps = append(ps, scaleProfile(int64(th), samples))
		}
		if _, err := profio.WriteDir(dir, ps); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	dirs := map[int]string{1000: mk(1000, 120), 10000: mk(10000, 40)}

	const rounds = 3
	wall := map[[2]int]time.Duration{}
	var points []scalePoint
	for _, n := range []int{1000, 10000} {
		for _, w := range []int{1, 4, 8} {
			best := time.Duration(1<<63 - 1)
			for r := 0; r < rounds; r++ {
				t0 := time.Now()
				if _, _, err := LoadDirStreamingCtx(context.Background(), dirs[n],
					LoadOptions{Workers: w}); err != nil {
					t.Fatal(err)
				}
				if d := time.Since(t0); d < best {
					best = d
				}
			}
			wall[[2]int{n, w}] = best
			points = append(points, scalePoint{
				Profiles: n, Workers: w, WallNS: best.Nanoseconds(),
				ProfilesPerS: float64(n) / best.Seconds(),
			})
			t.Logf("%5d profiles, %d workers: %v (%.0f profiles/s)",
				n, w, best, float64(n)/best.Seconds())
		}
	}

	// Encoded size of the same corpus.
	var v3B int64
	for th := 0; th < 64; th++ {
		n, err := profio.EncodedSize(scaleProfile(int64(th), 120))
		if err != nil {
			t.Fatal(err)
		}
		v3B += n
	}

	speedup := float64(wall[[2]int{10000, 1}]) / float64(wall[[2]int{10000, 8}])
	enforce := runtime.NumCPU() >= 8
	rep := scaleReport{
		Corpus: scaleCorpus,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Points: points, Speedup10k8v1: speedup,
		SpeedupEnforced: enforce, ConstrainedByCPU: !enforce,
		V3Bytes: v3B, BestOf: rounds, Timestamp: time.Now().UTC().Format(time.RFC3339),
	}

	// Regression check against the committed report, apples-to-apples only.
	if prev, err := os.ReadFile(out); err == nil {
		var old scaleReport
		if json.Unmarshal(prev, &old) == nil && old.NumCPU == rep.NumCPU && old.Corpus == rep.Corpus {
			var oldTP, newTP float64
			for _, pt := range old.Points {
				if pt.Profiles == 1000 && pt.Workers == 8 {
					oldTP = pt.ProfilesPerS
				}
			}
			for _, pt := range points {
				if pt.Profiles == 1000 && pt.Workers == 8 {
					newTP = pt.ProfilesPerS
				}
			}
			if oldTP > 0 && newTP < 0.8*oldTP {
				t.Errorf("8-worker 1k-profile throughput regressed >20%%: %.0f -> %.0f profiles/s", oldTP, newTP)
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("10k-profile speedup 8v1: %.2fx (enforced: %v, %d CPUs); report %s",
		speedup, enforce, rep.NumCPU, out)

	if enforce {
		if speedup < 3.0 {
			t.Errorf("10k-profile 8-vs-1 worker speedup %.2fx, want >= 3x", speedup)
		}
	} else if speedup < 0.6 {
		t.Errorf("10k-profile merge at 8 workers is %.2fx of 1-worker speed on a %d-CPU host — worker overhead exceeds the 40%% bound", speedup, rep.NumCPU)
	}
}

// scaleProfile builds one thread profile for the scale sweep: a bounded
// symbol set (40 functions, a few lines each) reached through many
// distinct depth-6 calling contexts — the frames-few/contexts-many shape
// of real per-thread CCTs, and the redundancy the v3 frame table encodes
// away.
func scaleProfile(seed int64, samples int) *cct.Profile {
	p := cct.NewProfile(int(seed)/64, int(seed)%64, "IBS@4096")
	for i := 0; i < samples; i++ {
		fn := (i + int(seed)) % 40
		var path []cct.Frame
		for d := 0; d < 6; d++ {
			f := (fn + d*7 + 3) % 40
			path = append(path, cct.Frame{
				Kind: cct.KindCall, Module: "exe",
				Name: fmt.Sprintf("f%d", f), File: fmt.Sprintf("s%d.c", f%7),
				Line: 10 + 10*((i>>uint(d))%3),
			})
		}
		leaf := (fn + i/40) % 40
		path = append(path, cct.Frame{
			Kind: cct.KindStmt, Module: "exe",
			Name: fmt.Sprintf("f%d", leaf), File: fmt.Sprintf("s%d.c", leaf%7),
			Line: 100 + 10*(i%5),
		})
		var v metric.Vector
		v[metric.Samples] = 1
		v[metric.Latency] = uint64(100 + i%400)
		p.Trees[cct.Class(i%cct.NumClasses)].AddSample(path, &v)
	}
	return p
}
