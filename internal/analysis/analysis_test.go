package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
)

func randomProfiles(seed int64, ranks, threads int) []*cct.Profile {
	rng := rand.New(rand.NewSource(seed))
	var out []*cct.Profile
	for r := 0; r < ranks; r++ {
		for th := 0; th < threads; th++ {
			p := cct.NewProfile(r, th, "IBS@4096")
			for i := 0; i < rng.Intn(30)+1; i++ {
				var v metric.Vector
				v[metric.Samples] = uint64(rng.Intn(10) + 1)
				v[metric.Latency] = uint64(rng.Intn(1000))
				class := cct.Class(rng.Intn(cct.NumClasses))
				path := []cct.Frame{
					{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
					{Kind: cct.KindStmt, Module: "exe", Name: "main", File: "main.c", Line: rng.Intn(20)},
				}
				p.Trees[class].AddSample(path, &v)
			}
			out = append(out, p)
		}
	}
	return out
}

func totals(ps []*cct.Profile) metric.Vector {
	var v metric.Vector
	for _, p := range ps {
		pv := p.Total()
		v.Add(&pv)
	}
	return v
}

func TestMergePreservesTotals(t *testing.T) {
	ps := randomProfiles(7, 3, 4)
	want := totals(ps)
	db := Merge(ps, 4)
	if got := db.Merged.Total(); got != want {
		t.Errorf("merged total %v, want %v", got.String(), want.String())
	}
	if db.Ranks != 3 || db.Threads != 12 {
		t.Errorf("ranks=%d threads=%d, want 3,12", db.Ranks, db.Threads)
	}
	if db.Event != "IBS@4096" {
		t.Errorf("event = %q", db.Event)
	}
}

func TestMergeParallelMatchesSequential(t *testing.T) {
	a := Merge(randomProfiles(11, 2, 8), 1)
	b := Merge(randomProfiles(11, 2, 8), 8)
	if a.Merged.Total() != b.Merged.Total() {
		t.Error("parallel merge total differs from sequential")
	}
	if a.Merged.NumNodes() != b.Merged.NumNodes() {
		t.Error("parallel merge structure differs from sequential")
	}
}

func TestMergeSingleProfile(t *testing.T) {
	ps := randomProfiles(3, 1, 1)
	want := ps[0].Total()
	db := Merge(ps, 4)
	if db.Merged.Total() != want {
		t.Error("single-profile merge altered totals")
	}
}

func TestMergeEmpty(t *testing.T) {
	db := Merge(nil, 4)
	if db.Merged == nil || db.Threads != 0 {
		t.Error("empty merge not well-formed")
	}
}

func TestMergeOddCount(t *testing.T) {
	ps := randomProfiles(5, 1, 7) // odd
	want := totals(ps)
	db := Merge(ps, 3)
	if db.Merged.Total() != want {
		t.Error("odd-count reduction lost a profile")
	}
}

func TestLoadDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "m")
	ps := randomProfiles(9, 2, 3)
	want := totals(ps)
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	db, _, err := LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if db.Merged.Total() != want {
		t.Error("loaded totals differ")
	}
	if db.MeasurementBytes <= 0 {
		t.Error("MeasurementBytes not recorded")
	}
	if db.Ranks != 2 || db.Threads != 6 {
		t.Errorf("ranks=%d threads=%d", db.Ranks, db.Threads)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, _, err := LoadDirStreamingCtx(context.Background(), t.TempDir(), LoadOptions{Workers: 1}); err == nil {
		t.Error("empty directory accepted")
	}
}

func BenchmarkMerge128Threads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ps := randomProfiles(42, 1, 128)
		b.StartTimer()
		Merge(ps, 8)
	}
}

func TestMeasureMergeCoalescing(t *testing.T) {
	// 64 threads running identical code produce near-identical CCTs; the
	// merge must collapse them (the paper's scalability claim).
	base := randomProfiles(21, 1, 1)[0]
	var ps []*cct.Profile
	for th := 0; th < 64; th++ {
		c := cct.NewProfile(0, th, base.Event)
		c.Merge(base)
		ps = append(ps, c)
	}
	st := MeasureMerge(ps)
	if st.Inputs != 64 {
		t.Fatalf("inputs = %d", st.Inputs)
	}
	if st.MergedNodes != base.NumNodes() {
		t.Errorf("merged nodes = %d, want the single-thread count %d",
			st.MergedNodes, base.NumNodes())
	}
	if st.CoalescingFactor() < 60 {
		t.Errorf("coalescing factor = %.1f, want ~64", st.CoalescingFactor())
	}
	// Inputs untouched.
	if ps[0].NumNodes() != base.NumNodes() {
		t.Error("MeasureMerge mutated its inputs")
	}
}

func TestMeasureMergeTimesPopulated(t *testing.T) {
	ps := randomProfiles(5, 2, 16)
	st := MeasureMerge(ps)
	if st.SequentialMerge <= 0 || st.ParallelMerge <= 0 {
		t.Errorf("merge timings not measured: %+v", st)
	}
	if st.InputNodes == 0 || st.MergedNodes == 0 {
		t.Errorf("node counts missing: %+v", st)
	}
}

func TestJSONExport(t *testing.T) {
	ps := randomProfiles(13, 1, 3)
	want := totals(ps)
	db := Merge(ps, 0)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, db); err != nil {
		t.Fatal(err)
	}
	var back JSONDatabase
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if back.Event != db.Event || back.Threads != 3 {
		t.Errorf("header = %+v", back)
	}
	if len(back.Classes) != cct.NumClasses {
		t.Errorf("classes = %d", len(back.Classes))
	}
	// Metric totals survive the export.
	var sum uint64
	var walk func(n *JSONNode)
	walk = func(n *JSONNode) {
		sum += n.Metrics["SAMPLES"]
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, root := range back.Classes {
		walk(root)
	}
	if sum != want[metric.Samples] {
		t.Errorf("exported samples = %d, want %d", sum, want[metric.Samples])
	}
}
