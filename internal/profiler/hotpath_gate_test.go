package profiler

// Hot-path benchmark gate (ISSUE 5 satellite): opt-in via
// DCPROF_BENCH_HOTPATH=<output file> (check.sh sets it), because wall-clock
// gates are too noisy for the default `go test ./...` tier. It measures the
// interned sample path against an in-test replica of the pre-interning
// implementation (string-keyed CCT descent, per-sample frame conversion,
// RWMutex-guarded heap map — exactly what the seed's handler did per
// sample), writes BENCH_hotpath.json, and fails if:
//
//   - steady-state sample attribution allocates (> 0 allocs/op), or
//   - the attribution speedup over the legacy replica is < 1.5x, or
//   - the speedup regressed > 10% against the committed report.
//
// The gate compares within one run on one machine — absolute ns/op are
// recorded for the report but never gated, so the check is portable.

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"dcprof/internal/analysis"
	"dcprof/internal/cct"
	"dcprof/internal/mem"
	"dcprof/internal/metric"
)

// benchSimOnlyLoad is BenchmarkSamplePath's loop with sampling off: the
// pure simulator cost of a load, subtracted out so the gate compares
// attribution work against attribution work.
func benchSimOnlyLoad(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Period = 1 << 30
	_, th := benchSetup(cfg, 12)
	var bufs []mem.Addr
	for i := 0; i < 512; i++ {
		bufs = append(bufs, th.Malloc(8192))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Load(bufs[i%len(bufs)], 8)
	}
}

// legacyNode replicates the seed's string-keyed CCT node: children in a
// map[cct.Frame]*Node, every descent hashing three strings.
type legacyNode struct {
	metrics  metric.Vector
	children map[cct.Frame]*legacyNode
}

func (n *legacyNode) child(f cct.Frame) *legacyNode {
	if c, ok := n.children[f]; ok {
		return c
	}
	c := &legacyNode{children: make(map[cct.Frame]*legacyNode)}
	n.children[f] = c
	return c
}

// benchLegacyAttribution replays the seed's per-sample attribution against
// a live thread: resolve the IP, take the heap-map read lock, look the
// address up in the flat interval map, convert every unwound frame to a
// cct.Frame, and insert the string-keyed path. This is the work the
// interning refactor removed from the sample path.
func benchLegacyAttribution(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Period = 1 << 30 // the real profiler stays quiet; we drive the replica
	_, th := benchSetup(cfg, 12)

	// The seed's heap map: one flat slice of blocks sorted by lo, searched
	// with sort.Search under a read lock.
	type legacyBlock struct {
		lo, hi uint64
		prefix []cct.Frame
	}
	var mu sync.RWMutex
	var blocks []legacyBlock
	var bufs []mem.Addr
	allocPrefix := []cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "fn", File: "f.c", Line: 1},
		{Kind: cct.KindStmt, Module: "exe", Name: "fn", File: "f.c", Line: 5},
		{Kind: cct.KindCall, Module: "libc", Name: "malloc", File: "stdlib.h"},
		{Kind: cct.KindHeapData},
	}
	for i := 0; i < 512; i++ {
		a := th.Malloc(8192)
		bufs = append(bufs, a)
		blocks = append(blocks, legacyBlock{uint64(a), uint64(a) + 8192, allocPrefix})
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].lo < blocks[j].lo })
	root := &legacyNode{children: make(map[cct.Frame]*legacyNode)}
	lm := th.Proc.LoadMap
	ip := th.IP()
	var v metric.Vector
	v[metric.Samples] = 1
	var pathBuf []cct.Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames := th.Frames()
		mod, fn, line, ok := lm.ResolveIP(ip)
		if !ok {
			b.Fatal("bench IP unresolvable")
		}
		ea := uint64(bufs[i%len(bufs)])
		mu.RLock()
		j := sort.Search(len(blocks), func(j int) bool { return blocks[j].lo > ea }) - 1
		ok = j >= 0 && ea < blocks[j].hi
		var prefix []cct.Frame
		if ok {
			prefix = blocks[j].prefix
		}
		mu.RUnlock()
		if !ok {
			b.Fatal("bench block missing")
		}
		buf := pathBuf[:0]
		buf = append(buf, prefix...)
		for _, f := range frames {
			buf = append(buf, cct.Frame{
				Kind: cct.KindCall, Module: f.Fn.Module.Name,
				Name: f.Fn.Name, File: f.Fn.File, Line: f.CallLine,
			})
		}
		buf = append(buf, cct.Frame{
			Kind: cct.KindStmt, Module: mod.Name, Name: fn.Name, File: fn.File, Line: line,
		})
		pathBuf = buf
		n := root
		for _, f := range buf {
			n = n.child(f)
		}
		n.metrics.Add(&v)
	}
}

func benchAddSampleString(b *testing.B) {
	tr := cct.New()
	path := []cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c", Line: 0},
		{Kind: cct.KindCall, Module: "exe", Name: "solve", File: "solve.c", Line: 10},
		{Kind: cct.KindCall, Module: "exe", Name: "kernel", File: "kernel.c", Line: 20},
		{Kind: cct.KindStmt, Module: "exe", Name: "kernel", File: "kernel.c", Line: 25},
	}
	var v metric.Vector
	v[metric.Samples] = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AddSample(path, &v)
	}
}

func benchAddSampleIDs(b *testing.B) {
	tr := cct.New()
	path := []cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c", Line: 0},
		{Kind: cct.KindCall, Module: "exe", Name: "solve", File: "solve.c", Line: 10},
		{Kind: cct.KindCall, Module: "exe", Name: "kernel", File: "kernel.c", Line: 20},
		{Kind: cct.KindStmt, Module: "exe", Name: "kernel", File: "kernel.c", Line: 25},
	}
	ids := make([]cct.FrameID, len(path))
	for i, f := range path {
		ids[i] = cct.InternFrame(f)
	}
	var v metric.Vector
	v[metric.Samples] = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AddSampleIDs(ids, &v)
	}
}

// gateProfiles mirrors the analysis package's 128-thread merge input.
func gateProfiles(seed int64, threads int) []*cct.Profile {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cct.Profile, 0, threads)
	for th := 0; th < threads; th++ {
		p := cct.NewProfile(0, th, "IBS@4096")
		for i := 0; i < 200; i++ {
			var v metric.Vector
			v[metric.Samples] = uint64(rng.Intn(10) + 1)
			v[metric.Latency] = uint64(rng.Intn(1000))
			fns := []string{"main", "a", "b", "c", "d"}
			fn := fns[rng.Intn(len(fns))]
			path := []cct.Frame{
				{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
				{Kind: cct.KindCall, Module: "exe", Name: fn, File: fn + ".c", Line: rng.Intn(5)},
				{Kind: cct.KindStmt, Module: "exe", Name: fn, File: fn + ".c", Line: rng.Intn(40)},
			}
			p.Trees[cct.Class(rng.Intn(cct.NumClasses))].AddSample(path, &v)
		}
		out = append(out, p)
	}
	return out
}

func benchMerge128(b *testing.B) {
	ps := gateProfiles(42, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.Merge(ps, 8)
	}
}

// bestOf runs a benchmark rounds times and keeps the fastest result — the
// least-noise estimate of its true cost on this machine.
func bestOf(rounds int, fn func(*testing.B)) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	for i := 0; i < rounds; i++ {
		r := testing.Benchmark(fn)
		if i == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// pairedOverhead interleaves two benchmarks (A, B, A, B, …) and returns
// the median of the per-pair ratios A/B, with A's fastest result and the
// median of each side. A tight ratio gate (the 5% temporal-overhead check)
// reads the median ratio: each pair runs back to back, so a frequency or
// load shift lands on both sides of it alike, and one noisy round moves
// the median less than it moves the difference of two best-of figures.
// The returned allocation counts are the largest any round saw.
func pairedOverhead(rounds int, fnA, fnB func(*testing.B)) (ratio float64, bestA testing.BenchmarkResult, medA, medB, allocsA, allocsB int64) {
	var ratios []float64
	var nsA, nsB []int64
	for i := 0; i < rounds; i++ {
		a, b := testing.Benchmark(fnA), testing.Benchmark(fnB)
		if i == 0 || a.NsPerOp() < bestA.NsPerOp() {
			bestA = a
		}
		ratios = append(ratios, float64(a.NsPerOp())/float64(max(b.NsPerOp(), 1)))
		nsA, nsB = append(nsA, a.NsPerOp()), append(nsB, b.NsPerOp())
		allocsA, allocsB = max(allocsA, a.AllocsPerOp()), max(allocsB, b.AllocsPerOp())
	}
	slices.Sort(ratios)
	slices.Sort(nsA)
	slices.Sort(nsB)
	return ratios[rounds/2], bestA, nsA[rounds/2], nsB[rounds/2], allocsA, allocsB
}

type hotpathReport struct {
	SamplePathNS         int64 `json:"sample_path_ns"`
	SamplePathAllocs     int64 `json:"sample_path_allocs"`
	SamplePathParallelNS int64 `json:"sample_path_parallel_ns"`
	// SamplePathNoTemporalNS is the sample path with the temporal
	// recorder off; the gate bounds the temporal overhead (the median of
	// interleaved on/off ratios, within one run) to 5% and 0 extra allocs.
	// Both figures are the median of their side's rounds.
	SamplePathNoTemporalNS int64   `json:"sample_path_no_temporal_ns"`
	TemporalOverheadPct    float64 `json:"temporal_overhead_pct"`
	SimOnlyNS              int64   `json:"sim_only_ns"`
	SampleAttrNS           int64   `json:"sample_attr_ns"`
	LegacyAttrNS           int64   `json:"legacy_attr_ns"`
	AttrSpeedup            float64 `json:"attr_speedup"`
	GateMinSpeedup         float64 `json:"gate_min_speedup"`
	ClassifyNS             int64   `json:"classify_ns"`
	ClassifyParallelNS     int64   `json:"classify_parallel_ns"`
	AddSampleStringNS      int64   `json:"add_sample_string_ns"`
	AddSampleIDsNS         int64   `json:"add_sample_ids_ns"`
	Merge128ThreadsNS      int64   `json:"merge_128_threads_ns"`
	Pass                   bool    `json:"pass"`
	Timestamp              string  `json:"timestamp"`
}

// TestHotPathBenchGate is the perf regression gate for the interned sample
// path. See the file comment for what it enforces.
func TestHotPathBenchGate(t *testing.T) {
	out := os.Getenv("DCPROF_BENCH_HOTPATH")
	if out == "" {
		t.Skip("set DCPROF_BENCH_HOTPATH=<output file> to run the hot-path benchmark gate")
	}
	const (
		rounds = 3
		// overheadRounds is the number of interleaved on/off temporal
		// pairs, odd so the median is one of them: the 5% gate is much
		// tighter than the 1.5x speedup gate.
		overheadRounds = 9
		minSpeedup     = 1.5
	)

	// A committed report, when present, is the regression baseline: the
	// machine-portable speedup ratio must not decay by more than 10%.
	var baseline *hotpathReport
	if raw, err := os.ReadFile(out); err == nil {
		var prev hotpathReport
		if json.Unmarshal(raw, &prev) == nil && prev.AttrSpeedup > 0 {
			baseline = &prev
		}
	}

	ratio, sample, sampleNS, noTemporalNS, sampleAllocs, noTemporalAllocs :=
		pairedOverhead(overheadRounds, BenchmarkSamplePath, BenchmarkSamplePathNoTemporal)
	simOnly := bestOf(rounds, benchSimOnlyLoad)
	legacy := bestOf(rounds, benchLegacyAttribution)

	attrNS := sample.NsPerOp() - simOnly.NsPerOp()
	if attrNS < 1 {
		attrNS = 1 // attribution vanished below sim noise; avoid div-by-zero
	}
	speedup := float64(legacy.NsPerOp()) / float64(attrNS)

	temporalPct := 100 * (ratio - 1)

	rep := hotpathReport{
		SamplePathNS:           sampleNS,
		SamplePathAllocs:       sampleAllocs,
		SamplePathParallelNS:   bestOf(rounds, BenchmarkSamplePathParallel).NsPerOp(),
		SamplePathNoTemporalNS: noTemporalNS,
		TemporalOverheadPct:    temporalPct,
		SimOnlyNS:              simOnly.NsPerOp(),
		SampleAttrNS:           attrNS,
		LegacyAttrNS:           legacy.NsPerOp(),
		AttrSpeedup:            speedup,
		GateMinSpeedup:         minSpeedup,
		ClassifyNS:             bestOf(rounds, BenchmarkClassify).NsPerOp(),
		ClassifyParallelNS:     bestOf(rounds, BenchmarkClassifyParallel).NsPerOp(),
		AddSampleStringNS:      bestOf(rounds, benchAddSampleString).NsPerOp(),
		AddSampleIDsNS:         bestOf(rounds, benchAddSampleIDs).NsPerOp(),
		Merge128ThreadsNS:      bestOf(rounds, benchMerge128).NsPerOp(),
		Timestamp:              time.Now().UTC().Format(time.RFC3339),
	}

	pass := true
	if rep.SamplePathAllocs > 0 {
		// BenchmarkSamplePath runs DefaultConfig, temporal recorder
		// included — so this is also the "timestamping adds 0 allocs"
		// assertion.
		pass = false
		t.Errorf("steady-state sample path allocates: %d allocs/op, want 0", rep.SamplePathAllocs)
	}
	if rep.SamplePathAllocs > noTemporalAllocs {
		pass = false
		t.Errorf("temporal recorder adds allocs: %d with vs %d without",
			rep.SamplePathAllocs, noTemporalAllocs)
	}
	if temporalPct > 5 {
		pass = false
		t.Errorf("temporal recorder adds %.1f%% to the sample path (median of %d paired ratios; medians %dns vs %dns), gate allows 5%%",
			temporalPct, overheadRounds, rep.SamplePathNS, rep.SamplePathNoTemporalNS)
	}
	if speedup < minSpeedup {
		pass = false
		t.Errorf("attribution speedup %.2fx (legacy %dns vs interned %dns), gate requires >= %.1fx",
			speedup, rep.LegacyAttrNS, rep.SampleAttrNS, minSpeedup)
	}
	if baseline != nil && speedup < 0.9*baseline.AttrSpeedup {
		pass = false
		t.Errorf("attribution speedup regressed > 10%%: %.2fx now vs %.2fx in committed report",
			speedup, baseline.AttrSpeedup)
	}
	rep.Pass = pass

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("sample %dns median (%d allocs), temporal %+.1f%%; fastest sample %dns - sim-only %dns = attribution %dns vs legacy %dns = %.2fx; report %s",
		rep.SamplePathNS, rep.SamplePathAllocs, temporalPct, sample.NsPerOp(), rep.SimOnlyNS, rep.SampleAttrNS, rep.LegacyAttrNS, speedup, out)
}
