package view

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// randomProfile draws a profile that has every shape the views
// distinguish: heap variables labelled and not, one mark directly under the
// root, a mark nested below another (not a variable of its own), the same
// label at several allocation sites, statics that share a name across
// modules, stack variables, samples outside every variable, zero-valued
// nodes, and nodes with up to about ten children. Values come from a small
// range so that ties on value — and on (value, name) — are the rule.
func randomProfile(rng *rand.Rand) *cct.Profile {
	p := cct.NewProfile(0, 0, "IBS@4096")
	call := func(i int) cct.Frame {
		fn := fmt.Sprintf("f%d", i)
		return cct.Frame{Kind: cct.KindCall, Module: "exe", Name: fn, File: fn + ".c", Line: i % 3}
	}
	stmt := func(i int) cct.Frame {
		fn := fmt.Sprintf("f%d", i%5)
		return cct.Frame{Kind: cct.KindStmt, Module: "exe", Name: fn, File: fn + ".c", Line: 10 + i}
	}
	vec := func() *metric.Vector {
		var v metric.Vector
		for m := range v {
			if rng.Intn(3) > 0 {
				v[m] = uint64(rng.Intn(4))
			}
		}
		return &v
	}
	access := func(prefix []cct.Frame) []cct.Frame {
		path := slices.Clone(prefix)
		for d := rng.Intn(4); d > 0; d-- {
			path = append(path, call(rng.Intn(7)))
		}
		return append(path, stmt(rng.Intn(12)))
	}
	labels := []string{"", "", "grid", "grid", "rhs", "A_offd"}
	allocators := []string{"malloc", "calloc"}

	heap := p.Trees[cct.ClassHeap]
	for v := rng.Intn(12); v > 0; v-- {
		var alloc []cct.Frame
		for d := rng.Intn(3); d > 0; d-- {
			alloc = append(alloc, call(rng.Intn(4)))
		}
		if rng.Intn(4) > 0 {
			alloc = append(alloc, stmt(rng.Intn(3)))
		}
		alloc = append(alloc, cct.Frame{Kind: cct.KindCall, Module: "libc", Name: allocators[rng.Intn(2)]})
		if rng.Intn(3) == 0 {
			heap.AddSample(alloc, vec()) // a sample on the allocation path itself
		}
		mark := append(alloc, cct.Frame{Kind: cct.KindHeapData, Name: labels[rng.Intn(len(labels))]})
		for a := rng.Intn(5); a > 0; a-- {
			heap.AddSample(access(mark), vec())
		}
		if rng.Intn(4) == 0 {
			heap.AddSample(access(append(mark, cct.Frame{Kind: cct.KindHeapData, Name: "nested"})), vec())
		}
	}
	if rng.Intn(2) == 0 {
		heap.AddSample(access([]cct.Frame{{Kind: cct.KindHeapData, Name: labels[rng.Intn(len(labels))]}}), vec())
	}

	static := p.Trees[cct.ClassStatic]
	for v := rng.Intn(8); v > 0; v-- {
		sv := cct.Frame{Kind: cct.KindStaticVar, Module: []string{"exe", "libm"}[rng.Intn(2)], Name: []string{"lut", "lut", "tab", "grid"}[rng.Intn(4)]}
		for a := 1 + rng.Intn(3); a > 0; a-- {
			static.AddSample(access([]cct.Frame{sv}), vec())
		}
	}

	unknown := p.Trees[cct.ClassUnknown]
	for v := rng.Intn(4); v > 0; v-- {
		sv := cct.Frame{Kind: cct.KindStackVar, Module: "exe", Name: []string{"buf", "tmp", "grid"}[rng.Intn(3)]}
		unknown.AddSample(access([]cct.Frame{call(rng.Intn(3)), sv}), vec())
	}
	for a := rng.Intn(10); a > 0; a-- {
		unknown.AddSample(access(nil), vec())
	}

	nonmem := p.Trees[cct.ClassNonMem]
	for a := rng.Intn(10); a > 0; a-- {
		nonmem.AddSample(access(nil), vec())
	}
	if rng.Intn(3) == 0 { // a class with nodes but no value
		p.Trees[cct.ClassNonMem] = bare(nonmem)
	}
	return p
}

// bare returns a copy of t's structure without its metrics.
func bare(t *cct.Tree) *cct.Tree {
	out := cct.New()
	t.Walk(func(n *cct.Node, _ int) bool {
		out.InsertPath(n.Path())
		return true
	})
	return out
}

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeJSON(&b, v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSnapshotMatchesReference is the oracle: over random profiles and the
// whole option grid, the six rendered outputs are byte-identical to the
// recursive reference, and the ranked variables name the same anchor nodes
// with the same allocation sites and top accesses.
func TestSnapshotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	profiles := []*cct.Profile{cct.NewProfile(0, 0, "empty")}
	for i := 0; i < 24; i++ {
		profiles = append(profiles, randomProfile(rng))
	}
	mins := []float64{0, 0.005, 0.2}
	depths := []int{0, 1, 4, 12}
	rowses := []int{0, 1, 20}

	for pi, p := range profiles {
		before := profiles[(pi+1)%len(profiles)]
		s, sb := Freeze(p), Freeze(before)
		for _, m := range metric.IDs() {
			for _, min := range mins {
				for _, depth := range depths {
					o := Options{Metric: m, MinShare: min, MaxDepth: depth}
					if got, want := jsonBytes(t, s.TopDownJSON(o)), jsonBytes(t, refTopDownJSON(p, o)); !bytes.Equal(got, want) {
						t.Fatalf("profile %d %+v: top-down JSON differs\ngot:\n%s\nwant:\n%s", pi, o, got, want)
					}
					if got, want := s.RenderTopDown(o), refRenderTopDown(p, o); got != want {
						t.Fatalf("profile %d %+v: top-down text differs\ngot:\n%s\nwant:\n%s", pi, o, got, want)
					}
				}
			}
			for _, rows := range rowses {
				o := Options{Metric: m, MaxRows: rows}
				if got, want := jsonBytes(t, s.BottomUpJSON(o)), jsonBytes(t, refBottomUpJSON(p, o)); !bytes.Equal(got, want) {
					t.Fatalf("profile %d %+v: bottom-up JSON differs\ngot:\n%s\nwant:\n%s", pi, o, got, want)
				}
				if got, want := jsonBytes(t, sb.DiffJSON(s, m, rows)), jsonBytes(t, refDiffJSON(before, p, m, rows)); !bytes.Equal(got, want) {
					t.Fatalf("profile %d %+v: diff JSON differs\ngot:\n%s\nwant:\n%s", pi, o, got, want)
				}
				if got, want := s.RenderBottomUp(o), refRenderBottomUp(p, o); got != want {
					t.Fatalf("profile %d %+v: bottom-up text differs\ngot:\n%s\nwant:\n%s", pi, o, got, want)
				}
				if got, want := s.RenderVariables(o), refRenderVariables(p, o); got != want {
					t.Fatalf("profile %d %+v: variables text differs\ngot:\n%s\nwant:\n%s", pi, o, got, want)
				}
			}

			if got, want := s.MetricTotal(m), refMetricTotal(p, m); got != want {
				t.Fatalf("profile %d %s: total %d, want %d", pi, m.Name(), got, want)
			}
			shares := s.ClassShares(m)
			for c, tree := range p.Trees {
				want := 0.0
				if grand := refMetricTotal(p, m); grand > 0 {
					want = float64(refClassTotal(tree, m)) / float64(grand)
				}
				if shares[c] != want {
					t.Fatalf("profile %d %s: class %d share %v, want %v", pi, m.Name(), c, shares[c], want)
				}
			}
			got, want := s.RankVariables(m), refRankVariables(p, m)
			if len(got) != len(want) {
				t.Fatalf("profile %d %s: %d variables, want %d", pi, m.Name(), len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] { // Node pointer and AllocSite included
					t.Fatalf("profile %d %s: variable %d = %+v, want %+v", pi, m.Name(), i, got[i], want[i])
				}
				// Statements that tie on (value, file, line) come out in map
				// order on both sides: compare under a total order.
				ga, wa := TopAccesses(got[i].Node, m, 7), refTopAccesses(want[i].Node, m, 7)
				for _, accs := range [][]AccessStat{ga, wa} {
					slices.SortFunc(accs, func(a, b AccessStat) int {
						return cmp.Or(cmp.Compare(b.Value, a.Value), cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Func, b.Func))
					})
				}
				if !slices.Equal(ga, wa) {
					t.Fatalf("profile %d %s: top accesses of %s = %+v, want %+v", pi, m.Name(), want[i].Name, ga, wa)
				}
			}
		}
		// The *cct.Profile entry points are the same code behind a Freeze.
		o := Options{Metric: metric.Latency, MinShare: DefaultMinShare, MaxDepth: DefaultMaxDepth, MaxRows: DefaultMaxRows}
		var got bytes.Buffer
		if err := WriteTopDownJSON(&got, p, o); err != nil {
			t.Fatal(err)
		}
		if want := jsonBytes(t, refTopDownJSON(p, o)); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("profile %d: WriteTopDownJSON differs from the reference", pi)
		}
	}
}

// TestSnapshotConcurrentColumns renders a freshly frozen profile from many
// goroutines at once, each on a different metric first, so the lazily built
// columns race if they can (run under -race).
func TestSnapshotConcurrentColumns(t *testing.T) {
	p := randomProfile(rand.New(rand.NewSource(7)))
	want := map[metric.ID][]byte{}
	for _, m := range metric.IDs() {
		want[m] = jsonBytes(t, refTopDownJSON(p, Options{Metric: m}))
	}
	s := Freeze(p)
	var wg sync.WaitGroup
	for g := 0; g < 4*int(metric.NumMetrics); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < int(metric.NumMetrics); k++ {
				m := metric.ID((g + k) % int(metric.NumMetrics))
				var b bytes.Buffer
				if err := s.WriteTopDownJSON(&b, Options{Metric: m}); err != nil || !bytes.Equal(b.Bytes(), want[m]) {
					t.Errorf("goroutine %d: %s render differs from the reference (err %v)", g, m.Name(), err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// denseProfile builds a profile of at least n nodes shaped like a merged
// dense corpus: call paths of depth six over forty functions, a quarter of
// them below labelled heap variables, values spread evenly.
func denseProfile(n int) *cct.Profile {
	rng := rand.New(rand.NewSource(int64(n)))
	p := cct.NewProfile(0, 0, "IBS@4096")
	frame := func(kind cct.Kind) cct.Frame {
		fn := fmt.Sprintf("fn%02d", rng.Intn(40))
		return cct.Frame{Kind: kind, Module: "exe", Name: fn, File: fn + ".c", Line: rng.Intn(4)}
	}
	for i := 0; i%512 != 0 || p.NumNodes() < n; i++ { // NumNodes is a walk: look now and then
		var path []cct.Frame
		c := cct.Class(i % cct.NumClasses)
		if c == cct.ClassHeap {
			path = append(path, frame(cct.KindCall), frame(cct.KindStmt),
				cct.Frame{Kind: cct.KindCall, Module: "libc", Name: "malloc"},
				cct.Frame{Kind: cct.KindHeapData, Name: fmt.Sprintf("var%03d", rng.Intn(300))})
		}
		for d := 0; d < 5; d++ {
			path = append(path, frame(cct.KindCall))
		}
		var v metric.Vector
		v[metric.Samples], v[metric.Latency], v[metric.FromRMEM] = 1, uint64(50+rng.Intn(900)), uint64(rng.Intn(2))
		p.Trees[c].AddSample(append(path, frame(cct.KindStmt)), &v)
	}
	return p
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotAllocGates pins what the snapshot costs, by count: freezing
// allocates a fixed number of objects whatever the tree's size, 24 bytes a
// node with its first metric and 8 with each further one, and a warm query
// at the default options allocates for the rows it emits.
func TestSnapshotAllocGates(t *testing.T) {
	small, large := denseProfile(10_000), denseProfile(40_000)
	freezeAllocs := func(p *cct.Profile) float64 { return testing.AllocsPerRun(5, func() { Freeze(p) }) }
	if a, b := freezeAllocs(small), freezeAllocs(large); a != b || a > 64 {
		t.Errorf("Freeze allocates %.0f objects at %d nodes and %.0f at %d; want the same count, at most 64",
			a, small.NumNodes(), b, large.NumNodes())
	}

	nodes := uint64(small.NumNodes())
	const rounding = 8 << 10 // a large allocation is rounded up to whole pages
	var s *Snapshot
	if got := allocated(func() { s = Freeze(small); s.MetricTotal(metric.Latency) }); got > 24*nodes {
		t.Errorf("snapshot with one metric: %d B for %d nodes (%.1f B/node), want at most 24 B/node", got, nodes, float64(got)/float64(nodes))
	}
	if got := allocated(func() { s.MetricTotal(metric.FromRMEM) }); got > 8*nodes+rounding {
		t.Errorf("second metric: %d B for %d nodes (%.1f B/node), want 8 B/node", got, nodes, float64(got)/float64(nodes))
	}

	o := Options{Metric: metric.Latency, MinShare: DefaultMinShare, MaxDepth: DefaultMaxDepth, MaxRows: DefaultMaxRows}
	const renders = 20
	perRender := allocated(func() {
		for i := 0; i < renders; i++ {
			if err := s.WriteTopDownJSON(io.Discard, o); err != nil {
				t.Fatal(err)
			}
		}
	}) / renders
	if perRender > 16<<10 {
		t.Errorf("warm default top-down render allocates %d B, want at most 16 KiB", perRender)
	}
}
