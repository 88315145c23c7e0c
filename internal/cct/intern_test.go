package cct

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"dcprof/internal/metric"
)

func TestInternDenseIDsAndRoundTrip(t *testing.T) {
	in := NewInterner()
	frames := []Frame{
		{Kind: KindRoot},
		call("main", 0),
		call("solve", 10),
		stmt("solve", 12),
		{Kind: KindHeapData},
		{Kind: KindStaticVar, Module: "exe", Name: "grid"},
	}
	for i, f := range frames {
		if id := in.Intern(f); id != FrameID(i) {
			t.Fatalf("Intern(%v) = %d, want dense id %d", f, id, i)
		}
	}
	if in.Len() != len(frames) {
		t.Fatalf("Len = %d, want %d", in.Len(), len(frames))
	}
	// Re-interning is idempotent and allocates no new IDs.
	for i, f := range frames {
		if id := in.Intern(f); id != FrameID(i) {
			t.Fatalf("re-Intern(%v) = %d, want %d", f, id, i)
		}
		if id, ok := in.LookupID(f); !ok || id != FrameID(i) {
			t.Fatalf("LookupID(%v) = %d,%v, want %d,true", f, id, ok, i)
		}
		if got := in.Resolve(FrameID(i)); got != f {
			t.Fatalf("Resolve(%d) = %v, want %v", i, got, f)
		}
	}
	if in.Len() != len(frames) {
		t.Fatalf("Len after re-intern = %d, want %d", in.Len(), len(frames))
	}
	if _, ok := in.LookupID(call("never", 99)); ok {
		t.Fatal("LookupID of never-interned frame reported ok")
	}
}

func TestInternResolveUnknownPanics(t *testing.T) {
	in := NewInterner()
	in.Intern(call("main", 0))
	defer func() {
		if recover() == nil {
			t.Fatal("Resolve of out-of-range id did not panic")
		}
	}()
	in.Resolve(7)
}

// TestInternConcurrent hammers one interner from many goroutines over an
// overlapping frame set: every goroutine must observe the same frame→ID
// assignment, and resolution must round-trip (run under -race).
func TestInternConcurrent(t *testing.T) {
	const goroutines, distinct = 8, 200
	in := NewInterner()
	got := make([][]FrameID, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]FrameID, distinct)
			for i := 0; i < distinct; i++ {
				// Interleave orders so goroutines race on first-intern.
				k := (i*7 + g*13) % distinct
				f := call(fmt.Sprintf("fn%d", k), k)
				ids[k] = in.Intern(f)
				if r := in.Resolve(ids[k]); r.Name != fmt.Sprintf("fn%d", k) {
					panic("resolve mismatch under concurrency")
				}
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()
	if in.Len() != distinct {
		t.Fatalf("Len = %d, want %d distinct", in.Len(), distinct)
	}
	for g := 1; g < goroutines; g++ {
		for k := range got[g] {
			if got[g][k] != got[0][k] {
				t.Fatalf("goroutine %d saw id %d for frame %d, goroutine 0 saw %d",
					g, got[g][k], k, got[0][k])
			}
		}
	}
}

// TestFrameReadsWhileInterning: nodes resolve their frames, and siblings
// compare through pointers into the interner's published slice, while
// other goroutines intern new frames and so grow that slice — in place or
// into a new backing array. A pointer taken into a published snapshot must
// keep reading the same frame throughout (run under -race).
func TestFrameReadsWhileInterning(t *testing.T) {
	const readers, writers, perWriter, rounds = 4, 4, 2000, 50
	tr := New()
	for i := 0; i < 64; i++ {
		tr.InsertPath([]Frame{call(fmt.Sprintf("race-fn%d", i%8), i%5), stmt(fmt.Sprintf("race-st%d", i), i)})
	}
	var nodes []*Node
	var want []Frame
	var refs []*Frame
	tr.Walk(func(n *Node, _ int) bool {
		nodes = append(nodes, n)
		want = append(want, n.Frame())
		refs = append(refs, &(*defaultInterner.snap.Load())[n.ID()])
		return true
	})

	var growing, reading sync.WaitGroup
	var grown atomic.Bool
	errs := make(chan string, readers)
	for w := 0; w < writers; w++ {
		growing.Add(1)
		go func(w int) {
			defer growing.Done()
			for i := 0; i < perWriter; i++ {
				InternFrame(call(fmt.Sprintf("race-grow%d-%d", w, i), i))
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		reading.Add(1)
		go func(r int) {
			defer reading.Done()
			// Keep reading until the writers are done, however the
			// scheduler interleaves the two.
			for k := 0; k < rounds || !grown.Load(); k++ {
				for i, n := range nodes {
					if got := n.Frame(); got != want[i] {
						errs <- fmt.Sprintf("reader %d: node %d frame %v, want %v", r, i, got, want[i])
						return
					}
					if *refs[i] != want[i] {
						errs <- fmt.Sprintf("reader %d: pointer to frame %d now reads %v", r, i, *refs[i])
						return
					}
					j := (i + k + 1) % len(nodes)
					if got, w := CompareFrameIDs(n.ID(), nodes[j].ID()), CompareFrames(want[i], want[j]); got != w {
						errs <- fmt.Sprintf("reader %d: CompareFrameIDs(%d, %d) = %d, want %d", r, i, j, got, w)
						return
					}
				}
			}
		}(r)
	}
	growing.Wait()
	grown.Store(true)
	reading.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// walkSeq flattens a tree's deterministic pre-order into comparable rows.
func walkSeq(tr *Tree) []string {
	var out []string
	tr.Walk(func(n *Node, depth int) bool {
		out = append(out, fmt.Sprintf("%d|%v|%v", depth, n.Frame(), n.Metrics()))
		return true
	})
	return out
}

// Property: building a tree through the string-keyed API (AddSample) and
// through pre-interned IDs (AddSampleIDs) yields identical trees — same
// walk order, frames, metrics, node counts. This is the equivalence the
// interning refactor must preserve.
func TestQuickStringAndIDPathsEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		a := randomTree(seed, 30)

		// Rebuild the same random paths through the ID pipeline.
		b := New()
		ref := randomTree(seed, 30) // same sequence; walk it to recover paths
		ref.Walk(func(n *Node, _ int) bool {
			if n.Frame().Kind == KindRoot {
				return true
			}
			var ids []FrameID
			for _, f := range n.Path() {
				ids = append(ids, InternFrame(f))
			}
			v := n.Metrics()
			b.Add(b.InsertPathIDs(ids), &v)
			return true
		})

		as, bs := walkSeq(a), walkSeq(b)
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
		return a.Total() == b.Total() && a.NumNodes() == b.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestInlineSpill exercises fanouts past the scanned child list: the list
// must get its map index, children stay findable through both key forms,
// and Children keeps its deterministic ordering.
func TestInlineSpill(t *testing.T) {
	tr := New()
	const fanout = nodeInline*3 + 1
	var frames []Frame
	for i := 0; i < fanout; i++ {
		f := call(fmt.Sprintf("f%02d", i), i)
		frames = append(frames, f)
		tr.AddMetric(tr.Root.Child(f), metric.Samples, uint64(i+1))
	}
	if got := tr.Root.NumChildren(); got != fanout {
		t.Fatalf("NumChildren = %d, want %d", got, fanout)
	}
	for i, f := range frames {
		n, ok := tr.Root.Lookup(f)
		if !ok {
			t.Fatalf("Lookup(%v) missed after spill", f)
		}
		if n.Metric(metric.Samples) != uint64(i+1) {
			t.Fatalf("child %d metrics clobbered", i)
		}
		if n2 := tr.Root.ChildID(n.ID()); n2 != n {
			t.Fatalf("ChildID(%d) returned a different node", n.ID())
		}
	}
	kids := tr.Root.Children()
	if len(kids) != fanout {
		t.Fatalf("Children returned %d, want %d", len(kids), fanout)
	}
	for i := 1; i < len(kids); i++ {
		if CompareFrames(kids[i-1].Frame(), kids[i].Frame()) >= 0 {
			t.Fatalf("Children not sorted at %d: %v !< %v", i, kids[i-1].Frame(), kids[i].Frame())
		}
	}

	// Merging a spilled node preserves totals and structure.
	cp := tr.Clone()
	cp.Merge(tr)
	if cp.NumNodes() != tr.NumNodes() {
		t.Fatalf("merge changed node count: %d vs %d", cp.NumNodes(), tr.NumNodes())
	}
	want, got := tr.Total(), cp.Total()
	if got[metric.Samples] != 2*want[metric.Samples] {
		t.Fatalf("merge totals: got %d, want %d", got[metric.Samples], 2*want[metric.Samples])
	}
}

// BenchmarkAddSampleHotPathIDs is the profiler's actual attribution path:
// frames interned once, every subsequent sample descends by integer
// comparison. Compare against BenchmarkAddSampleHotPath (string frames) for
// the cost interning removes from the per-sample loop.
func BenchmarkAddSampleHotPathIDs(b *testing.B) {
	tr := New()
	path := []Frame{call("main", 0), call("solve", 10), call("kernel", 20), stmt("kernel", 25)}
	ids := make([]FrameID, len(path))
	for i, f := range path {
		ids[i] = InternFrame(f)
	}
	v := sampleVec(100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AddSampleIDs(ids, v)
	}
}

var sinkNode *Node

// BenchmarkChildLookup times ChildID hits on a node of each fan-out,
// cycling through its children: 1, 2 and 7 stay in the scanned list, 20
// is past nodeInline and goes through the map index.
func BenchmarkChildLookup(b *testing.B) {
	for _, fanout := range []int{1, 2, 7, 20} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			n := New().Root
			ids := make([]FrameID, fanout)
			for i := range ids {
				ids[i] = InternFrame(call(fmt.Sprint("lookup", i), i))
				n.ChildID(ids[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkNode = n.ChildID(ids[i%fanout])
			}
		})
	}
}
