package cct

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"dcprof/internal/metric"
)

func call(name string, line int) Frame {
	return Frame{Kind: KindCall, Module: "exe", Name: name, File: name + ".c", Line: line}
}

func stmt(fn string, line int) Frame {
	return Frame{Kind: KindStmt, Module: "exe", Name: fn, File: fn + ".c", Line: line}
}

func sampleVec(lat uint64) *metric.Vector {
	var v metric.Vector
	v[metric.Samples] = 1
	v[metric.Latency] = lat
	return &v
}

func TestInsertCoalescesPrefixes(t *testing.T) {
	tr := New()
	pathA := []Frame{call("main", 0), call("solve", 10), stmt("solve", 12)}
	pathB := []Frame{call("main", 0), call("solve", 10), stmt("solve", 15)}
	tr.AddSample(pathA, sampleVec(100))
	tr.AddSample(pathB, sampleVec(200))
	// root + main + solve + two leaves = 5 nodes.
	if got := tr.NumNodes(); got != 5 {
		t.Errorf("NumNodes = %d, want 5", got)
	}
	// Same path again adds metrics, not nodes.
	tr.AddSample(pathA, sampleVec(50))
	if got := tr.NumNodes(); got != 5 {
		t.Errorf("NumNodes after re-add = %d, want 5", got)
	}
	total := tr.Total()
	if total[metric.Samples] != 3 || total[metric.Latency] != 350 {
		t.Errorf("total = %v", total.String())
	}
}

func TestInclusiveExclusive(t *testing.T) {
	tr := New()
	leafA := tr.AddSample([]Frame{call("main", 0), call("a", 5), stmt("a", 6)}, sampleVec(10))
	tr.AddSample([]Frame{call("main", 0), call("b", 7), stmt("b", 8)}, sampleVec(20))
	mainNode, ok := tr.Root.Lookup(call("main", 0))
	if !ok {
		t.Fatal("main node missing")
	}
	inc := mainNode.Inclusive()
	if inc[metric.Latency] != 30 || inc[metric.Samples] != 2 {
		t.Errorf("main inclusive = %v", inc.String())
	}
	if mainNode.Metric(metric.Latency) != 0 {
		t.Error("internal node has exclusive metrics")
	}
	if leafA.Metric(metric.Latency) != 10 {
		t.Error("leaf exclusive wrong")
	}
}

func TestPath(t *testing.T) {
	tr := New()
	frames := []Frame{call("main", 0), call("a", 5), stmt("a", 6)}
	n := tr.InsertPath(frames)
	got := n.Path()
	if len(got) != 3 {
		t.Fatalf("path length %d", len(got))
	}
	for i := range frames {
		if got[i] != frames[i] {
			t.Errorf("path[%d] = %v, want %v", i, got[i], frames[i])
		}
	}
	if len(tr.Root.Path()) != 0 {
		t.Error("root path should be empty")
	}
}

func TestMergePreservesTotals(t *testing.T) {
	a, b := New(), New()
	a.AddSample([]Frame{call("main", 0), stmt("main", 3)}, sampleVec(100))
	b.AddSample([]Frame{call("main", 0), stmt("main", 3)}, sampleVec(50)) // same path
	b.AddSample([]Frame{call("main", 0), call("x", 9), stmt("x", 10)}, sampleVec(25))

	at, bt := a.Total(), b.Total()
	a.Merge(b)
	got := a.Total()
	if got[metric.Latency] != at[metric.Latency]+bt[metric.Latency] {
		t.Errorf("merged latency %d, want %d", got[metric.Latency], at[metric.Latency]+bt[metric.Latency])
	}
	// Shared path merged into one leaf.
	n, _ := a.Root.Lookup(call("main", 0))
	leaf, ok := n.Lookup(stmt("main", 3))
	if !ok || leaf.Metric(metric.Latency) != 150 {
		t.Error("shared leaf not coalesced")
	}
	// b is untouched.
	if bt2 := b.Total(); bt2 != bt {
		t.Error("merge mutated the source tree")
	}
}

func TestHeapVariableStructuralIdentity(t *testing.T) {
	// Two threads sample the same heap variable: same allocation path, so
	// merging coalesces them under one variable subtree (the Figure 2
	// scenario: many allocations at one call path = one logical variable).
	allocPath := []Frame{call("main", 0), call("hypre_CAlloc", 170), stmt("hypre_CAlloc", 175)}
	mark := Frame{Kind: KindHeapData, Name: "S_diag_j"}

	t1, t2 := New(), New()
	access1 := append(append(append([]Frame{}, allocPath...), mark), call("main", 0), stmt("spmv", 480))
	access2 := append(append(append([]Frame{}, allocPath...), mark), call("main", 0), stmt("spmv", 482))
	t1.AddSample(access1, sampleVec(300))
	t2.AddSample(access2, sampleVec(400))

	t1.Merge(t2)
	// Walk down the alloc path to the mark node.
	n := t1.Root
	for _, f := range allocPath {
		var ok bool
		n, ok = n.Lookup(f)
		if !ok {
			t.Fatalf("alloc path frame %v missing after merge", f)
		}
	}
	markNode, ok := n.Lookup(mark)
	if !ok {
		t.Fatal("heap-data mark missing")
	}
	inc := markNode.Inclusive()
	if inc[metric.Latency] != 700 {
		t.Errorf("variable inclusive latency = %d, want 700", inc[metric.Latency])
	}
	if markNode.NumChildren() != 1 {
		t.Errorf("access roots under mark = %d, want 1 (coalesced main)", markNode.NumChildren())
	}
}

func TestWalkOrderDeterministic(t *testing.T) {
	build := func() []string {
		tr := New()
		tr.AddSample([]Frame{call("zeta", 1), stmt("zeta", 2)}, sampleVec(1))
		tr.AddSample([]Frame{call("alpha", 1), stmt("alpha", 2)}, sampleVec(1))
		tr.AddSample([]Frame{call("mid", 1), stmt("mid", 2)}, sampleVec(1))
		var names []string
		tr.Walk(func(n *Node, _ int) bool {
			names = append(names, n.Frame().Name)
			return true
		})
		return names
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk order not deterministic: %v vs %v", a, b)
		}
	}
	// Children sorted by name: alpha before mid before zeta.
	if a[1] != "alpha" {
		t.Errorf("first child %q, want alpha", a[1])
	}
}

func TestWalkPrune(t *testing.T) {
	tr := New()
	tr.AddSample([]Frame{call("main", 0), call("deep", 1), stmt("deep", 2)}, sampleVec(1))
	visited := 0
	tr.Walk(func(n *Node, depth int) bool {
		visited++
		return depth < 1 // prune below main
	})
	if visited != 2 { // root + main
		t.Errorf("visited %d nodes, want 2", visited)
	}
}

func TestProfileMergeAndTotals(t *testing.T) {
	p1 := NewProfile(0, 0, "IBS@4096")
	p2 := NewProfile(0, 1, "IBS@4096")
	p1.Trees[ClassHeap].AddSample([]Frame{call("m", 0), stmt("m", 1)}, sampleVec(10))
	p2.Trees[ClassHeap].AddSample([]Frame{call("m", 0), stmt("m", 1)}, sampleVec(20))
	p2.Trees[ClassStatic].AddSample([]Frame{{Kind: KindStaticVar, Module: "exe", Name: "g"}, stmt("m", 2)}, sampleVec(5))

	p1.Merge(p2)
	total := p1.Total()
	if total[metric.Latency] != 35 {
		t.Errorf("total latency = %d, want 35", total[metric.Latency])
	}
	if p1.Trees[ClassHeap].Total()[metric.Latency] != 30 {
		t.Error("heap class total wrong")
	}
	if p1.Trees[ClassStatic].Total()[metric.Latency] != 5 {
		t.Error("static class total wrong")
	}
	if p1.NumNodes() == 0 {
		t.Error("NumNodes = 0")
	}
}

func TestClassAndKindStrings(t *testing.T) {
	if ClassHeap.String() != "heap data" || ClassNonMem.String() != "no memory access" {
		t.Error("class names wrong")
	}
	if KindHeapData.String() != "heap-data" || KindStaticVar.String() != "static-var" {
		t.Error("kind names wrong")
	}
}

// randomTree builds a tree from a seeded set of random paths.
func randomTree(seed int64, paths int) *Tree {
	rng := rand.New(rand.NewSource(seed))
	tr := New()
	fns := []string{"main", "a", "b", "c", "d"}
	for i := 0; i < paths; i++ {
		depth := rng.Intn(4) + 1
		var path []Frame
		for d := 0; d < depth; d++ {
			path = append(path, call(fns[rng.Intn(len(fns))], rng.Intn(5)))
		}
		path = append(path, stmt(fns[rng.Intn(len(fns))], rng.Intn(50)))
		tr.AddSample(path, sampleVec(uint64(rng.Intn(1000))))
	}
	return tr
}

// Property: merge is commutative and associative in totals and node counts.
func TestQuickMergeCommutesAssociates(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		a1, b1, c1 := randomTree(s1, 20), randomTree(s2, 20), randomTree(s3, 20)
		a2, b2, c2 := randomTree(s1, 20), randomTree(s2, 20), randomTree(s3, 20)

		// (a+b)+c
		a1.Merge(b1)
		a1.Merge(c1)
		// a+(c+b)
		c2.Merge(b2)
		a2.Merge(c2)

		if a1.Total() != a2.Total() {
			return false
		}
		return a1.NumNodes() == a2.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: total metrics equal the sum of inserted vectors regardless of
// path structure.
func TestQuickTotalsConserved(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		var wantLat, wantSamples uint64
		for i := 0; i < int(n%50)+1; i++ {
			lat := uint64(rng.Intn(500))
			path := []Frame{call("main", 0), stmt("main", rng.Intn(10))}
			tr.AddSample(path, sampleVec(lat))
			wantLat += lat
			wantSamples++
		}
		tot := tr.Total()
		return tot[metric.Latency] == wantLat && tot[metric.Samples] == wantSamples
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddSampleHotPath(b *testing.B) {
	tr := New()
	path := []Frame{call("main", 0), call("solve", 10), call("kernel", 20), stmt("kernel", 25)}
	v := sampleVec(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.AddSample(path, v)
	}
}

func BenchmarkMergeLargeTrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := randomTree(1, 2000)
		c := randomTree(2, 2000)
		b.StartTimer()
		a.Merge(c)
	}
}

// treeFingerprint flattens a tree to a deterministic (path, metrics) map so
// structurally equal trees compare equal regardless of how they were built.
func treeFingerprint(tr *Tree) map[string]metric.Vector {
	fp := make(map[string]metric.Vector)
	tr.Walk(func(n *Node, _ int) bool {
		key := fmt.Sprintf("%v", n.Path())
		v := fp[key]
		nv := n.Metrics()
		v.Add(&nv)
		fp[key] = v
		return true
	})
	return fp
}

// Property: Absorb (destructive, adoption-based) must produce exactly the
// tree Merge (copying) produces, for any pair of random trees.
func TestQuickAbsorbMatchesMerge(t *testing.T) {
	f := func(s1, s2 int64) bool {
		merged := randomTree(s1, 25)
		merged.Merge(randomTree(s2, 25))

		absorbed := randomTree(s1, 25)
		absorbed.Absorb(randomTree(s2, 25))

		return reflect.DeepEqual(treeFingerprint(merged), treeFingerprint(absorbed))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAbsorbAdoptsDisjoint: absorbing a tree with a disjoint root subtree
// must move the nodes, not copy them, and leave parent pointers correct.
func TestAbsorbAdoptsDisjoint(t *testing.T) {
	a, b := New(), New()
	a.AddSample([]Frame{call("left", 1), stmt("left", 10)}, sampleVec(3))
	b.AddSample([]Frame{call("right", 2), stmt("right", 20)}, sampleVec(4))
	moved := b.Root.Children()[0]

	a.Absorb(b)
	got, ok := a.Root.Lookup(call("right", 2))
	if !ok {
		t.Fatal("absorbed subtree not reachable")
	}
	if got != moved {
		t.Error("disjoint subtree was copied, not adopted")
	}
	if got.Parent() != a.Root {
		t.Error("adopted subtree's parent not re-pointed")
	}
	if a.Total()[metric.Latency] != 7 {
		t.Errorf("total = %d, want 7", a.Total()[metric.Latency])
	}
}

// TestMergeChildOverlap: absorbing a subtree whose context already exists
// must fold metrics recursively rather than attach a duplicate child.
func TestMergeChildOverlap(t *testing.T) {
	a, b := New(), New()
	a.AddSample([]Frame{call("f", 1), stmt("f", 10)}, sampleVec(5))
	b.AddSample([]Frame{call("f", 1), stmt("f", 10)}, sampleVec(6))
	a.Absorb(b)
	if n := a.Root.NumChildren(); n != 1 {
		t.Fatalf("root has %d children, want 1", n)
	}
	if a.Total()[metric.Latency] != 11 {
		t.Errorf("total = %d, want 11", a.Total()[metric.Latency])
	}
}

// TestAttachSpillsToMap: adoption through Absorb must follow the same
// inline-then-map layout as ChildID so lookups keep working past the
// inline fanout.
func TestAttachSpillsToMap(t *testing.T) {
	a, b := New(), New()
	for i := 0; i < nodeInline+3; i++ {
		b.AddSample([]Frame{call("f", i)}, sampleVec(1))
	}
	a.Absorb(b)
	if n := a.Root.NumChildren(); n != nodeInline+3 {
		t.Fatalf("root has %d children, want %d", n, nodeInline+3)
	}
	for i := 0; i < nodeInline+3; i++ {
		if _, ok := a.Root.Lookup(call("f", i)); !ok {
			t.Errorf("child %d unreachable after adoption", i)
		}
	}
}

// TestCompareWalkOrderMatchesWalk: CompareWalkOrder of any two nodes agrees
// with the positions Walk visits them at, and the unsorted sums agree with
// a Walk-based count.
func TestCompareWalkOrderMatchesWalk(t *testing.T) {
	tr := randomTree(11, 120)
	var order []*Node
	var want metric.Vector
	tr.Walk(func(n *Node, _ int) bool {
		order = append(order, n)
		nv := n.Metrics()
		want.Add(&nv)
		return true
	})
	for i, a := range order {
		for j, b := range order {
			if got := CompareWalkOrder(a, b); (got < 0) != (i < j) || (got == 0) != (i == j) {
				t.Fatalf("CompareWalkOrder(node %d, node %d) = %d", i, j, got)
			}
		}
	}
	if got := tr.NumNodes(); got != len(order) {
		t.Errorf("NumNodes = %d, Walk visits %d", got, len(order))
	}
	if got := tr.Total(); got != want {
		t.Errorf("Total = %v, Walk sums %v", got, want)
	}
}

// TestNodeSizePinned: the views' render snapshot indexes the tree from
// outside, so speeding queries up must not grow the node every sample and
// every merge allocates. 80 bytes is an exact allocator size class; the
// node keeps its frame's ID, never a copy of the frame, and a pointer to
// its metric row, never the row.
func TestNodeSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(Node{}); got != 80 {
		t.Errorf("unsafe.Sizeof(Node{}) = %d, pinned at 80", got)
	}
}

// TestNodePointersFirst: every pointer-bearing field of Node precedes every
// pointer-free one, so the collector scans a 56-byte prefix of each node
// and stops there.
func TestNodePointersFirst(t *testing.T) {
	typ := reflect.TypeOf(Node{})
	prefix, free := uintptr(0), ""
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !hasPointers(f.Type) {
			if free == "" {
				free = f.Name
			}
			continue
		}
		if free != "" {
			t.Errorf("pointer-bearing field %s follows pointer-free field %s", f.Name, free)
		}
		prefix = f.Offset + f.Type.Size()
	}
	if prefix != 56 {
		t.Errorf("pointer-bearing prefix is %d bytes, want 56", prefix)
	}
}

// hasPointers reports whether values of type t hold anything the garbage
// collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Map, reflect.Slice, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
