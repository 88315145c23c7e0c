package cct

import (
	"runtime"
	"testing"
	"unsafe"

	"dcprof/internal/metric"
)

// TestTimeDeltaSizePinned: a delta names its node and which metrics moved;
// the values live in the window's Vals. Every recorded window holds a few
// of them, so growing the struct grows every held series.
func TestTimeDeltaSizePinned(t *testing.T) {
	if got := unsafe.Sizeof(TimeDelta{}); got != 16 {
		t.Errorf("unsafe.Sizeof(TimeDelta{}) = %d, pinned at 16", got)
	}
}

// TestRowsOnlyWhereMetrics: interior contexts and zero adds take no metric
// row; the first non-zero add gives a node its row.
func TestRowsOnlyWhereMetrics(t *testing.T) {
	tr := New()
	leaf := tr.AddSample([]Frame{call("main", 1), stmt("main", 2)}, sampleVec(5))
	var zero metric.Vector
	quiet := tr.AddSample([]Frame{call("main", 1), stmt("main", 3)}, &zero)
	tr.AddMetric(quiet, metric.Latency, 0)
	if leaf.metrics == nil || leaf.Parent().metrics != nil || tr.Root.metrics != nil {
		t.Errorf("rows: leaf %p, interior %p, root %p; want only the leaf's", leaf.metrics, leaf.Parent().metrics, tr.Root.metrics)
	}
	if quiet.metrics != nil {
		t.Error("a node that only ever had zero added got a row")
	}
	if got := leaf.Metrics(); got != *sampleVec(5) {
		t.Errorf("leaf metrics = %v", got.String())
	}
}

// TestAbsorbedRowsOutliveSource: a subtree Absorb adopts keeps the rows it
// has in the source's slab. Once the source tree is gone and the collector
// has run, and the freed memory has been handed out again, the adopted
// nodes still read their own metrics.
func TestAbsorbedRowsOutliveSource(t *testing.T) {
	dst := New()
	dst.AddSample([]Frame{call("left", 1), stmt("left", 10)}, sampleVec(3))
	want := dst.Total()
	func() {
		src := New()
		for i := 0; i < 3*maxRows; i++ {
			src.AddSample([]Frame{call("right", 2), stmt("right", i)}, sampleVec(uint64(i)))
		}
		tot := src.Total()
		want.Add(&tot)
		dst.Absorb(src)
	}()
	for round := 0; round < 3; round++ {
		runtime.GC()
		junk := make([][]metric.Vector, 64)
		for i := range junk {
			junk[i] = make([]metric.Vector, maxRows)
			for j := range junk[i] {
				junk[i][j][metric.Latency] = ^uint64(0)
			}
		}
		runtime.KeepAlive(junk)
	}
	if got := dst.Total(); got != want {
		t.Fatalf("after the source was collected: total %v, want %v", got.String(), want.String())
	}
	right, _ := dst.Root.Lookup(call("right", 2))
	for i := 0; i < 3*maxRows; i++ {
		if n, ok := right.Lookup(stmt("right", i)); !ok || n.Metric(metric.Latency) != uint64(i) {
			t.Fatalf("adopted leaf %d: present %v, latency %d", i, ok, n.Metric(metric.Latency))
		}
	}
}

// TestCloneSharesNoRows: Tree.Clone and Profile.Clone copy metric rows
// into the copy's own slab, so adding to every node of the copy leaves the
// source's totals as they were.
func TestCloneSharesNoRows(t *testing.T) {
	src := randomTree(7, 200)
	before := src.Total()
	cl := src.Clone()
	cl.each(func(n *Node) { cl.AddMetric(n, metric.Samples, 1) })
	if got := src.Total(); got != before {
		t.Errorf("writing to a Tree.Clone changed the source: %v, was %v", got.String(), before.String())
	}
	if got := cl.Total()[metric.Samples]; got != before[metric.Samples]+uint64(src.NumNodes()) {
		t.Errorf("clone samples = %d, want %d", got, before[metric.Samples]+uint64(src.NumNodes()))
	}

	p := NewProfile(0, 0, "")
	for c := range p.Trees {
		p.Trees[c] = randomTree(int64(c), 100)
	}
	pBefore := p.Total()
	pc := p.Clone()
	for _, tr := range pc.Trees {
		tr.each(func(n *Node) { tr.AddMetric(n, metric.Latency, 3) })
	}
	if got := p.Total(); got != pBefore {
		t.Errorf("writing to a Profile.Clone changed the source: %v, was %v", got.String(), pBefore.String())
	}
}
