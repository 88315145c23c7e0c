package view

// The render-ready form of a merged profile. Every aggregation and renderer
// in this package reads a Snapshot; the functions that take a *cct.Profile
// freeze it and call the method of the same name, so there is one
// implementation whether the caller renders once (dcview) or holds the
// snapshot for as long as the profile is unchanged (dcprofd keeps one per
// cached merge).
//
// A query's cost follows the rows it emits, not the tree: an inclusive value
// is two loads and a subtraction, a subtree the min/depth cut-off rejects is
// skipped whole, and only surviving siblings are put in frame order.

import (
	"slices"
	"sync"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// Snapshot is an immutable index over a profile's trees. It stays valid for
// as long as the profile is not modified, and is safe for concurrent use.
type Snapshot struct {
	event string
	// nodes lists the class trees one after another, each depth-first with
	// siblings in no particular order; node i's subtree is nodes[i:end[i]]
	// and its children are i+1, end[i+1], ... below end[i].
	nodes []*cct.Node
	end   []int32
	// root is each class root's index.
	root [cct.NumClasses]int32
	// vars lists each class's variable anchors — the outermost heap-data
	// marks of the heap tree, static-var nodes of the static tree and
	// stack-var nodes of the unknown tree — in Walk order.
	vars [cct.NumClasses][]int32
	// cols holds, per metric queried so far, the prefix sums of the nodes'
	// exclusive values: a subtree is contiguous, so node i's inclusive
	// value is pre[end[i]] - pre[i].
	cols [metric.NumMetrics]struct {
		once sync.Once
		pre  []uint64
	}
}

// Freeze indexes the profile: one counting pass to size the arrays, one
// unsorted pass to fill them.
func Freeze(p *cct.Profile) *Snapshot {
	n := p.NumNodes()
	s := &Snapshot{event: p.Event, nodes: make([]*cct.Node, 0, n), end: make([]int32, n)}
	var visit func(*cct.Node)
	visit = func(nd *cct.Node) {
		i := len(s.nodes)
		s.nodes = append(s.nodes, nd)
		nd.EachChild(visit)
		s.end[i] = int32(len(s.nodes))
	}
	for c, t := range p.Trees {
		s.root[c] = int32(len(s.nodes))
		visit(t.Root)
	}
	s.vars[cct.ClassHeap] = s.anchors(cct.ClassHeap, cct.KindHeapData)
	s.vars[cct.ClassStatic] = s.anchors(cct.ClassStatic, cct.KindStaticVar)
	// Registered stack variables (§7 extension) live in the unknown tree
	// under their own dummy nodes.
	s.vars[cct.ClassUnknown] = s.anchors(cct.ClassUnknown, cct.KindStackVar)
	return s
}

// anchors lists class c's outermost nodes of the given kind in Walk order.
func (s *Snapshot) anchors(c cct.Class, kind cct.Kind) []int32 {
	each := func(fn func(int32)) {
		for i, hi := s.root[c]+1, s.end[s.root[c]]; i < hi; {
			if s.nodes[i].Frame().Kind == kind {
				fn(i)
				i = s.end[i] // access paths below a mark are not variables
			} else {
				i++
			}
		}
	}
	n := 0
	each(func(int32) { n++ })
	out := make([]int32, 0, n)
	each(func(i int32) { out = append(out, i) })
	slices.SortFunc(out, func(a, b int32) int { return cct.CompareWalkOrder(s.nodes[a], s.nodes[b]) })
	return out
}

// column is one metric's view of a snapshot.
type column struct {
	*Snapshot
	pre []uint64
}

// column returns the metric's inclusive column, built on first use.
func (s *Snapshot) column(m metric.ID) column {
	c := &s.cols[m]
	c.once.Do(func() {
		c.pre = make([]uint64, len(s.nodes)+1)
		for i, n := range s.nodes {
			c.pre[i+1] = c.pre[i] + n.Metric(m)
		}
	})
	return column{s, c.pre}
}

// inc is node i's inclusive value.
func (c column) inc(i int32) uint64 { return c.pre[c.end[i]] - c.pre[i] }

// total is the metric's total across all storage classes.
func (c column) total() uint64 { return c.pre[len(c.pre)-1] }

// share is node i's inclusive value over the total, which must not be zero.
func (c column) share(i int32) float64 { return float64(c.inc(i)) / float64(c.total()) }

// topDown is one pruned top-down traversal: the metric column, the cut-off,
// and a stack of surviving sibling runs shared by every level.
type topDown struct {
	column
	o     Options
	stack []int32
}

// push appends node i's children that survive the depth, zero and share
// cut-offs to the stack, in frame order, and returns that run; the caller
// pops it once it has descended into each.
func (t *topDown) push(i int32, depth int) []int32 {
	if t.o.MaxDepth > 0 && depth > t.o.MaxDepth {
		return nil
	}
	start := len(t.stack)
	for j := i + 1; j < t.end[i]; j = t.end[j] {
		if t.inc(j) == 0 || t.share(j) < t.o.MinShare {
			continue
		}
		t.stack = append(t.stack, j)
	}
	run := t.stack[start:]
	slices.SortFunc(run, func(a, b int32) int { return cct.CompareFrameIDs(t.nodes[a].ID(), t.nodes[b].ID()) })
	return run
}

func (t *topDown) pop(run []int32) { t.stack = t.stack[:len(t.stack)-len(run)] }
