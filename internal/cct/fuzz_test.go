package cct

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dcprof/internal/metric"
)

// refNode is the reference tree FuzzChildListMatchesReference holds beside
// each CCT: children in a plain map, one metric per node.
type refNode struct {
	kids    map[FrameID]*refNode
	samples uint64
}

func newRef() *refNode { return &refNode{kids: map[FrameID]*refNode{}} }

func (r *refNode) child(id FrameID) *refNode {
	k := r.kids[id]
	if k == nil {
		k = newRef()
		r.kids[id] = k
	}
	return k
}

func (r *refNode) merge(o *refNode) {
	r.samples += o.samples
	for id, k := range o.kids {
		r.child(id).merge(k)
	}
}

func (r *refNode) clone() *refNode {
	c := newRef()
	c.merge(r)
	return c
}

// FuzzChildListMatchesReference drives three trees through random
// ChildID inserts, Merge, Absorb (consuming the source, so adopted
// subtrees land under roots whose list may already be indexed) and Clone,
// over fan-outs that cross nodeInline, and after every step compares each
// tree with a map-of-maps reference: the same children in Children's
// order with the same metrics. It also checks every node's child list: its
// length is NumChildren, an index holds exactly the list, each child
// points back at its parent, and no two siblings share an ID.
func FuzzChildListMatchesReference(f *testing.F) {
	// Twelve children under tree 1's root (indexed), four under tree 0's,
	// two of them shared, then tree 0 absorbed into tree 1.
	var seed []byte
	for i := byte(0); i < 12; i++ {
		seed = append(seed, 0, 1, 0, 0, i, 1)
	}
	for i := byte(10); i < 14; i++ {
		seed = append(seed, 0, 0, 0, 1, i, 5, 2)
	}
	f.Add(append(seed, 2, 0, 1, 3, 1, 2))
	f.Add([]byte{0, 0, 0, 3, 1, 2, 3, 4, 1, 0, 2, 3, 0, 1, 2, 3, 1, 1, 3, 2, 2, 2, 1})
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 4; i++ {
		s := make([]byte, 300)
		rng.Read(s)
		f.Add(s)
	}
	var ids [24]FrameID
	for i := range ids {
		ids[i] = InternFrame(call(fmt.Sprint("fz", i), i%3))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		var trees [3]*Tree
		var refs [3]*refNode
		for i := range trees {
			trees[i], refs[i] = New(), newRef()
		}
		// Every step checks all three trees, so a long input would cost
		// steps × nodes; 200 steps build at most 800 nodes.
		for step := 0; len(data) > 0 && step < 200; step++ {
			op, a, b := next()%4, next()%len(trees), next()%len(trees)
			switch op {
			case 0: // insert a path into tree a
				n, r := trees[a].Root, refs[a]
				for d := 1 + next()%4; d > 0; d-- {
					id := ids[next()%len(ids)]
					n, r = n.ChildID(id), r.child(id)
				}
				x := uint64(next() % 4)
				trees[a].AddMetric(n, metric.Samples, x)
				r.samples += x
			case 1: // merge tree a into tree b, a left as it was
				trees[b].Merge(trees[a])
				refs[b].merge(refs[a].clone())
			case 2: // absorb tree a into tree b, consuming a
				src := trees[a]
				if a == b {
					src = trees[a].Clone()
				}
				refs[b].merge(refs[a].clone())
				trees[b].Absorb(src)
				if a != b {
					trees[a], refs[a] = New(), newRef()
				}
			case 3: // tree b becomes a copy of tree a
				trees[b], refs[b] = trees[a].Clone(), refs[a].clone()
			}
			for i := range trees {
				checkAgainstRef(t, fmt.Sprintf("step %d op %d tree %d", step, op, i), trees[i].Root, refs[i])
			}
		}
	})
}

// checkAgainstRef compares the subtree at n with its reference and checks
// n's child list invariants, recursively.
func checkAgainstRef(t *testing.T, where string, n *Node, r *refNode) {
	t.Helper()
	if got := n.Metric(metric.Samples); got != r.samples {
		t.Fatalf("%s: node %v has %d samples, reference %d", where, n.Frame(), got, r.samples)
	}
	var list []*Node
	seen := map[FrameID]bool{}
	for c := n.child; c != nil; c = c.next {
		if seen[c.id] {
			t.Fatalf("%s: node %v lists child %v twice", where, n.Frame(), c.Frame())
		}
		seen[c.id] = true
		if c.parent != n {
			t.Fatalf("%s: child %v of %v has the wrong parent", where, c.Frame(), n.Frame())
		}
		list = append(list, c)
	}
	if n.NumChildren() != len(list) {
		t.Fatalf("%s: NumChildren %d, list length %d", where, n.NumChildren(), len(list))
	}
	if len(list) > nodeInline && n.children == nil {
		t.Fatalf("%s: a list of %d children has no index", where, len(list))
	}
	if n.children != nil {
		if len(n.children) != len(list) {
			t.Fatalf("%s: index holds %d children, list %d", where, len(n.children), len(list))
		}
		for _, c := range list {
			if n.children[c.id] != c {
				t.Fatalf("%s: index does not hold listed child %v", where, c.Frame())
			}
		}
	}
	want := make([]FrameID, 0, len(r.kids))
	for id := range r.kids {
		want = append(want, id)
	}
	slices.SortFunc(want, CompareFrameIDs)
	kids := n.Children()
	if len(kids) != len(want) {
		t.Fatalf("%s: node %v has %d children, reference %d", where, n.Frame(), len(kids), len(want))
	}
	for i, c := range kids {
		if c.id != want[i] {
			t.Fatalf("%s: child %d of %v is %v, reference %v", where, i, n.Frame(), c.Frame(), FrameByID(want[i]))
		}
		checkAgainstRef(t, where, c, r.kids[c.id])
	}
}
