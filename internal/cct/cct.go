// Package cct implements calling context trees (CCTs), the compact profile
// representation at the heart of the paper's scalability story.
//
// A CCT coalesces common call-path prefixes: the root is the thread start,
// internal nodes are call sites, and leaves are statements where samples
// were taken. The data-centric extension adds two node kinds: a per-variable
// dummy node for statics, and — for heap data — the allocation call path
// prepended to every access path, separated by a "heap data accesses" mark.
// Because the variable identity is *structural* (the allocation path itself,
// or the static symbol), merging profiles across threads and processes is a
// plain recursive tree merge that adds metric vectors.
package cct

import (
	"cmp"
	"fmt"
	"slices"

	"dcprof/internal/metric"
)

// Kind discriminates CCT node frames.
type Kind uint8

const (
	// KindRoot is the tree root (thread start / storage-class root).
	KindRoot Kind = iota
	// KindCall is a procedure frame entered from a call site.
	KindCall
	// KindStmt is a leaf statement (a sampled instruction or an allocation
	// point).
	KindStmt
	// KindStaticVar is the dummy node naming a static variable; all access
	// paths to that variable hang beneath it.
	KindStaticVar
	// KindHeapData is the "heap data accesses" separator between a heap
	// variable's allocation path and the access paths to it.
	KindHeapData
	// KindStackVar is the dummy node naming a registered stack variable
	// (the paper's §7 extension: stack-allocated data attribution).
	KindStackVar
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindCall:
		return "call"
	case KindStmt:
		return "stmt"
	case KindStaticVar:
		return "static-var"
	case KindHeapData:
		return "heap-data"
	case KindStackVar:
		return "stack-var"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Frame identifies a CCT node within its parent. Frames are comparable and
// name symbols by strings, so identical paths from different threads,
// processes, or profile files merge structurally.
type Frame struct {
	// Kind tags the node.
	Kind Kind
	// Module is the load module name (calls, statements, static vars).
	Module string
	// Name is the function name (calls/statements), the variable name
	// (static vars), or the optional heap variable label (heap-data marks).
	Name string
	// File is the source file for calls and statements.
	File string
	// Line is the call-site line (KindCall), the statement line (KindStmt),
	// or zero.
	Line int
}

// String renders the frame for views and debugging.
func (f Frame) String() string {
	switch f.Kind {
	case KindRoot:
		return "<root>"
	case KindCall:
		if f.Line == 0 {
			return f.Name
		}
		return fmt.Sprintf("%s (called from line %d)", f.Name, f.Line)
	case KindStmt:
		return fmt.Sprintf("%s:%d [%s]", f.File, f.Line, f.Name)
	case KindStaticVar:
		return fmt.Sprintf("static %s [%s]", f.Name, f.Module)
	case KindStackVar:
		return fmt.Sprintf("stack %s [%s]", f.Name, f.Module)
	case KindHeapData:
		if f.Name != "" {
			return fmt.Sprintf("heap data accesses <%s>", f.Name)
		}
		return "heap data accesses"
	default:
		return fmt.Sprintf("?%d", f.Kind)
	}
}

// nodeInline is the longest child list a lookup scans before the node
// indexes it with a map. Most CCT nodes have one child or a handful (call
// sites of one function), so child lookup on the sample hot path is
// usually a short integer scan with no hashing (BenchmarkChildLookup).
const nodeInline = 8

// Node is one CCT node. Children are keyed by interned FrameID — path
// insertion and merge compare integers, never strings. The node keeps only
// the ID; Frame resolves it through the default interner, so display and
// deterministic ordering (Children, Walk, the on-disk encoding) are
// unchanged by interning.
//
// Samples are exclusive, so most nodes — every interior calling context —
// carry no metric; a node that does points at a row of its tree's slab.
//
// Field order is load-bearing: every pointer-bearing field comes first, so
// the collector scans the 40-byte prefix (5 words) and skips the rest, and
// the node is 48 bytes, an exact size class (TestNodeSizePinned,
// TestNodePointersFirst).
type Node struct {
	parent *Node

	// Children form a list, newest first, from child through each one's
	// next; children indexes it once it outgrows nodeInline (else nil).
	child, next *Node
	children    map[FrameID]*Node

	// metrics is the node's exclusive metric row (samples attributed
	// directly to this node), nil while every metric is zero.
	metrics *metric.Vector

	id FrameID

	// scratch is single-owner bookkeeping space for whichever component
	// animates the node's tree; the temporal recorder uses it as a
	// current-window stamp so the per-sample "already seen this window"
	// check is one field compare instead of a map lookup. Trees are
	// per-thread while samples flow, so there is exactly one writer.
	scratch uint32
}

// Frame returns the frame identifying the node within its parent, resolved
// from the default interner: one atomic load and an index.
func (n *Node) Frame() Frame { return FrameByID(n.id) }

// Parent returns the node's parent (nil at the root).
func (n *Node) Parent() *Node { return n.parent }

// Scratch returns the node's scratch word (see the field doc).
func (n *Node) Scratch() uint32 { return n.scratch }

// SetScratch stores the node's scratch word (see the field doc).
func (n *Node) SetScratch(s uint32) { n.scratch = s }

// Metrics returns the node's exclusive metric values: samples attributed
// directly to this node (usually only leaves have any). A Tree method —
// AddSample, Add, Merge — is the only way to change them.
func (n *Node) Metrics() metric.Vector {
	if n.metrics == nil {
		return metric.Vector{}
	}
	return *n.metrics
}

// Metric returns one of the node's exclusive metric values.
func (n *Node) Metric(m metric.ID) uint64 {
	if n.metrics == nil {
		return 0
	}
	return n.metrics[m]
}

// ID returns the node's interned frame ID (in the default interner).
func (n *Node) ID() FrameID { return n.id }

// Child returns the child with the given frame, creating it if absent.
func (n *Node) Child(f Frame) *Node {
	return n.ChildID(InternFrame(f))
}

// ChildID returns the child with the given interned frame, creating it if
// absent — the allocation-free hot path of InsertPathIDs.
func (n *Node) ChildID(id FrameID) *Node {
	if c := n.child; c != nil && c.id == id {
		return c
	}
	return n.childID(id)
}

// childID is ChildID's out-of-line rest, so a first-child hit inlines.
func (n *Node) childID(id FrameID) *Node {
	if c, ok := n.lookupID(id); ok {
		return c
	}
	c := &Node{parent: n, id: id}
	n.attach(c)
	return c
}

// attach links c — whose id must not already key a child of n — at the
// head of n's child list, indexing the list once it outgrows nodeInline.
func (n *Node) attach(c *Node) {
	c.next, n.child = n.child, c
	if n.children != nil {
		n.children[c.id] = c
	} else if k := n.NumChildren(); k > nodeInline {
		n.children = make(map[FrameID]*Node, k)
		for s := n.child; s != nil; s = s.next {
			n.children[s.id] = s
		}
	}
}

// lookupID returns the child with the given interned frame if it exists.
func (n *Node) lookupID(id FrameID) (*Node, bool) {
	if n.children != nil {
		c, ok := n.children[id]
		return c, ok
	}
	for c := n.child; c != nil; c = c.next {
		if c.id == id {
			return c, true
		}
	}
	return nil, false
}

// Lookup returns the child with the given frame if it exists.
func (n *Node) Lookup(f Frame) (*Node, bool) {
	id, ok := DefaultInterner().LookupID(f)
	if !ok {
		return nil, false // a frame never interned keys no node anywhere
	}
	return n.lookupID(id)
}

// Children returns the node's children sorted deterministically (by kind,
// module, name, file, line).
func (n *Node) Children() []*Node {
	return n.AppendChildren(make([]*Node, 0, n.NumChildren()))
}

// AppendChildren appends the node's children to dst in Children's order
// and returns the extended slice: the sort without the allocation, for a
// caller that linearises a whole tree into scratch it already holds.
func (n *Node) AppendChildren(dst []*Node) []*Node {
	base := len(dst)
	for c := n.child; c != nil; c = c.next {
		dst = append(dst, c)
	}
	slices.SortFunc(dst[base:], func(a, b *Node) int { return CompareFrameIDs(a.id, b.id) })
	return dst
}

// CompareFrames is the deterministic sibling order (by kind, module, name,
// file, line) that Children, Walk and the views present.
func CompareFrames(a, b Frame) int { return compareFrames(&a, &b) }

func compareFrames(a, b *Frame) int {
	switch {
	case a.Kind != b.Kind:
		return cmp.Compare(a.Kind, b.Kind)
	case a.Module != b.Module:
		return cmp.Compare(a.Module, b.Module)
	case a.Name != b.Name:
		return cmp.Compare(a.Name, b.Name)
	case a.File != b.File:
		return cmp.Compare(a.File, b.File)
	default:
		return cmp.Compare(a.Line, b.Line)
	}
}

// CompareWalkOrder orders two nodes of one tree as Walk visits them: an
// ancestor before its descendants, otherwise by the frames of the two
// branches where their root paths diverge.
func CompareWalkOrder(a, b *Node) int {
	da, db := a.depth(), b.depth()
	for d := da; d > db; d-- {
		a = a.parent
	}
	for d := db; d > da; d-- {
		b = b.parent
	}
	if a == b {
		return cmp.Compare(da, db)
	}
	for a.parent != b.parent {
		a, b = a.parent, b.parent
	}
	return CompareFrameIDs(a.id, b.id)
}

func (n *Node) depth() int {
	d := 0
	for ; n.parent != nil; n = n.parent {
		d++
	}
	return d
}

// NumChildren returns the number of children.
func (n *Node) NumChildren() int {
	if n.children != nil {
		return len(n.children)
	}
	k := 0
	for c := n.child; c != nil; c = c.next {
		k++
	}
	return k
}

// eachChild calls fn on every child in list order, without the sort (or
// allocation) Children pays for determinism. It reads a child's sibling
// link before calling fn, so fn may relink the child (Absorb does).
func (n *Node) eachChild(fn func(*Node)) {
	for c, next := n.child, (*Node)(nil); c != nil; c = next {
		next = c.next
		fn(c)
	}
}

// EachChild calls fn on every child in unspecified order — the
// allocation-free traversal for callers that don't need the deterministic
// sort Children pays for.
func (n *Node) EachChild(fn func(*Node)) { n.eachChild(fn) }

// Path returns the frames from the root (exclusive) down to n: it climbs
// to the parentless root, resolving no frame to find where to stop.
func (n *Node) Path() []Frame {
	out := make([]Frame, n.depth())
	for cur, i := n, len(out)-1; i >= 0; cur, i = cur.parent, i-1 {
		out[i] = cur.Frame()
	}
	return out
}

// Tree is one calling context tree.
type Tree struct {
	// Root is the tree root; its frame has KindRoot.
	Root *Node

	// rows is the current chunk of the metric slab, its length the rows
	// handed out. Chunks are never moved or reused, so an adopted subtree
	// (Absorb) keeps its rows, alive while a node points into the chunk.
	rows []metric.Vector
}

// The slab's chunks double from minRows rows (640 B, so a tree that
// records a handful of contexts holds little) up to maxRows (40 KiB),
// where a chunk costs under one allocation per 500 metric-bearing nodes.
const (
	minRows = 8
	maxRows = 512
)

// New creates an empty tree.
func New() *Tree {
	return &Tree{Root: &Node{id: InternFrame(Frame{Kind: KindRoot})}}
}

// row hands out a zeroed metric row from the tree's slab.
func (t *Tree) row() *metric.Vector {
	if len(t.rows) == cap(t.rows) {
		t.rows = make([]metric.Vector, 0, min(max(minRows, 2*cap(t.rows)), maxRows))
	}
	t.rows = t.rows[:len(t.rows)+1]
	return &t.rows[len(t.rows)-1]
}

// Add adds v to node n's exclusive metrics. A node whose metrics were all
// zero gets its row from t's slab here; an all-zero v gives it none.
func (t *Tree) Add(n *Node, v *metric.Vector) {
	if n.metrics == nil {
		if v.IsZero() {
			return
		}
		n.metrics = t.row()
	}
	n.metrics.Add(v)
}

// AddMetric adds x to one of node n's exclusive metrics: Add for a single
// value, as the decoder's metric columns deliver them.
func (t *Tree) AddMetric(n *Node, m metric.ID, x uint64) {
	if x == 0 {
		return
	}
	if n.metrics == nil {
		n.metrics = t.row()
	}
	n.metrics[m] += x
}

// InsertPath walks (creating as needed) the path of frames from the root
// and returns the final node.
func (t *Tree) InsertPath(path []Frame) *Node {
	n := t.Root
	for _, f := range path {
		n = n.Child(f)
	}
	return n
}

// InsertPathIDs is InsertPath over pre-interned frames — the profiler's
// sample path, which converts each live stack frame to its FrameID once
// and reuses the IDs across samples.
func (t *Tree) InsertPathIDs(path []FrameID) *Node {
	n := t.Root
	for _, id := range path {
		n = n.ChildID(id)
	}
	return n
}

// AddSample attributes a metric vector to the node at the given path.
func (t *Tree) AddSample(path []Frame, v *metric.Vector) *Node {
	n := t.InsertPath(path)
	t.Add(n, v)
	return n
}

// AddSampleIDs attributes a metric vector to the node at the given
// pre-interned path.
func (t *Tree) AddSampleIDs(path []FrameID, v *metric.Vector) *Node {
	n := t.InsertPathIDs(path)
	t.Add(n, v)
	return n
}

// Merge adds the other tree's structure and metrics into t. The other tree
// is left untouched.
func (t *Tree) Merge(o *Tree) {
	t.mergeNode(t.Root, o.Root)
}

func (t *Tree) mergeNode(dst, src *Node) {
	if src.metrics != nil {
		t.Add(dst, src.metrics)
	}
	// Integer-keyed descent: both trees share the process-global interner,
	// so a child's FrameID addresses the same frame in either tree.
	for c := src.child; c != nil; c = c.next {
		t.mergeNode(dst.ChildID(c.id), c)
	}
}

// Absorb moves o's structure and metrics into t, consuming o. A root
// subtree whose frame t's root already has merges into it recursively; any
// other is adopted wholesale, re-parented under t's root with no copying
// (its metric rows stay in o's slab chunks, which the adopted nodes keep
// alive). Use Merge when the source must survive.
func (t *Tree) Absorb(o *Tree) {
	if o.Root.metrics != nil {
		t.Add(t.Root, o.Root.metrics)
	}
	o.Root.eachChild(func(c *Node) {
		if dst, ok := t.Root.lookupID(c.id); ok {
			t.mergeNode(dst, c)
			return
		}
		c.parent = t.Root
		t.Root.attach(c)
	})
}

// Clone returns a deep copy of the tree, sharing no node and no metric row
// with it. It is a structural copy — each node's frame ID and metrics
// copied, children linked in list order and indexes sized exactly — not a
// merge into an empty tree, so it looks nothing up.
func (t *Tree) Clone() *Tree {
	c := &Tree{}
	c.Root = c.cloneNode(t.Root, nil)
	return c
}

func (t *Tree) cloneNode(src, parent *Node) *Node {
	n := &Node{parent: parent, id: src.id}
	if src.metrics != nil {
		n.metrics = t.row()
		*n.metrics = *src.metrics
	}
	tail := &n.child
	for c := src.child; c != nil; c = c.next {
		*tail = t.cloneNode(c, n)
		tail = &(*tail).next
	}
	if src.children != nil {
		n.children = make(map[FrameID]*Node, len(src.children))
		for c := n.child; c != nil; c = c.next {
			n.children[c.id] = c
		}
	}
	return n
}

// Walk visits every node in deterministic pre-order. Returning false from
// fn prunes the subtree below that node.
func (t *Tree) Walk(fn func(n *Node, depth int) bool) {
	walk(t.Root, 0, fn)
}

func walk(n *Node, depth int, fn func(*Node, int) bool) {
	if !fn(n, depth) {
		return
	}
	for _, c := range n.Children() {
		walk(c, depth+1, fn)
	}
}

// each visits every node of the tree in unspecified order — what the
// order-insensitive sums below need, without Walk's per-node sort.
func (t *Tree) each(fn func(*Node)) {
	var visit func(*Node)
	visit = func(n *Node) {
		fn(n)
		n.eachChild(visit)
	}
	visit(t.Root)
}

// NumNodes counts the tree's nodes, root included.
func (t *Tree) NumNodes() int {
	count := 0
	t.each(func(*Node) { count++ })
	return count
}

// Total sums metric values over the whole tree (since samples are recorded
// exclusively at their nodes, this is the tree's inclusive total).
func (t *Tree) Total() metric.Vector {
	var v metric.Vector
	t.each(func(n *Node) { m := n.Metrics(); v.Add(&m) })
	return v
}

// Inclusive computes the inclusive metric vector of a node: its own plus
// all descendants'.
func (n *Node) Inclusive() metric.Vector {
	v := n.Metrics()
	n.eachChild(func(c *Node) {
		cv := c.Inclusive()
		v.Add(&cv)
	})
	return v
}

// Class is the storage class that separates per-thread CCTs (§4.1.4): the
// profiler files each sample into the tree matching what its effective
// address resolved to, plus one tree for samples with no memory operand.
type Class uint8

const (
	// ClassStatic holds samples on static variables.
	ClassStatic Class = iota
	// ClassHeap holds samples on tracked heap allocations.
	ClassHeap
	// ClassUnknown holds memory samples on anything else (stack, brk,
	// untracked small allocations).
	ClassUnknown
	// ClassNonMem holds samples whose instruction had no memory operand.
	ClassNonMem
	// NumClasses is the number of storage classes.
	NumClasses = int(ClassNonMem) + 1
)

// String names the class as the views label it.
func (c Class) String() string {
	switch c {
	case ClassStatic:
		return "static data"
	case ClassHeap:
		return "heap data"
	case ClassUnknown:
		return "unknown data"
	case ClassNonMem:
		return "no memory access"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Profile is one thread's measurement output: one CCT per storage class
// plus identification.
type Profile struct {
	// Rank and Thread identify the producing MPI rank and thread.
	Rank, Thread int
	// Event describes the monitored PMU configuration (e.g.
	// "PM_MRK_DATA_FROM_RMEM@1000" or "IBS@4096").
	Event string
	// Trees holds the per-storage-class CCTs.
	Trees [NumClasses]*Tree
	// Temporal, when non-nil, is the time-windowed sidecar: per-node
	// metric deltas bucketed by fixed-width sim-time windows (see
	// timeseries.go). Nil when temporal profiling was off or the sidecar
	// was damaged; everything cumulative works identically either way.
	Temporal *TimeSeries
}

// NewProfile creates an empty profile.
func NewProfile(rank, thread int, event string) *Profile {
	p := &Profile{Rank: rank, Thread: thread, Event: event}
	for i := range p.Trees {
		p.Trees[i] = New()
	}
	return p
}

// Merge folds o's trees into p's (identification fields keep p's values).
func (p *Profile) Merge(o *Profile) {
	for i := range p.Trees {
		p.Trees[i].Merge(o.Trees[i])
	}
}

// Clone returns a deep copy of p's identification and trees. The sidecar
// is not copied: its deltas point at p's nodes, not the copy's.
func (p *Profile) Clone() *Profile {
	c := &Profile{Rank: p.Rank, Thread: p.Thread, Event: p.Event}
	for i, t := range p.Trees {
		c.Trees[i] = t.Clone()
	}
	return c
}

// Total sums metrics across all storage classes.
func (p *Profile) Total() metric.Vector {
	var v metric.Vector
	for _, t := range p.Trees {
		tv := t.Total()
		v.Add(&tv)
	}
	return v
}

// NumNodes counts nodes across all trees.
func (p *Profile) NumNodes() int {
	n := 0
	for _, t := range p.Trees {
		n += t.NumNodes()
	}
	return n
}
