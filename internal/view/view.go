// Package view is the presentation layer — the text analogue of
// HPCToolkit's GUI panes. It computes the same aggregations the paper's
// figures show:
//
//   - storage-class shares (e.g. "94.9% of remote accesses are in heap
//     data"),
//   - ranked variables, each a static symbol or a heap allocation path,
//     with its share of a chosen metric,
//   - per-variable top access statements ("one access accounts for 19.3%"),
//   - the top-down contextual tree, and
//   - the bottom-up aggregation by allocation call site (Figure 5).
package view

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// ClassShares returns each storage class's share of the metric's total
// across all classes.
func ClassShares(p *cct.Profile, m metric.ID) [cct.NumClasses]float64 {
	return Freeze(p).ClassShares(m)
}

// ClassShares is ClassShares of the frozen profile.
func (s *Snapshot) ClassShares(m metric.ID) [cct.NumClasses]float64 {
	var shares [cct.NumClasses]float64
	col := s.column(m)
	if col.total() > 0 {
		for c, root := range s.root {
			shares[c] = col.share(root)
		}
	}
	return shares
}

// VarStat describes one variable's aggregate cost.
type VarStat struct {
	// Name is the display name: the allocation label, the static symbol, or
	// a synthesized "site" name.
	Name string
	// Class is ClassHeap or ClassStatic.
	Class cct.Class
	// AllocSite locates the allocation statement ("func@file:line") for
	// heap variables; empty for statics.
	AllocSite string
	// Value is the variable's inclusive metric value.
	Value uint64
	// Share is Value over the metric total across all storage classes.
	Share float64
	// Node is the variable's anchor node (the heap-data mark or the static
	// dummy node).
	Node *cct.Node
}

// RankVariables lists every variable (heap and static) sorted by descending
// metric value. Shares are fractions of the profile-wide metric total.
func RankVariables(p *cct.Profile, m metric.ID) []VarStat { return Freeze(p).RankVariables(m) }

// RankVariables is RankVariables of the frozen profile.
func (s *Snapshot) RankVariables(m metric.ID) []VarStat {
	col := s.column(m)
	grand := col.total()
	// Heap, static, then stack variables, each in Walk order: a position in
	// this order breaks ties between equal (value, name) pairs, which makes
	// the sort of positions below as stable as one of the rows. Sorting
	// 4-byte positions, not 80-byte rows, keeps its swaps cheap.
	heap, static := len(s.vars[cct.ClassHeap]), len(s.vars[cct.ClassStatic])
	anchors := slices.Concat(s.vars[cct.ClassHeap], s.vars[cct.ClassStatic], s.vars[cct.ClassUnknown])
	values := make([]uint64, len(anchors))
	names := make([]string, len(anchors))
	sites := make([]string, heap)
	pos := make([]int32, len(anchors))
	for p, i := range anchors {
		values[p], names[p], pos[p] = col.inc(i), s.nodes[i].Frame().Name, int32(p)
		if p < heap {
			sites[p] = allocSiteOf(s.nodes[i])
			if names[p] == "" {
				names[p] = sites[p]
			}
		}
	}
	slices.SortFunc(pos, func(a, b int32) int {
		return cmp.Or(cmp.Compare(values[b], values[a]), strings.Compare(names[a], names[b]), cmp.Compare(a, b))
	})
	out := make([]VarStat, len(pos))
	for k, p := range pos {
		st := &out[k]
		st.Name, st.Value, st.Node = names[p], values[p], s.nodes[anchors[p]]
		switch {
		case int(p) < heap:
			st.Class, st.AllocSite = cct.ClassHeap, sites[p]
		case int(p) < heap+static:
			st.Class = cct.ClassStatic
		default:
			st.Class = cct.ClassUnknown
		}
		if grand > 0 {
			st.Share = float64(st.Value) / float64(grand)
		}
	}
	return out
}

// allocSiteOf walks up from a heap-data mark to its allocation statement:
// mark -> allocator call (calloc/malloc) -> allocation statement.
func allocSiteOf(mark *cct.Node) string {
	alloc := mark.Parent() // the calloc/malloc frame
	if alloc == nil {
		return "?"
	}
	stmt := alloc.Parent()
	if stmt == nil || stmt.Frame().Kind != cct.KindStmt {
		return alloc.Frame().Name
	}
	sf := stmt.Frame()
	return sf.Name + "@" + sf.File + ":" + strconv.Itoa(sf.Line) + " (" + alloc.Frame().Name + ")"
}

// AccessStat is one statement accessing a variable.
type AccessStat struct {
	// Func, File, Line locate the access.
	Func, File string
	Line       int
	// Value is the statement's metric value for this variable.
	Value uint64
	// Share is Value over the profile-wide metric total (as the paper
	// reports: "this access accounts for 19.3% of total remote accesses").
	Share float64
}

// TopAccesses ranks the statements below a variable's anchor node. The
// grand total used for shares is passed in (profile-wide metric total).
// Aggregation keys on interned FrameIDs (a FrameID and its Frame are in
// bijection), so grouping hashes integers instead of string tuples.
func TopAccesses(anchor *cct.Node, m metric.ID, grand uint64) []AccessStat {
	agg := map[cct.FrameID]uint64{}
	var walk func(n *cct.Node)
	walk = func(n *cct.Node) {
		if v := n.Metric(m); v > 0 && n.Frame().Kind == cct.KindStmt {
			agg[n.ID()] += v
		}
		n.EachChild(walk)
	}
	anchor.EachChild(walk)
	out := make([]AccessStat, 0, len(agg))
	for id, v := range agg {
		f := cct.FrameByID(id)
		s := AccessStat{Func: f.Name, File: f.File, Line: f.Line, Value: v}
		if grand > 0 {
			s.Share = float64(v) / float64(grand)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// MetricTotal returns the metric's total across all storage classes.
func MetricTotal(p *cct.Profile, m metric.ID) uint64 { return Freeze(p).MetricTotal(m) }

// MetricTotal is MetricTotal of the frozen profile.
func (s *Snapshot) MetricTotal(m metric.ID) uint64 { return s.column(m).total() }

// AllocSiteStat is the bottom-up view's unit: one allocation call site with
// every cost of every variable allocated there, across all calling contexts
// that reach it.
type AllocSiteStat struct {
	// Func, File, Line locate the allocation statement.
	Func, File string
	Line       int
	// Allocator is the entry point used (malloc/calloc/realloc).
	Allocator string
	// Variables counts distinct variables (allocation paths) through this
	// site.
	Variables int
	// Value and Share aggregate the metric over those variables.
	Value uint64
	Share float64
}

// BottomUp aggregates heap variables by their allocation statement,
// regardless of the calling context above it — the paper's bottom-up view,
// which exposes "the same malloc called from different contexts" as one row.
func BottomUp(p *cct.Profile, m metric.ID) []AllocSiteStat { return Freeze(p).BottomUp(m) }

// BottomUp is BottomUp of the frozen profile.
func (s *Snapshot) BottomUp(m metric.ID) []AllocSiteStat {
	col := s.column(m)
	grand := col.total()
	type key struct {
		fn, file  string
		line      int
		allocator string
	}
	agg := map[key]*AllocSiteStat{}
	for _, i := range s.vars[cct.ClassHeap] {
		alloc := s.nodes[i].Parent()
		stmt := alloc.Parent()
		k := key{allocator: alloc.Frame().Name}
		if stmt != nil && stmt.Frame().Kind == cct.KindStmt {
			sf := stmt.Frame()
			k.fn, k.file, k.line = sf.Name, sf.File, sf.Line
		}
		st := agg[k]
		if st == nil {
			st = &AllocSiteStat{Func: k.fn, File: k.file, Line: k.line, Allocator: k.allocator}
			agg[k] = st
		}
		st.Variables++
		st.Value += col.inc(i)
	}
	out := make([]AllocSiteStat, 0, len(agg))
	for _, st := range agg {
		if grand > 0 {
			st.Share = float64(st.Value) / float64(grand)
		}
		out = append(out, *st)
	}
	// The key's four fields all take part, so rows that tie on value do not
	// come out in map order.
	slices.SortFunc(out, func(a, b AllocSiteStat) int {
		return cmp.Or(cmp.Compare(b.Value, a.Value), cmp.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line),
			cmp.Compare(a.Func, b.Func), cmp.Compare(a.Allocator, b.Allocator))
	})
	return out
}

// CallerSiteStat is one row of the caller-level bottom-up view: a call site
// that invokes an allocating wrapper (e.g. every `hypre_CAlloc(...)` call in
// AMG2006), aggregated over all variables allocated through it.
type CallerSiteStat struct {
	// Caller is the function containing the call; Line is the call line.
	Caller, File string
	Line         int
	// Wrapper is the allocating function that was called (e.g. hypre_CAlloc).
	Wrapper string
	// Variables counts distinct variables allocated through this site.
	Variables int
	// Value and Share aggregate the metric.
	Value uint64
	Share float64
	// Names lists the labels of the variables (when labelled).
	Names []string
}

// BottomUpCallers aggregates heap variables one level higher than BottomUp:
// by the call site that invoked the allocating wrapper function — the
// paper's Figure 5, where each row is a distinct `hypre_CAlloc` invocation.
func BottomUpCallers(p *cct.Profile, m metric.ID) []CallerSiteStat {
	s := Freeze(p)
	col := s.column(m)
	grand := col.total()
	type key struct {
		caller, file string
		line         int
		wrapper      string
	}
	agg := map[key]*CallerSiteStat{}
	for _, i := range s.vars[cct.ClassHeap] {
		n := s.nodes[i]
		alloc := n.Parent() // malloc/calloc frame
		stmt := alloc.Parent()
		var k key
		if stmt != nil && stmt.Frame().Kind == cct.KindStmt {
			k.wrapper = stmt.Frame().Name
			if wrapCall := stmt.Parent(); wrapCall != nil && wrapCall.Frame().Kind == cct.KindCall {
				k.line = wrapCall.Frame().Line
				if callerFrame := wrapCall.Parent(); callerFrame != nil && callerFrame.Frame().Kind == cct.KindCall {
					k.caller = callerFrame.Frame().Name
					k.file = callerFrame.Frame().File
				}
			}
		} else {
			k.wrapper = alloc.Frame().Name
		}
		st := agg[k]
		if st == nil {
			st = &CallerSiteStat{Caller: k.caller, File: k.file, Line: k.line, Wrapper: k.wrapper}
			agg[k] = st
		}
		st.Variables++
		st.Value += col.inc(i)
		if name := n.Frame().Name; name != "" {
			st.Names = append(st.Names, name)
		}
	}
	out := make([]CallerSiteStat, 0, len(agg))
	for _, st := range agg {
		if grand > 0 {
			st.Share = float64(st.Value) / float64(grand)
		}
		sort.Strings(st.Names)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		if out[i].Caller != out[j].Caller {
			return out[i].Caller < out[j].Caller
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// Options controls text rendering.
type Options struct {
	// Metric selects the ranking metric.
	Metric metric.ID
	// MaxDepth prunes the top-down tree (0 = unlimited).
	MaxDepth int
	// MinShare hides nodes below this fraction of the total (e.g. 0.01).
	MinShare float64
	// MaxRows limits table-style sections (0 = unlimited).
	MaxRows int
}

// RenderTopDown renders the classic top-down pane: storage-class roots with
// their trees beneath, annotated with inclusive shares of Options.Metric.
func RenderTopDown(p *cct.Profile, o Options) string { return Freeze(p).RenderTopDown(o) }

// RenderTopDown is RenderTopDown of the frozen profile.
func (s *Snapshot) RenderTopDown(o Options) string {
	t := topDown{column: s.column(o.Metric), o: o}
	grand := t.total()
	var b strings.Builder
	fmt.Fprintf(&b, "top-down view — metric %s, total %d, event %s\n", o.Metric.Name(), grand, s.event)
	if grand == 0 {
		b.WriteString("  (no samples)\n")
		return b.String()
	}
	for c, root := range s.root {
		classTotal := t.inc(root)
		if classTotal == 0 {
			continue
		}
		fmt.Fprintf(&b, "%6.1f%%  [%s]\n", pct(classTotal, grand), cct.Class(c))
		t.render(&b, root, 1)
	}
	return b.String()
}

func (t *topDown) render(b *strings.Builder, i int32, depth int) {
	run := t.push(i, depth)
	for _, j := range run {
		fmt.Fprintf(b, "%6.1f%%  %s%s\n", 100*t.share(j), strings.Repeat("  ", depth), t.nodes[j].Frame())
		t.render(b, j, depth+1)
	}
	t.pop(run)
}

// RenderVariables renders the ranked-variable table.
func RenderVariables(p *cct.Profile, o Options) string { return Freeze(p).RenderVariables(o) }

// RenderVariables is RenderVariables of the frozen profile.
func (s *Snapshot) RenderVariables(o Options) string {
	vars := s.RankVariables(o.Metric)
	var b strings.Builder
	fmt.Fprintf(&b, "variables by %s (total %d)\n", o.Metric.Name(), s.MetricTotal(o.Metric))
	rows := 0
	for _, v := range vars {
		if v.Value == 0 {
			continue
		}
		if o.MaxRows > 0 && rows >= o.MaxRows {
			break
		}
		loc := v.AllocSite
		if v.Class == cct.ClassStatic {
			loc = "static [" + v.Node.Frame().Module + "]"
		}
		fmt.Fprintf(&b, "%6.1f%%  %-24s %s\n", 100*v.Share, v.Name, loc)
		rows++
	}
	return b.String()
}

// RenderBottomUp renders the allocation-call-site table.
func RenderBottomUp(p *cct.Profile, o Options) string { return Freeze(p).RenderBottomUp(o) }

// RenderBottomUp is RenderBottomUp of the frozen profile.
func (s *Snapshot) RenderBottomUp(o Options) string {
	sites := s.BottomUp(o.Metric)
	var b strings.Builder
	fmt.Fprintf(&b, "bottom-up view — allocation sites by %s\n", o.Metric.Name())
	rows := 0
	for _, site := range sites {
		if site.Value == 0 {
			continue
		}
		if o.MaxRows > 0 && rows >= o.MaxRows {
			break
		}
		fmt.Fprintf(&b, "%6.1f%%  %s@%s:%d (%s, %d variable(s))\n",
			100*site.Share, site.Func, site.File, site.Line, site.Allocator, site.Variables)
		rows++
	}
	return b.String()
}

func pct(v, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(v) / float64(total)
}
