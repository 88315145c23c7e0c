package view

// The reference the snapshot is checked against: the recursive walkers this
// package used before it rendered from a Snapshot, kept verbatim — sorted
// cct.Walk for discovery, Node.Inclusive at every child of every level. They
// share no traversal code with snapshot.go. One deliberate difference: the
// bottom-up sort carries the final (func, allocator) tie-break the
// implementation has now; the old one left rows that tie on value, file and
// line in map-iteration order, which no test can pin.
//
// The JSON views are held to report structs marshalled by encoding/json:
// the shape the writers in json.go once built before encoding, kept here as
// the independent oracle of their bytes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/temporal"
)

// TopDownReport is the JSON form of the top-down contextual view.
type TopDownReport struct {
	Event   string         `json:"event"`
	Metric  string         `json:"metric"`
	Total   uint64         `json:"total"`
	Classes []TopDownClass `json:"classes"`
}

// TopDownClass is one storage class's subtree in the report.
type TopDownClass struct {
	Class    string         `json:"class"`
	Value    uint64         `json:"value"`
	Share    float64        `json:"share"`
	Children []*TopDownNode `json:"children"`
}

// TopDownNode is one CCT node in the report.
type TopDownNode struct {
	Kind     string         `json:"kind"`
	Name     string         `json:"name,omitempty"`
	Module   string         `json:"module,omitempty"`
	File     string         `json:"file,omitempty"`
	Line     int            `json:"line,omitempty"`
	Value    uint64         `json:"value"`
	Share    float64        `json:"share"`
	Children []*TopDownNode `json:"children,omitempty"`
}

// BottomUpReport is the JSON form of the bottom-up (allocation-site) view.
type BottomUpReport struct {
	Event  string         `json:"event"`
	Metric string         `json:"metric"`
	Total  uint64         `json:"total"`
	Sites  []BottomUpSite `json:"sites"`
}

// BottomUpSite is one allocation call site in the report.
type BottomUpSite struct {
	Func      string  `json:"func,omitempty"`
	File      string  `json:"file,omitempty"`
	Line      int     `json:"line,omitempty"`
	Allocator string  `json:"allocator"`
	Variables int     `json:"variables"`
	Value     uint64  `json:"value"`
	Share     float64 `json:"share"`
}

// DiffReport is the JSON form of the per-variable profile comparison.
type DiffReport struct {
	Metric      string    `json:"metric"`
	BeforeTotal uint64    `json:"before_total"`
	AfterTotal  uint64    `json:"after_total"`
	Rows        []DiffRow `json:"rows"`
}

// DiffRow is one variable's movement between the two profiles.
type DiffRow struct {
	Variable    string  `json:"variable"`
	Class       string  `json:"class"`
	BeforeValue uint64  `json:"before_value"`
	AfterValue  uint64  `json:"after_value"`
	BeforeShare float64 `json:"before_share"`
	AfterShare  float64 `json:"after_share"`
	DeltaShare  float64 `json:"delta_share"`
}

// PhasesReport is the JSON form of the detected-phase view.
type PhasesReport struct {
	Event  string           `json:"event"`
	Width  uint64           `json:"window_width"`
	Phases []temporal.Phase `json:"phases"`
}

// jsonBytes is v as the writers must render it: encoding/json's Encoder
// with a two-space indent.
func jsonBytes(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// decode parses a written body into a report struct.
func decode[T any](t testing.TB, body []byte) *T {
	t.Helper()
	var v T
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	return &v
}

func refMetricTotal(p *cct.Profile, m metric.ID) uint64 {
	var grand uint64
	for _, t := range p.Trees {
		t.Walk(func(n *cct.Node, _ int) bool { grand += n.Metric(m); return true })
	}
	return grand
}

func refClassTotal(t *cct.Tree, m metric.ID) uint64 { return t.Root.Inclusive()[m] }

func refRankVariables(p *cct.Profile, m metric.ID) []VarStat {
	grand := refMetricTotal(p, m)
	var out []VarStat
	p.Trees[cct.ClassHeap].Walk(func(n *cct.Node, _ int) bool {
		if n.Frame().Kind != cct.KindHeapData {
			return true
		}
		inc := n.Inclusive()
		st := VarStat{
			Name:      n.Frame().Name,
			Class:     cct.ClassHeap,
			AllocSite: allocSiteOf(n),
			Value:     inc[m],
			Node:      n,
		}
		if st.Name == "" {
			st.Name = st.AllocSite
		}
		out = append(out, st)
		return false // don't descend into access paths
	})
	p.Trees[cct.ClassStatic].Walk(func(n *cct.Node, _ int) bool {
		if n.Frame().Kind != cct.KindStaticVar {
			return true
		}
		inc := n.Inclusive()
		out = append(out, VarStat{Name: n.Frame().Name, Class: cct.ClassStatic, Value: inc[m], Node: n})
		return false
	})
	p.Trees[cct.ClassUnknown].Walk(func(n *cct.Node, _ int) bool {
		if n.Frame().Kind != cct.KindStackVar {
			return true
		}
		inc := n.Inclusive()
		out = append(out, VarStat{Name: n.Frame().Name, Class: cct.ClassUnknown, Value: inc[m], Node: n})
		return false
	})
	if grand > 0 {
		for i := range out {
			out[i].Share = float64(out[i].Value) / float64(grand)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func refTopAccesses(anchor *cct.Node, m metric.ID, grand uint64) []AccessStat {
	agg := map[cct.FrameID]uint64{}
	var walk func(n *cct.Node)
	walk = func(n *cct.Node) {
		if n.Frame().Kind == cct.KindStmt && n.Metric(m) > 0 {
			agg[n.ID()] += n.Metric(m)
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	for _, c := range anchor.Children() {
		walk(c)
	}
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

func refBottomUp(p *cct.Profile, m metric.ID) []AllocSiteStat {
	grand := refMetricTotal(p, m)
	type key struct {
		fn, file  string
		line      int
		allocator string
	}
	agg := map[key]*AllocSiteStat{}
	p.Trees[cct.ClassHeap].Walk(func(n *cct.Node, _ int) bool {
		if n.Frame().Kind != cct.KindHeapData {
			return true
		}
		alloc := n.Parent()
		stmt := alloc.Parent()
		k := key{allocator: alloc.Frame().Name}
		if stmt != nil && stmt.Frame().Kind == cct.KindStmt {
			k.fn, k.file, k.line = stmt.Frame().Name, stmt.Frame().File, stmt.Frame().Line
		}
		st := agg[k]
		if st == nil {
			st = &AllocSiteStat{Func: k.fn, File: k.file, Line: k.line, Allocator: k.allocator}
			agg[k] = st
		}
		st.Variables++
		st.Value += n.Inclusive()[m]
		return false
	})
	out := make([]AllocSiteStat, 0, len(agg))
	for _, st := range agg {
		if grand > 0 {
			st.Share = float64(st.Value) / float64(grand)
		}
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Allocator < out[j].Allocator
	})
	return out
}

func refDiffVariables(before, after *cct.Profile, m metric.ID) []VarDelta {
	type side struct {
		share float64
		value uint64
		class cct.Class
	}
	collect := func(p *cct.Profile) map[string]side {
		out := map[string]side{}
		for _, v := range refRankVariables(p, m) {
			out[v.Name] = side{share: v.Share, value: v.Value, class: v.Class}
		}
		return out
	}
	b, a := collect(before), collect(after)
	names := map[string]bool{}
	for n := range b {
		names[n] = true
	}
	for n := range a {
		names[n] = true
	}
	var out []VarDelta
	for n := range names {
		d := VarDelta{Variable: n}
		if s, ok := b[n]; ok {
			d.BeforeShare, d.BeforeValue, d.Class = s.share, s.value, s.class
		}
		if s, ok := a[n]; ok {
			d.AfterShare, d.AfterValue, d.Class = s.share, s.value, s.class
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := out[i].DeltaShare(), out[j].DeltaShare()
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return out[i].Variable < out[j].Variable
	})
	return out
}

func refTopDownJSON(p *cct.Profile, o Options) *TopDownReport {
	grand := refMetricTotal(p, o.Metric)
	rep := &TopDownReport{Event: p.Event, Metric: o.Metric.Name(), Total: grand, Classes: []TopDownClass{}}
	if grand == 0 {
		return rep
	}
	for c, tree := range p.Trees {
		classTotal := refClassTotal(tree, o.Metric)
		if classTotal == 0 {
			continue
		}
		rep.Classes = append(rep.Classes, TopDownClass{
			Class:    cct.Class(c).String(),
			Value:    classTotal,
			Share:    float64(classTotal) / float64(grand),
			Children: refTopDownChildren(tree.Root, 1, grand, o),
		})
	}
	return rep
}

func refTopDownChildren(n *cct.Node, depth int, grand uint64, o Options) []*TopDownNode {
	out := []*TopDownNode{}
	if o.MaxDepth > 0 && depth > o.MaxDepth {
		return out
	}
	for _, c := range n.Children() {
		inc := c.Inclusive()[o.Metric]
		if inc == 0 {
			continue
		}
		share := float64(inc) / float64(grand)
		if share < o.MinShare {
			continue
		}
		out = append(out, &TopDownNode{
			Kind:     c.Frame().Kind.String(),
			Name:     c.Frame().Name,
			Module:   c.Frame().Module,
			File:     c.Frame().File,
			Line:     c.Frame().Line,
			Value:    inc,
			Share:    share,
			Children: refTopDownChildren(c, depth+1, grand, o),
		})
	}
	return out
}

func refBottomUpJSON(p *cct.Profile, o Options) *BottomUpReport {
	rep := &BottomUpReport{Event: p.Event, Metric: o.Metric.Name(), Total: refMetricTotal(p, o.Metric), Sites: []BottomUpSite{}}
	for _, s := range refBottomUp(p, o.Metric) {
		if s.Value == 0 {
			continue
		}
		if o.MaxRows > 0 && len(rep.Sites) >= o.MaxRows {
			break
		}
		rep.Sites = append(rep.Sites, BottomUpSite{
			Func: s.Func, File: s.File, Line: s.Line, Allocator: s.Allocator,
			Variables: s.Variables, Value: s.Value, Share: s.Share,
		})
	}
	return rep
}

func refDiffJSON(before, after *cct.Profile, m metric.ID, maxRows int) *DiffReport {
	rep := &DiffReport{
		Metric:      m.Name(),
		BeforeTotal: refMetricTotal(before, m),
		AfterTotal:  refMetricTotal(after, m),
		Rows:        []DiffRow{},
	}
	for _, d := range refDiffVariables(before, after, m) {
		if maxRows > 0 && len(rep.Rows) >= maxRows {
			break
		}
		rep.Rows = append(rep.Rows, DiffRow{
			Variable:    d.Variable,
			Class:       d.Class.String(),
			BeforeValue: d.BeforeValue,
			AfterValue:  d.AfterValue,
			BeforeShare: d.BeforeShare,
			AfterShare:  d.AfterShare,
			DeltaShare:  d.DeltaShare(),
		})
	}
	return rep
}

func refRenderTopDown(p *cct.Profile, o Options) string {
	grand := refMetricTotal(p, o.Metric)
	var b strings.Builder
	fmt.Fprintf(&b, "top-down view — metric %s, total %d, event %s\n", o.Metric.Name(), grand, p.Event)
	if grand == 0 {
		b.WriteString("  (no samples)\n")
		return b.String()
	}
	for c, tree := range p.Trees {
		classTotal := refClassTotal(tree, o.Metric)
		if classTotal == 0 {
			continue
		}
		fmt.Fprintf(&b, "%6.1f%%  [%s]\n", pct(classTotal, grand), cct.Class(c))
		refRenderNode(&b, tree.Root, 1, grand, o)
	}
	return b.String()
}

func refRenderNode(b *strings.Builder, n *cct.Node, depth int, grand uint64, o Options) {
	if o.MaxDepth > 0 && depth > o.MaxDepth {
		return
	}
	for _, c := range n.Children() {
		inc := c.Inclusive()[o.Metric]
		if inc == 0 {
			continue
		}
		share := float64(inc) / float64(grand)
		if share < o.MinShare {
			continue
		}
		fmt.Fprintf(b, "%6.1f%%  %s%s\n", 100*share, strings.Repeat("  ", depth), c.Frame())
		refRenderNode(b, c, depth+1, grand, o)
	}
}

func refRenderVariables(p *cct.Profile, o Options) string {
	vars := refRankVariables(p, o.Metric)
	var b strings.Builder
	fmt.Fprintf(&b, "variables by %s (total %d)\n", o.Metric.Name(), refMetricTotal(p, o.Metric))
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

func refRenderBottomUp(p *cct.Profile, o Options) string {
	sites := refBottomUp(p, o.Metric)
	var b strings.Builder
	fmt.Fprintf(&b, "bottom-up view — allocation sites by %s\n", o.Metric.Name())
	rows := 0
	for _, s := range sites {
		if s.Value == 0 {
			continue
		}
		if o.MaxRows > 0 && rows >= o.MaxRows {
			break
		}
		fmt.Fprintf(&b, "%6.1f%%  %s@%s:%d (%s, %d variable(s))\n",
			100*s.Share, s.Func, s.File, s.Line, s.Allocator, s.Variables)
		rows++
	}
	return b.String()
}
