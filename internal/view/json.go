package view

// Machine-readable report forms of the data-centric views. These are the
// single JSON serialization for each view: `dcview -json -view topdown`
// and the profiling service's GET /collections/{name}/topdown both render
// through WriteTopDownJSON (likewise bottomup and diff), so the offline
// and served surfaces are byte-identical by construction and cannot
// drift. Field names are stable snake_case; values that are durations or
// counts stay integers so consumers never parse formatted strings.

import (
	"encoding/json"
	"io"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// Default rendering bounds, shared by the dcview flag defaults and the
// serving layer's query-parameter defaults so the two surfaces agree when
// the caller does not say otherwise.
const (
	DefaultMaxRows  = 20
	DefaultMaxDepth = 12
	DefaultMinShare = 0.005
)

// TopDownReport is the JSON form of the top-down contextual view.
type TopDownReport struct {
	Event  string `json:"event"`
	Metric string `json:"metric"`
	// Total is the metric's profile-wide total across all storage classes.
	Total uint64 `json:"total"`
	// Classes lists each storage class with a non-zero total, in class
	// order, with its pruned context tree beneath.
	Classes []TopDownClass `json:"classes"`
}

// TopDownClass is one storage class's subtree in the report.
type TopDownClass struct {
	Class string  `json:"class"`
	Value uint64  `json:"value"`
	Share float64 `json:"share"`
	// Children is the pruned context tree under the class root; always an
	// array (possibly empty), never null.
	Children []*TopDownNode `json:"children"`
}

// TopDownNode is one CCT node in the report.
type TopDownNode struct {
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Module string `json:"module,omitempty"`
	File   string `json:"file,omitempty"`
	Line   int    `json:"line,omitempty"`
	// Value is the node's inclusive metric value; Share is Value over the
	// profile-wide total.
	Value    uint64         `json:"value"`
	Share    float64        `json:"share"`
	Children []*TopDownNode `json:"children,omitempty"`
}

// TopDownJSON builds the top-down report, pruned by the same MaxDepth and
// MinShare rules RenderTopDown applies. Node order is the deterministic
// frame order of cct.Children, so two merges of the same inputs — in any
// arrival order — serialize identically.
func TopDownJSON(p *cct.Profile, o Options) *TopDownReport { return Freeze(p).TopDownJSON(o) }

// TopDownJSON is TopDownJSON of the frozen profile.
func (s *Snapshot) TopDownJSON(o Options) *TopDownReport {
	t := topDown{column: s.column(o.Metric), o: o}
	grand := t.total()
	rep := &TopDownReport{
		Event:   s.event,
		Metric:  o.Metric.Name(),
		Total:   grand,
		Classes: []TopDownClass{},
	}
	if grand == 0 {
		return rep
	}
	for c, root := range s.root {
		classTotal := t.inc(root)
		if classTotal == 0 {
			continue
		}
		rep.Classes = append(rep.Classes, TopDownClass{
			Class:    cct.Class(c).String(),
			Value:    classTotal,
			Share:    t.share(root),
			Children: t.children(root, 1),
		})
	}
	return rep
}

func (t *topDown) children(i int32, depth int) []*TopDownNode {
	run := t.push(i, depth)
	out := make([]*TopDownNode, 0, len(run))
	for _, j := range run {
		f := t.nodes[j].Frame()
		out = append(out, &TopDownNode{
			Kind:     f.Kind.String(),
			Name:     f.Name,
			Module:   f.Module,
			File:     f.File,
			Line:     f.Line,
			Value:    t.inc(j),
			Share:    t.share(j),
			Children: t.children(j, depth+1),
		})
	}
	t.pop(run)
	return out
}

// BottomUpReport is the JSON form of the bottom-up (allocation-site) view.
type BottomUpReport struct {
	Event  string `json:"event"`
	Metric string `json:"metric"`
	Total  uint64 `json:"total"`
	// Sites lists allocation call sites by descending value, bounded by
	// Options.MaxRows; always an array, never null.
	Sites []BottomUpSite `json:"sites"`
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

// BottomUpJSON builds the bottom-up report over the same aggregation
// BottomUp computes, bounded by Options.MaxRows (0 = unlimited) and
// skipping zero-valued sites like the text renderer does.
func BottomUpJSON(p *cct.Profile, o Options) *BottomUpReport { return Freeze(p).BottomUpJSON(o) }

// BottomUpJSON is BottomUpJSON of the frozen profile.
func (s *Snapshot) BottomUpJSON(o Options) *BottomUpReport {
	rep := &BottomUpReport{
		Event:  s.event,
		Metric: o.Metric.Name(),
		Total:  s.MetricTotal(o.Metric),
		Sites:  []BottomUpSite{},
	}
	for _, site := range s.BottomUp(o.Metric) {
		if site.Value == 0 {
			continue
		}
		if o.MaxRows > 0 && len(rep.Sites) >= o.MaxRows {
			break
		}
		rep.Sites = append(rep.Sites, BottomUpSite{
			Func: site.Func, File: site.File, Line: site.Line, Allocator: site.Allocator,
			Variables: site.Variables, Value: site.Value, Share: site.Share,
		})
	}
	return rep
}

// DiffReport is the JSON form of the per-variable profile comparison.
type DiffReport struct {
	Metric      string `json:"metric"`
	BeforeTotal uint64 `json:"before_total"`
	AfterTotal  uint64 `json:"after_total"`
	// Rows is sorted by |share change| descending, bounded by MaxRows;
	// always an array, never null.
	Rows []DiffRow `json:"rows"`
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

// DiffJSON builds the diff report (before -> after), bounded by maxRows
// (0 = unlimited).
func DiffJSON(before, after *cct.Profile, m metric.ID, maxRows int) *DiffReport {
	return Freeze(before).DiffJSON(Freeze(after), m, maxRows)
}

// DiffJSON is DiffJSON of the frozen profile (before) and after.
func (s *Snapshot) DiffJSON(after *Snapshot, m metric.ID, maxRows int) *DiffReport {
	rep := &DiffReport{
		Metric:      m.Name(),
		BeforeTotal: s.MetricTotal(m),
		AfterTotal:  after.MetricTotal(m),
		Rows:        []DiffRow{},
	}
	for _, d := range s.DiffVariables(after, m) {
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

// WriteTopDownJSON writes the top-down report as indented JSON.
func WriteTopDownJSON(w io.Writer, p *cct.Profile, o Options) error {
	return Freeze(p).WriteTopDownJSON(w, o)
}

// WriteTopDownJSON is WriteTopDownJSON of the frozen profile.
func (s *Snapshot) WriteTopDownJSON(w io.Writer, o Options) error {
	return writeJSON(w, s.TopDownJSON(o))
}

// WriteBottomUpJSON writes the bottom-up report as indented JSON.
func WriteBottomUpJSON(w io.Writer, p *cct.Profile, o Options) error {
	return Freeze(p).WriteBottomUpJSON(w, o)
}

// WriteBottomUpJSON is WriteBottomUpJSON of the frozen profile.
func (s *Snapshot) WriteBottomUpJSON(w io.Writer, o Options) error {
	return writeJSON(w, s.BottomUpJSON(o))
}

// WriteDiffJSON writes the diff report as indented JSON.
func WriteDiffJSON(w io.Writer, before, after *cct.Profile, m metric.ID, maxRows int) error {
	return Freeze(before).WriteDiffJSON(w, Freeze(after), m, maxRows)
}

// WriteDiffJSON is WriteDiffJSON of the frozen profile (before) and after.
func (s *Snapshot) WriteDiffJSON(w io.Writer, after *Snapshot, m metric.ID, maxRows int) error {
	return writeJSON(w, s.DiffJSON(after, m, maxRows))
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
