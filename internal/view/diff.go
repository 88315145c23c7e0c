package view

// Profile diffing: the workflow of the paper's case studies is
// measure → optimize → measure again; the diff view shows, per variable,
// how a metric moved between the two runs, normalizing by sample totals so
// runs of different lengths compare sensibly.

import (
	"fmt"
	"sort"
	"strings"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// VarDelta is one variable's change between two profiles.
type VarDelta struct {
	// Variable names the data (label, symbol, or allocation site).
	Variable string
	// Class is the variable's storage class.
	Class cct.Class
	// BeforeShare and AfterShare are the variable's share of the metric's
	// profile-wide total in each run.
	BeforeShare, AfterShare float64
	// BeforeValue and AfterValue are the raw metric values.
	BeforeValue, AfterValue uint64
}

// DeltaShare returns the share change (negative = improved placement /
// fewer events on this variable).
func (d VarDelta) DeltaShare() float64 { return d.AfterShare - d.BeforeShare }

// DiffVariables compares two merged profiles on a metric, returning one
// row per variable present in either, sorted by |share change| descending.
func DiffVariables(before, after *cct.Profile, m metric.ID) []VarDelta {
	return Freeze(before).DiffVariables(Freeze(after), m)
}

// DiffVariables is DiffVariables of the frozen profile (before) and after.
func (s *Snapshot) DiffVariables(after *Snapshot, m metric.ID) []VarDelta {
	type side struct {
		share float64
		value uint64
		class cct.Class
	}
	collect := func(snap *Snapshot) map[string]side {
		out := map[string]side{}
		for _, v := range snap.RankVariables(m) {
			out[v.Name] = side{share: v.Share, value: v.Value, class: v.Class}
		}
		return out
	}
	b, a := collect(s), collect(after)
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

// RenderDiff formats the per-variable comparison.
func RenderDiff(before, after *cct.Profile, m metric.ID, maxRows int) string {
	sb, sa := Freeze(before), Freeze(after)
	var b strings.Builder
	fmt.Fprintf(&b, "profile diff — metric %s (before: %d total, after: %d total)\n",
		m.Name(), sb.MetricTotal(m), sa.MetricTotal(m))
	rows := 0
	for _, d := range sb.DiffVariables(sa, m) {
		if maxRows > 0 && rows >= maxRows {
			break
		}
		arrow := "="
		switch {
		case d.DeltaShare() < -0.005:
			arrow = "improved"
		case d.DeltaShare() > 0.005:
			arrow = "worsened"
		}
		fmt.Fprintf(&b, "%6.1f%% -> %5.1f%%  %-24s %s\n",
			100*d.BeforeShare, 100*d.AfterShare, d.Variable, arrow)
		rows++
	}
	return b.String()
}
