package view

// Profile diffing: the workflow of the paper's case studies is
// measure → optimize → measure again; the diff view shows, per variable,
// how a metric moved between the two runs, normalizing by sample totals so
// runs of different lengths compare sensibly.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
// Variables are matched by name: both rankings are put in name order and
// joined. A name a ranking holds more than once takes that ranking's last
// entry in rank order.
func (s *Snapshot) DiffVariables(after *Snapshot, m metric.ID) []VarDelta {
	b, a := byName(s.RankVariables(m)), byName(after.RankVariables(m))
	out := make([]VarDelta, 0, max(len(b.idx), len(a.idx)))
	for len(b.idx) > 0 || len(a.idx) > 0 {
		name := ""
		if len(a.idx) == 0 || len(b.idx) > 0 && b.head().Name < a.head().Name {
			name = b.head().Name
		} else {
			name = a.head().Name
		}
		d := VarDelta{Variable: name}
		if v, ok := b.take(name); ok {
			d.BeforeShare, d.BeforeValue, d.Class = v.Share, v.Value, v.Class
		}
		if v, ok := a.take(name); ok {
			d.AfterShare, d.AfterValue, d.Class = v.Share, v.Value, v.Class
		}
		out = append(out, d)
	}
	// Names are unique now, so the order is total.
	slices.SortFunc(out, func(x, y VarDelta) int {
		return cmp.Or(cmp.Compare(math.Abs(y.DeltaShare()), math.Abs(x.DeltaShare())), strings.Compare(x.Variable, y.Variable))
	})
	return out
}

// namedRanking walks a ranking in name order: idx lists the positions not
// yet taken, by name and then by rank. Sorting positions, not the 80-byte
// rows, keeps the sort's swaps cheap.
type namedRanking struct {
	vs  []VarStat
	idx []int32
}

func byName(vs []VarStat) namedRanking {
	idx := make([]int32, len(vs))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(i, j int32) int { return cmp.Or(strings.Compare(vs[i].Name, vs[j].Name), cmp.Compare(i, j)) })
	return namedRanking{vs, idx}
}

func (r *namedRanking) head() *VarStat { return &r.vs[r.idx[0]] }

// take consumes the leading entries named name and returns the last of
// them, if there are any.
func (r *namedRanking) take(name string) (VarStat, bool) {
	n := 0
	for n < len(r.idx) && r.vs[r.idx[n]].Name == name {
		n++
	}
	if n == 0 {
		return VarStat{}, false
	}
	v := r.vs[r.idx[n-1]]
	r.idx = r.idx[n:]
	return v, true
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
