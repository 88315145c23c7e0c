package cct

// Time-windowed metric deltas: the temporal sidecar's in-memory form.
//
// The cumulative CCT answers "where did the metric go over the whole
// run"; the TimeSeries answers "when". The profiler buckets each sample's
// metric vector by the thread's sim-clock window in addition to adding it
// to the CCT node, so a per-node time series rides alongside the profile
// without duplicating the tree: a TimeDelta points at the node it
// annotates, and the windows hold only the per-window increments.
//
// The types live here rather than in internal/temporal because they are
// part of the Profile itself (Profile.Temporal) — the writer, reader, and
// every app that plumbs []*Profile around carries them for free, and the
// temporal package (recorder, merge index, phase detection) can import
// cct without a cycle.

import (
	"math/bits"

	"dcprof/internal/metric"
)

// TimeDelta is one node's metric increment within one time window. It
// stores which metrics moved, not their values: those are packed into the
// window's Vals, so a delta is 16 bytes however many metrics it carries —
// the in-memory twin of the sidecar's mask and value columns.
type TimeDelta struct {
	// Node is the CCT node the metrics were attributed to. It is a node
	// of the owning Profile's Trees[Class]; the on-disk encoding refers
	// to it by its deterministic pre-order position across the profile's
	// trees, class by class, so the class is implied by the position.
	Node *Node
	// Off is where the delta's values start in the window's Vals.
	Off uint32
	// Mask has bit m set for each metric m the delta carries; the values
	// follow one another from Vals[Off] in metric order.
	Mask uint16
	// Class is the storage class of the tree Node belongs to.
	Class Class
}

// A Mask has a bit per metric: this fails to compile once they outgrow it.
const _ = uint16(1<<metric.NumMetrics - 1)

// TimeWindow is the set of metric deltas recorded during one fixed-width
// window of sim time.
type TimeWindow struct {
	// Index is the window number: the window covers sim cycles
	// [Index*Width, (Index+1)*Width).
	Index uint64
	// Deltas holds the per-node increments. Order is unspecified in
	// memory; the encoder sorts by pre-order position and sums repeats.
	Deltas []TimeDelta
	// Vals holds the deltas' metric values, packed as their Off and Mask
	// say.
	Vals []uint64
}

// Metrics expands delta i into its metric vector.
func (w *TimeWindow) Metrics(i int) metric.Vector {
	var v metric.Vector
	d := &w.Deltas[i]
	vals := w.Vals[d.Off:]
	for x := d.Mask; x != 0; x &= x - 1 {
		v[bits.TrailingZeros16(x)] = vals[0]
		vals = vals[1:]
	}
	return v
}

// Add appends a delta of node n (of class tree c) carrying v's non-zero
// metrics. Appends go through to the slices' spare capacity, so a caller
// that leaves enough of it — the recorder, writing into its slab — packs
// a window without allocating.
func (w *TimeWindow) Add(c Class, n *Node, v *metric.Vector) {
	d := TimeDelta{Node: n, Off: uint32(len(w.Vals)), Class: c}
	for m, x := range v {
		if x != 0 {
			d.Mask |= 1 << m
			w.Vals = append(w.Vals, x)
		}
	}
	w.Deltas = append(w.Deltas, d)
}

// TimeSeries is one profile's temporal sidecar: fixed-width windows of
// per-node metric deltas. Windows are stored in ascending Index order
// with gaps where no samples landed (idle windows cost nothing).
type TimeSeries struct {
	// Width is the window width in sim cycles.
	Width uint64
	// Windows holds the non-empty windows in ascending Index order.
	Windows []TimeWindow
}

// Span returns the series' covered sim-time range [start, end) in cycles,
// from the first window's start to the last window's end. Zero for an
// empty series.
func (ts *TimeSeries) Span() (start, end uint64) {
	if ts == nil || len(ts.Windows) == 0 {
		return 0, 0
	}
	first := ts.Windows[0].Index
	last := ts.Windows[len(ts.Windows)-1].Index
	return first * ts.Width, (last + 1) * ts.Width
}

// NumDeltas counts delta records across all windows.
func (ts *TimeSeries) NumDeltas() int {
	if ts == nil {
		return 0
	}
	n := 0
	for i := range ts.Windows {
		n += len(ts.Windows[i].Deltas)
	}
	return n
}
