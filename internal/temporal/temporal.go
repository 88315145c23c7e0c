// Package temporal adds the time axis to data-centric profiles.
//
// The cumulative CCT answers "where did the latency go over the whole
// run"; a NUMA storm confined to one phase disappears into that average.
// This package keeps "when" alongside "where" at three points of the
// pipeline:
//
//   - Recorder buckets each sample's metric vector into fixed-width
//     windows of the sampled thread's sim clock, on the profiler hot
//     path, and packs each closed window's deltas — which metrics moved,
//     and by how much — into chunked slabs, so neither a sample nor a
//     window flush allocates in steady state. The result rides on the
//     profile as cct.TimeSeries and is persisted by profio as an optional
//     trailer of the v3 file, which older readers skip.
//   - Index merges the per-thread series of a measurement into
//     per-window partial profiles (window-restricted CCTs rebuilt from
//     each delta's calling context), the substrate for analysis.Clip
//     and analysis.WindowDiff.
//   - Phases runs a change-point scan over per-window aggregate
//     features (sample volume, latency per sample, remote-access
//     fraction, store fraction) and labels the segments — the
//     folding-style phase view of Servat et al., reduced to a robust
//     heuristic.
//
// Thread clocks in one measurement are mutually coherent (parallel
// regions synchronize participants at barriers), so window indices are
// directly comparable across threads and files.
package temporal

import (
	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// slot tracks one node touched in the current window: the node plus its
// cumulative metric vector as of first touch. The window's delta is
// computed at flush time as current-minus-base, so per-sample recording
// never copies or adds a vector.
type slot struct {
	node  *cct.Node
	class cct.Class
	base  metric.Vector
}

// Recorder buckets per-node metric deltas into fixed-width sim-time
// windows. It is single-threaded by design — one Recorder per profiled
// thread, living in the profiler's per-thread state.
//
// The design keeps the sample hot path to a few compares: Record is
// called BEFORE the sample's vector is added to the node, and only marks
// the node as touched in the current window, snapshotting the node's
// cumulative metrics on first touch. The per-window delta is recovered
// at window flush as (cumulative now) − (cumulative at first touch).
// "Already touched this window" is tracked in the node's scratch word
// (stamped with a counter that bumps every flush, so windows never need
// un-stamping), and "still the same window" is a subtract-and-compare
// against the window's start cycle — so the steady-state case is two
// compares and a return: no division, no map, no vector copy, and the
// whole path inlines into the profiler's record loop.
//
// A window flush allocates nothing either: the closed window's deltas and
// their non-zero values are packed into the current chunks of two slabs
// ([]cct.TimeDelta and []uint64 chunks; a window never straddles two) and
// the window keeps capped sub-slices of them — the shape profio's decoder
// hands back. Only a new chunk and the growth of the window list allocate,
// a few dozen times per ten thousand windows. The list doubles, so its
// copies on the way up total about its final size, and Series trims it to
// its length; deltas and values are never copied again.
type Recorder struct {
	width   uint64
	windows []cct.TimeWindow
	// The slabs' current chunks; their lengths are what windows hold.
	chunk []cct.TimeDelta
	vals  []uint64

	// Current-window accumulation state. curStart is curIdx*width, kept
	// so the fast path tests window membership without dividing. stamp
	// identifies the current window in node scratch words; flush bumps
	// it, instantly invalidating every stamped node. It is never zero, so
	// fresh nodes (scratch 0) never read as stamped.
	cur      []slot
	curIdx   uint64
	curStart uint64
	open     bool
	stamp    uint32
}

// The delta slab's chunks double from minChunk deltas (1 KiB), so that a
// thread recording a handful of windows holds little, up to maxChunk
// (64 KiB), where chunk allocations vanish beside the windows they hold.
// The value slab's chunks do the same in values, from 2 KiB to 256 KiB:
// one delta carries up to metric.NumMetrics values, about three in
// practice.
const (
	minChunk = 64
	maxChunk = 4096
	minVals  = 4 * minChunk
	maxVals  = 8 * maxChunk

	// minWindows is the window list's first capacity; it doubles from
	// there.
	minWindows = 16
)

// NewRecorder creates a recorder with the given window width in sim
// cycles. Width must be positive.
func NewRecorder(width uint64) *Recorder {
	if width == 0 {
		panic("temporal: window width must be positive")
	}
	return &Recorder{width: width, stamp: 1}
}

// Width returns the window width in sim cycles.
func (r *Recorder) Width() uint64 { return r.width }

// Record marks node n of class tree `class` as sampled at sim time now.
// It MUST be called before the sample's metric vector is added to n — the
// recorder snapshots cumulative metrics at first touch per window and
// recovers the window delta by subtraction at flush.
//
// The recorder must be the sole scratch-word user of the profile's trees
// while recording (true for per-thread profiles under the profiler).
func (r *Recorder) Record(now uint64, class cct.Class, n *cct.Node) {
	// now-curStart wraps huge when now < curStart, failing the compare;
	// a stale in-range curStart after Series is harmless because flush
	// bumped stamp, so the scratch compare fails.
	if now-r.curStart < r.width && n.Scratch() == r.stamp {
		return // steady state: node already snapshotted in this window
	}
	r.record(now, class, n)
}

// record is the slow path: window advance and/or first touch of a node.
func (r *Recorder) record(now uint64, class cct.Class, n *cct.Node) {
	idx := now / r.width
	if !r.open || idx != r.curIdx {
		r.flush()
		r.curIdx = idx
		r.curStart = idx * r.width
		r.open = true
	}
	if n.Scratch() != r.stamp {
		n.SetScratch(r.stamp)
		r.cur = append(r.cur, slot{node: n, class: class, base: n.Metrics()})
	}
}

// flush materializes the current window: each touched node contributes
// its cumulative metrics minus the first-touch snapshot. Slots whose
// delta is all-zero are dropped (a Record not followed by a metric add).
func (r *Recorder) flush() {
	if r.open && len(r.cur) > 0 {
		if cap(r.chunk)-len(r.chunk) < len(r.cur) {
			r.chunk = make([]cct.TimeDelta, 0, max(minChunk, min(2*cap(r.chunk), maxChunk), len(r.cur)))
		}
		if most := len(r.cur) * int(metric.NumMetrics); cap(r.vals)-len(r.vals) < most {
			r.vals = make([]uint64, 0, max(minVals, min(2*cap(r.vals), maxVals), most))
		}
		// The window's slices start empty at the chunks' free tails, so
		// its appends land in the slabs.
		w := cct.TimeWindow{Index: r.curIdx, Deltas: r.chunk[len(r.chunk):], Vals: r.vals[len(r.vals):]}
		for i := range r.cur {
			s := &r.cur[i]
			d := s.node.Metrics()
			for j := range d {
				d[j] -= s.base[j]
			}
			if !d.IsZero() {
				w.Add(s.class, s.node, &d)
			}
		}
		if n, k := len(w.Deltas), len(w.Vals); n > 0 {
			r.chunk, r.vals = r.chunk[:len(r.chunk)+n], r.vals[:len(r.vals)+k]
			w.Deltas, w.Vals = w.Deltas[:n:n], w.Vals[:k:k]
			if len(r.windows) == cap(r.windows) {
				r.windows = append(make([]cct.TimeWindow, 0, max(minWindows, 2*cap(r.windows))), r.windows...)
			}
			r.windows = append(r.windows, w)
		}
		r.cur = r.cur[:0]
	}
	// Invalidate every node stamped in the closed window, skipping the
	// stamp fresh nodes carry when the counter wraps.
	if r.stamp++; r.stamp == 0 {
		r.stamp = 1
	}
}

// Series returns the recorded sidecar, flushing the in-progress window,
// or nil when nothing was recorded. The window list it hands out has no
// spare capacity, so a held series holds no growth room. Recording may
// continue afterwards; a later Series call returns the extended history
// (a re-opened window appears as a second entry with the same index, which
// the profio encoder coalesces).
func (r *Recorder) Series() *cct.TimeSeries {
	r.flush()
	r.open = false
	if len(r.windows) == 0 {
		return nil
	}
	if len(r.windows) < cap(r.windows) {
		r.windows = append(make([]cct.TimeWindow, 0, len(r.windows)), r.windows...)
	}
	return &cct.TimeSeries{Width: r.width, Windows: r.windows}
}
