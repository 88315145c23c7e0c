package temporal

// The dense recorder the sparse one replaced, moved here verbatim but for
// renames and the accessor reads of node metrics, so that
// FuzzRecorderMatchesReference can hold the sparse recorder to its
// output: each delta a full metric vector, 96 bytes however few of its
// metrics moved.

import (
	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// refDelta, refWindow and refSeries are the dense cct.TimeDelta,
// cct.TimeWindow and cct.TimeSeries the reference recorder produced.
type refDelta struct {
	Class   cct.Class
	Node    *cct.Node
	Metrics metric.Vector
}

type refWindow struct {
	Index  uint64
	Deltas []refDelta
}

type refSeries struct {
	Width   uint64
	Windows []refWindow
}

// refSlot tracks one node touched in the current window: the node plus its
// cumulative metric vector as of first touch. The window's delta is
// computed at flush time as current-minus-base, so per-sample recording
// never copies or adds a vector.
type refSlot struct {
	node  *cct.Node
	class cct.Class
	base  metric.Vector
}

// referenceRecorder buckets per-node metric deltas into fixed-width sim-time
// windows. It is single-threaded by design — one referenceRecorder per profiled
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
// A window flush allocates nothing either: the closed window's deltas are
// appended to the current chunk of a slab ([]refDelta chunks; a
// window never straddles two) and the window keeps a capped sub-slice of
// it — the shape profio's decoder hands back. Only a new chunk and the
// growth of the window list allocate, a few dozen times per ten thousand
// windows, and nothing recorded is ever copied again.
type referenceRecorder struct {
	width   uint64
	windows []refWindow
	chunk   []refDelta // the slab's current chunk; len is what windows hold

	// Current-window accumulation state. curStart is curIdx*width, kept
	// so the fast path tests window membership without dividing. stamp
	// identifies the current window in node scratch words; flush bumps
	// it, instantly invalidating every stamped node. Starts above zero so
	// fresh nodes (scratch 0) never read as stamped.
	cur      []refSlot
	curIdx   uint64
	curStart uint64
	open     bool
	stamp    uint32
}

// The slab's chunks double from refMinChunk deltas (6 KiB), so that a thread
// recording a handful of windows holds little, up to refMaxChunk (384 KiB),
// where chunk allocations vanish beside the windows they hold.
const (
	refMinChunk = 64
	refMaxChunk = 4096
)

// newReferenceRecorder creates a recorder with the given window width in sim
// cycles. Width must be positive.
func newReferenceRecorder(width uint64) *referenceRecorder {
	if width == 0 {
		panic("temporal: window width must be positive")
	}
	return &referenceRecorder{width: width, stamp: 1}
}

// Width returns the window width in sim cycles.
func (r *referenceRecorder) Width() uint64 { return r.width }

// Record marks node n of class tree `class` as sampled at sim time now.
// It MUST be called before the sample's metric vector is added to
// n.Metrics — the recorder snapshots cumulative metrics at first touch
// per window and recovers the window delta by subtraction at flush.
//
// The recorder must be the sole scratch-word user of the profile's trees
// while recording (true for per-thread profiles under the profiler).
func (r *referenceRecorder) Record(now uint64, class cct.Class, n *cct.Node) {
	// now-curStart wraps huge when now < curStart, failing the compare;
	// a stale in-range curStart after Series is harmless because flush
	// bumped stamp, so the scratch compare fails.
	if now-r.curStart < r.width && n.Scratch() == r.stamp {
		return // steady state: node already snapshotted in this window
	}
	r.record(now, class, n)
}

// record is the slow path: window advance and/or first touch of a node.
func (r *referenceRecorder) record(now uint64, class cct.Class, n *cct.Node) {
	idx := now / r.width
	if !r.open || idx != r.curIdx {
		r.flush()
		r.curIdx = idx
		r.curStart = idx * r.width
		r.open = true
	}
	if n.Scratch() != r.stamp {
		n.SetScratch(r.stamp)
		r.cur = append(r.cur, refSlot{node: n, class: class, base: n.Metrics()})
	}
}

// flush materializes the current window: each touched node contributes
// its cumulative metrics minus the first-touch snapshot. Slots whose
// delta is all-zero are dropped (a Record not followed by a metric add).
func (r *referenceRecorder) flush() {
	if r.open && len(r.cur) > 0 {
		if cap(r.chunk)-len(r.chunk) < len(r.cur) {
			r.chunk = make([]refDelta, 0, max(refMinChunk, min(2*cap(r.chunk), refMaxChunk), len(r.cur)))
		}
		start := len(r.chunk)
		for i := range r.cur {
			s := &r.cur[i]
			d := refDelta{Class: s.class, Node: s.node}
			nonzero := false
			for j := range d.Metrics {
				d.Metrics[j] = s.node.Metric(metric.ID(j)) - s.base[j]
				if d.Metrics[j] != 0 {
					nonzero = true
				}
			}
			if nonzero {
				r.chunk = append(r.chunk, d)
			}
		}
		if end := len(r.chunk); end > start {
			r.windows = append(r.windows, refWindow{Index: r.curIdx, Deltas: r.chunk[start:end:end]})
		}
		r.cur = r.cur[:0]
	}
	r.stamp++ // invalidate every node stamped in the closed window
}

// Series returns the recorded sidecar, flushing the in-progress window,
// or nil when nothing was recorded. Recording may continue afterwards; a
// later Series call returns the extended history (a re-opened window
// appears as a second entry with the same index, which the profio
// encoder coalesces).
func (r *referenceRecorder) Series() *refSeries {
	r.flush()
	r.open = false
	if len(r.windows) == 0 {
		return nil
	}
	return &refSeries{Width: r.width, Windows: r.windows}
}
