package temporal

import (
	"errors"
	"fmt"
	"sort"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// ErrWidthMismatch reports a series whose window width disagrees with the
// width the index adopted from the first series folded into it. Mixed
// widths would make window indices incomparable, so the series is dropped
// (the caller decides whether that is a quarantine note or a hard error).
var ErrWidthMismatch = errors.New("temporal: window width mismatch")

// windowAgg is one window's merged view across every folded series.
type windowAgg struct {
	// profile holds the window-restricted CCTs: each delta's calling
	// context reconstituted into fresh trees, so the window can be viewed
	// (or diffed) exactly like a cumulative profile.
	profile *cct.Profile
	// total is the window's aggregate metric vector across all classes —
	// the feature source for phase detection, kept incrementally so
	// Phases never walks trees.
	total metric.Vector
}

// Index merges the temporal sidecars of a measurement's profiles into
// per-window partial profiles. AddSeries calls must not overlap — the
// in-memory merge makes them in one sequential pass, the file loader under
// a mutex — and the index is read-only afterwards; Clip, WindowProfile,
// and Phases are safe for concurrent readers once folding is done.
type Index struct {
	width   uint64
	windows map[uint64]*windowAgg

	// Identity of the reconstituted window profiles: lowest (rank, thread)
	// seen, same rule the cumulative merge uses, so results are
	// deterministic regardless of fold order.
	rank, thread int
	event        string
	haveIdent    bool

	// Series counts sidecars folded in; Dropped counts sidecars rejected
	// (width mismatch, or window indices past the sim-clock range).
	Series  int
	Dropped int
}

// NewIndex creates an empty index. The window width is adopted from the
// first series folded in.
func NewIndex() *Index {
	return &Index{windows: make(map[uint64]*windowAgg)}
}

// Clone returns a deep copy of ix: series folded into the copy leave ix,
// and whoever is reading it, undisturbed.
func (ix *Index) Clone() *Index {
	c := *ix
	c.windows = make(map[uint64]*windowAgg, len(ix.windows))
	for w, wa := range ix.windows {
		c.windows[w] = &windowAgg{profile: wa.profile.Clone(), total: wa.total}
	}
	return &c
}

// Width returns the adopted window width in sim cycles (0 until the first
// series is folded).
func (ix *Index) Width() uint64 { return ix.width }

// NumWindows returns the number of distinct non-empty windows.
func (ix *Index) NumWindows() int { return len(ix.windows) }

// AddSeries folds one profile's temporal sidecar into the index. Profiles
// without a sidecar are ignored. A width mismatch drops the series and
// returns ErrWidthMismatch (wrapped); the index is unchanged.
func (ix *Index) AddSeries(p *cct.Profile) error {
	ts := p.Temporal
	if ts == nil || len(ts.Windows) == 0 {
		return nil
	}
	if ts.Width == 0 {
		return fmt.Errorf("temporal: profile rank %d thread %d: series has zero window width", p.Rank, p.Thread)
	}
	// Reject windows whose start cycle would overflow the uint64 sim
	// clock — no real run reaches there, and rejecting before folding
	// keeps every Span/Clip/Phases cycle computation overflow-free.
	// Validated before any index mutation so a bad series changes nothing.
	for wi := range ts.Windows {
		if ts.Windows[wi].Index >= ^uint64(0)/ts.Width {
			ix.Dropped++
			return fmt.Errorf("temporal: profile rank %d thread %d: window %d start overflows the sim clock at width %d",
				p.Rank, p.Thread, ts.Windows[wi].Index, ts.Width)
		}
	}
	if ix.width == 0 {
		ix.width = ts.Width
	} else if ts.Width != ix.width {
		ix.Dropped++
		return fmt.Errorf("temporal: profile rank %d thread %d: width %d vs index width %d: %w",
			p.Rank, p.Thread, ts.Width, ix.width, ErrWidthMismatch)
	}
	if !ix.haveIdent || p.Rank < ix.rank || (p.Rank == ix.rank && p.Thread < ix.thread) {
		ix.rank, ix.thread, ix.event, ix.haveIdent = p.Rank, p.Thread, p.Event, true
	}
	var path []cct.FrameID // scratch, reused across deltas
	for wi := range ts.Windows {
		w := &ts.Windows[wi]
		wa := ix.windows[w.Index]
		if wa == nil {
			wa = &windowAgg{profile: cct.NewProfile(0, 0, "")}
			ix.windows[w.Index] = wa
		}
		for di := range w.Deltas {
			d := &w.Deltas[di]
			if int(d.Class) >= cct.NumClasses || d.Node == nil {
				continue // defensive; the decoder validates these
			}
			path = idPath(d.Node, path[:0])
			v := w.Metrics(di)
			wa.profile.Trees[d.Class].AddSampleIDs(path, &v)
			wa.total.Add(&v)
		}
	}
	ix.Series++
	return nil
}

// idPath collects n's root-to-node frame IDs into buf (reused) by climbing
// parents up to the parentless root and reversing — the inverse of
// InsertPathIDs.
func idPath(n *cct.Node, buf []cct.FrameID) []cct.FrameID {
	for cur := n; cur.Parent() != nil; cur = cur.Parent() {
		buf = append(buf, cur.ID())
	}
	for i, j := 0, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// WindowIndices returns the non-empty window indices in ascending order.
func (ix *Index) WindowIndices() []uint64 {
	out := make([]uint64, 0, len(ix.windows))
	for w := range ix.windows {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Span returns the covered sim-time range [start, end) in cycles, from the
// first non-empty window's start to the last one's end. Zero when empty.
func (ix *Index) Span() (start, end uint64) {
	if len(ix.windows) == 0 {
		return 0, 0
	}
	first, last := false, uint64(0)
	var lo uint64
	for w := range ix.windows {
		if !first || w < lo {
			lo = w
		}
		if !first || w > last {
			last = w
		}
		first = true
	}
	return lo * ix.width, (last + 1) * ix.width
}

// Clip merges every window overlapping the sim-time range [t0, t1) into a
// fresh profile — clipping is at window granularity, so a partially
// overlapped window contributes in full. The result aliases nothing in the
// index and may be mutated freely. An empty overlap yields an empty
// profile (identity fields still set).
func (ix *Index) Clip(t0, t1 uint64) *cct.Profile {
	out := cct.NewProfile(ix.rank, ix.thread, ix.event)
	if t1 <= t0 || len(ix.windows) == 0 {
		return out
	}
	w0 := t0 / ix.width
	w1 := (t1 - 1) / ix.width
	for _, w := range ix.WindowIndices() {
		if w < w0 || w > w1 {
			continue
		}
		out.Merge(ix.windows[w].profile)
	}
	return out
}

// WindowProfile returns a fresh merged copy of the single window w, or an
// empty profile when the window recorded nothing.
func (ix *Index) WindowProfile(w uint64) *cct.Profile {
	if ix.width == 0 {
		return cct.NewProfile(ix.rank, ix.thread, ix.event)
	}
	return ix.Clip(w*ix.width, (w+1)*ix.width)
}

// WindowTotal returns window w's aggregate metric vector across all
// classes (zero when the window recorded nothing).
func (ix *Index) WindowTotal(w uint64) metric.Vector {
	if wa := ix.windows[w]; wa != nil {
		return wa.total
	}
	return metric.Vector{}
}
