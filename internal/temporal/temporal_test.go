package temporal

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

func frame(name string) cct.Frame {
	return cct.Frame{Kind: cct.KindCall, Module: "m", Name: name}
}

func sampleVec(samples, latency uint64) metric.Vector {
	var v metric.Vector
	v[metric.Samples] = samples
	v[metric.Latency] = latency
	return v
}

// buildProfile makes a profile with one static-tree node per name and a
// recorder-produced series assigning each node one delta per window.
func buildProfile(rank, thread int, width uint64, names ...string) (*cct.Profile, []*cct.Node) {
	p := cct.NewProfile(rank, thread, "IBS@4096")
	nodes := make([]*cct.Node, len(names))
	for i, nm := range names {
		v := sampleVec(1, 10)
		nodes[i] = p.Trees[cct.ClassStatic].AddSample([]cct.Frame{frame(nm)}, &v)
	}
	return p, nodes
}

// addSample mirrors the profiler's sample ordering: mark the node in the
// recorder first, then add the vector to the node's cumulative metrics.
func addSample(r *Recorder, now uint64, class cct.Class, n *cct.Node, v metric.Vector) {
	r.Record(now, class, n)
	rowLender.Add(n, &v)
}

// rowLender's slab backs the metric row of a node addSample adds to first.
// A row may come from any tree's slab; buildProfile's nodes have theirs.
var rowLender = cct.New()

// window builds a window holding one delta.
func window(index uint64, class cct.Class, n *cct.Node, v metric.Vector) cct.TimeWindow {
	w := cct.TimeWindow{Index: index}
	w.Add(class, n, &v)
	return w
}

func TestRecorderWindowsAndFastPath(t *testing.T) {
	p, nodes := buildProfile(0, 0, 100, "a", "b")
	r := NewRecorder(100)
	v := sampleVec(1, 5)
	// Window 0: a, a (fast path), b. Window 2 (gap at 1): a.
	addSample(r, 10, cct.ClassStatic, nodes[0], v)
	addSample(r, 20, cct.ClassStatic, nodes[0], v)
	addSample(r, 30, cct.ClassStatic, nodes[1], v)
	addSample(r, 250, cct.ClassStatic, nodes[0], v)
	ts := r.Series()
	if ts == nil || len(ts.Windows) != 2 {
		t.Fatalf("want 2 windows, got %+v", ts)
	}
	if ts.Width != 100 {
		t.Fatalf("width = %d, want 100", ts.Width)
	}
	w0, w2 := ts.Windows[0], ts.Windows[1]
	if w0.Index != 0 || w2.Index != 2 {
		t.Fatalf("window indices = %d, %d; want 0, 2", w0.Index, w2.Index)
	}
	if len(w0.Deltas) != 2 {
		t.Fatalf("window 0 has %d deltas, want 2 (a coalesced)", len(w0.Deltas))
	}
	if got := w0.Metrics(0)[metric.Samples]; got != 2 {
		t.Fatalf("node a window-0 samples = %d, want 2", got)
	}
	if w0.Deltas[0].Node != nodes[0] || w0.Deltas[1].Node != nodes[1] {
		t.Fatalf("window 0 delta nodes wrong")
	}
	if len(w2.Deltas) != 1 || w2.Deltas[0].Node != nodes[0] {
		t.Fatalf("window 2 deltas wrong: %+v", w2.Deltas)
	}
	if ts.NumDeltas() != 3 {
		t.Fatalf("NumDeltas = %d, want 3", ts.NumDeltas())
	}
	if s, e := ts.Span(); s != 0 || e != 300 {
		t.Fatalf("Span = [%d, %d), want [0, 300)", s, e)
	}
	_ = p
}

func TestRecorderEmptySeriesNil(t *testing.T) {
	if got := NewRecorder(64).Series(); got != nil {
		t.Fatalf("empty recorder Series = %+v, want nil", got)
	}
}

func TestRecorderContinuesAfterSeries(t *testing.T) {
	_, nodes := buildProfile(0, 0, 100, "a")
	r := NewRecorder(100)
	v := sampleVec(1, 0)
	addSample(r, 10, cct.ClassStatic, nodes[0], v)
	first := r.Series()
	if len(first.Windows) != 1 {
		t.Fatalf("first Series windows = %d", len(first.Windows))
	}
	addSample(r, 20, cct.ClassStatic, nodes[0], v)
	second := r.Series()
	// Re-opened window 0 appears as a duplicate-index entry; the encoder
	// coalesces, the recorder only guarantees ascending flush order.
	total := uint64(0)
	for _, w := range second.Windows {
		if w.Index != 0 {
			t.Fatalf("unexpected window index %d", w.Index)
		}
		for i := range w.Deltas {
			total += w.Metrics(i)[metric.Samples]
		}
	}
	if total != 2 {
		t.Fatalf("total samples after resume = %d, want 2", total)
	}
}

func TestIndexFoldClip(t *testing.T) {
	// Two threads; thread 0 samples "a" in window 0, thread 1 samples
	// "a" in window 0 and "b" in window 1.
	p0, n0 := buildProfile(0, 0, 0, "a")
	r0 := NewRecorder(100)
	v := sampleVec(1, 10)
	addSample(r0, 5, cct.ClassStatic, n0[0], v)
	p0.Temporal = r0.Series()

	p1, n1 := buildProfile(0, 1, 0, "a", "b")
	r1 := NewRecorder(100)
	addSample(r1, 50, cct.ClassStatic, n1[0], v)
	addSample(r1, 150, cct.ClassStatic, n1[1], v)
	p1.Temporal = r1.Series()

	ix := NewIndex()
	if err := ix.AddSeries(p1); err != nil {
		t.Fatal(err)
	}
	if err := ix.AddSeries(p0); err != nil {
		t.Fatal(err)
	}
	if ix.Series != 2 || ix.NumWindows() != 2 || ix.Width() != 100 {
		t.Fatalf("index state: series=%d windows=%d width=%d", ix.Series, ix.NumWindows(), ix.Width())
	}
	if got := ix.WindowIndices(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("WindowIndices = %v", got)
	}

	// Window 0 holds two "a" samples merged across threads.
	w0 := ix.WindowProfile(0)
	if w0.Rank != 0 || w0.Thread != 0 || w0.Event != "IBS@4096" {
		t.Fatalf("identity = %d/%d/%q", w0.Rank, w0.Thread, w0.Event)
	}
	tot := w0.Total()
	if tot[metric.Samples] != 2 || tot[metric.Latency] != 20 {
		t.Fatalf("window 0 total = %v", tot.String())
	}
	a, ok := w0.Trees[cct.ClassStatic].Root.Lookup(frame("a"))
	if !ok || a.Metric(metric.Samples) != 2 {
		t.Fatalf("window 0 node a missing or wrong: %v, %v", ok, a)
	}
	if _, ok := w0.Trees[cct.ClassStatic].Root.Lookup(frame("b")); ok {
		t.Fatal("window 0 must not contain b")
	}

	// Clip across both windows sees all three samples.
	all := ix.Clip(0, 200)
	if got := all.Total()[metric.Samples]; got != 3 {
		t.Fatalf("full clip samples = %d, want 3", got)
	}
	// Clip with a partial overlap still includes the whole window.
	part := ix.Clip(150, 160)
	if got := part.Total()[metric.Samples]; got != 1 {
		t.Fatalf("partial clip samples = %d, want 1", got)
	}
	// Empty and inverted ranges yield empty profiles.
	if got := ix.Clip(10_000, 20_000).Total(); !got.IsZero() {
		t.Fatalf("out-of-range clip not empty: %v", got.String())
	}
	if got := ix.Clip(100, 100).Total(); !got.IsZero() {
		t.Fatalf("empty-range clip not empty: %v", got.String())
	}

	// Clipped profiles alias nothing: mutating the clip leaves the index
	// unchanged.
	w0.Trees[cct.ClassStatic].AddMetric(a, metric.Samples, 999)
	if got := ix.WindowProfile(0).Total()[metric.Samples]; got != 2 {
		t.Fatalf("index mutated through clip: samples = %d", got)
	}
}

// indexDump renders everything a reader can ask an index: identity, the
// window list, and each window's total and reconstituted profile.
func indexDump(ix *Index) string {
	s := fmt.Sprintf("series=%d dropped=%d width=%d\n", ix.Series, ix.Dropped, ix.Width())
	for _, w := range ix.WindowIndices() {
		p := ix.WindowProfile(w)
		tot := ix.WindowTotal(w)
		s += fmt.Sprintf("window %d r%d t%d %q total=%s\n", w, p.Rank, p.Thread, p.Event, tot.String())
		for c, tr := range p.Trees {
			tr.Walk(func(n *cct.Node, depth int) bool {
				v := n.Metrics()
				s += fmt.Sprintf("  %d %*s%s %s\n", c, 2*depth, "", n.Frame(), v.String())
				return true
			})
		}
	}
	return s
}

// TestIndexCloneLeavesSource: series folded into a clone change the clone
// alone. The source reads the same afterwards, and the clone — and a clone
// of the clone — holds what folding every series into one index holds.
func TestIndexCloneLeavesSource(t *testing.T) {
	series := func(rank, thread int, at ...uint64) *cct.Profile {
		p, nodes := buildProfile(rank, thread, 0, "a", "b")
		r := NewRecorder(100)
		for i, now := range at {
			addSample(r, now, cct.ClassStatic, nodes[i%2], sampleVec(1, 10+now))
		}
		p.Temporal = r.Series()
		return p
	}
	p1, p2 := series(1, 0, 10, 150), series(1, 1, 20, 30, 260)
	p3, p4 := series(0, 3, 40, 950), series(2, 0, 170)

	ix := NewIndex()
	for _, p := range []*cct.Profile{p1, p2} {
		if err := ix.AddSeries(p); err != nil {
			t.Fatal(err)
		}
	}
	before := indexDump(ix)

	c := ix.Clone()
	if err := c.AddSeries(p3); err != nil {
		t.Fatal(err)
	}
	if got := indexDump(ix); got != before {
		t.Fatalf("folding into the clone changed the source:\n got %s\nwant %s", got, before)
	}
	c2 := c.Clone()
	if err := c2.AddSeries(p4); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		ix   *Index
		all  []*cct.Profile
	}{{"clone", c, []*cct.Profile{p1, p2, p3}}, {"clone of clone", c2, []*cct.Profile{p1, p2, p3, p4}}} {
		want := NewIndex()
		for _, p := range tc.all {
			if err := want.AddSeries(p); err != nil {
				t.Fatal(err)
			}
		}
		if got, w := indexDump(tc.ix), indexDump(want); got != w {
			t.Errorf("%s differs from one index folding every series:\n got %s\nwant %s", tc.name, got, w)
		}
	}
	if got := indexDump(ix); got != before {
		t.Fatal("a clone of the clone changed the source")
	}
}

func TestIndexWidthMismatch(t *testing.T) {
	p0, n0 := buildProfile(0, 0, 0, "a")
	r0 := NewRecorder(100)
	v := sampleVec(1, 0)
	addSample(r0, 5, cct.ClassStatic, n0[0], v)
	p0.Temporal = r0.Series()

	p1, n1 := buildProfile(0, 1, 0, "a")
	r1 := NewRecorder(200)
	addSample(r1, 5, cct.ClassStatic, n1[0], v)
	p1.Temporal = r1.Series()

	ix := NewIndex()
	if err := ix.AddSeries(p0); err != nil {
		t.Fatal(err)
	}
	err := ix.AddSeries(p1)
	if !errors.Is(err, ErrWidthMismatch) {
		t.Fatalf("err = %v, want ErrWidthMismatch", err)
	}
	if ix.Dropped != 1 || ix.Series != 1 {
		t.Fatalf("dropped=%d series=%d", ix.Dropped, ix.Series)
	}
	if got := ix.Clip(0, 1000).Total()[metric.Samples]; got != 1 {
		t.Fatalf("index changed by rejected series: samples = %d", got)
	}
}

func TestIndexIgnoresProfilesWithoutSidecar(t *testing.T) {
	p, _ := buildProfile(0, 0, 0, "a")
	ix := NewIndex()
	if err := ix.AddSeries(p); err != nil {
		t.Fatal(err)
	}
	if ix.Series != 0 || ix.NumWindows() != 0 {
		t.Fatalf("series=%d windows=%d, want 0/0", ix.Series, ix.NumWindows())
	}
	if ix.Phases() != nil {
		t.Fatal("empty index must have nil phases")
	}
}

// remoteVec builds a vector with the given remote fraction.
func remoteVec(samples, remote uint64) metric.Vector {
	var v metric.Vector
	v[metric.Samples] = samples
	v[metric.FromRMEM] = remote
	v[metric.FromLMEM] = samples - remote
	v[metric.Latency] = samples * 10
	return v
}

func TestPhasesTwoPhase(t *testing.T) {
	// 16 windows: 8 local then 8 remote-dominated. The detector must cut
	// within one window of the true boundary at window 8 and label both
	// sides.
	p, nodes := buildProfile(0, 0, 0, "a")
	r := NewRecorder(100)
	for w := uint64(0); w < 16; w++ {
		v := remoteVec(100, 0)
		if w >= 8 {
			v = remoteVec(100, 80)
		}
		addSample(r, w*100+50, cct.ClassStatic, nodes[0], v)
	}
	p.Temporal = r.Series()
	ix := NewIndex()
	if err := ix.AddSeries(p); err != nil {
		t.Fatal(err)
	}
	phases := ix.Phases()
	if len(phases) != 2 {
		t.Fatalf("got %d phases (%+v), want 2", len(phases), phases)
	}
	cut := phases[1].StartWindow
	if cut < 7 || cut > 9 {
		t.Fatalf("boundary at window %d, want 8±1", cut)
	}
	if phases[0].Label != "local" || phases[1].Label != "numa-remote" {
		t.Fatalf("labels = %q, %q", phases[0].Label, phases[1].Label)
	}
	if phases[0].Start != 0 || phases[1].End != 1600 {
		t.Fatalf("phase cycle bounds: %+v", phases)
	}
	if phases[0].End != phases[1].Start {
		t.Fatal("phases must tile the span")
	}
	if phases[0].Samples+phases[1].Samples != 1600 {
		t.Fatalf("phase samples don't sum: %+v", phases)
	}
}

func TestPhasesUniformSinglePhase(t *testing.T) {
	p, nodes := buildProfile(0, 0, 0, "a")
	r := NewRecorder(100)
	for w := uint64(0); w < 12; w++ {
		v := remoteVec(100, 10)
		addSample(r, w*100, cct.ClassStatic, nodes[0], v)
	}
	p.Temporal = r.Series()
	ix := NewIndex()
	if err := ix.AddSeries(p); err != nil {
		t.Fatal(err)
	}
	phases := ix.Phases()
	if len(phases) != 1 {
		t.Fatalf("uniform run split into %d phases: %+v", len(phases), phases)
	}
	if phases[0].Label != "local" {
		t.Fatalf("label = %q", phases[0].Label)
	}
}

func TestPhasesIdleGap(t *testing.T) {
	// Active, idle gap, active: the gap must surface as an idle phase.
	p, nodes := buildProfile(0, 0, 0, "a")
	r := NewRecorder(100)
	for w := uint64(0); w < 18; w++ {
		if w >= 6 && w < 12 {
			continue // idle
		}
		v := remoteVec(100, 0)
		addSample(r, w*100, cct.ClassStatic, nodes[0], v)
	}
	p.Temporal = r.Series()
	ix := NewIndex()
	if err := ix.AddSeries(p); err != nil {
		t.Fatal(err)
	}
	phases := ix.Phases()
	var idle *Phase
	for i := range phases {
		if phases[i].Label == "idle" {
			idle = &phases[i]
		}
	}
	if idle == nil {
		t.Fatalf("no idle phase in %+v", phases)
	}
	if idle.Samples != 0 {
		t.Fatalf("idle phase has %d samples", idle.Samples)
	}
	if idle.StartWindow > 7 || idle.EndWindow < 10 {
		t.Fatalf("idle phase [%d, %d] misses the gap", idle.StartWindow, idle.EndWindow)
	}
}

func TestPhasesSparseSpanIsCheap(t *testing.T) {
	// Two bursts separated by an astronomically long idle gap. The scan
	// must cost O(recorded windows), never O(span): before the sparse
	// table this densified ~2^45 windows — a makeslice panic or OOM —
	// and the gap was remotely reachable via uploaded sidecars, whose
	// span guard is only relative to each file's own first window.
	p, nodes := buildProfile(0, 0, 0, "a")
	const far = uint64(1) << 45
	ts := &cct.TimeSeries{Width: 100}
	for w := uint64(0); w < 8; w++ {
		ts.Windows = append(ts.Windows, window(w, cct.ClassStatic, nodes[0], remoteVec(100, 0)))
	}
	for w := far; w < far+8; w++ {
		ts.Windows = append(ts.Windows, window(w, cct.ClassStatic, nodes[0], remoteVec(100, 80)))
	}
	p.Temporal = ts
	ix := NewIndex()
	if err := ix.AddSeries(p); err != nil {
		t.Fatal(err)
	}
	phases := ix.Phases()
	if len(phases) != 3 {
		t.Fatalf("got %d phases (%+v), want local/idle/numa-remote", len(phases), phases)
	}
	if phases[0].Label != "local" || phases[1].Label != "idle" || phases[2].Label != "numa-remote" {
		t.Fatalf("labels = %q, %q, %q", phases[0].Label, phases[1].Label, phases[2].Label)
	}
	// Phases still tile the whole span, compressed gap included.
	if phases[0].Start != 0 || phases[2].End != (far+8)*100 {
		t.Fatalf("span bounds: %+v", phases)
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].Start != phases[i-1].End || phases[i].StartWindow != phases[i-1].EndWindow+1 {
			t.Fatalf("phases %d and %d don't tile: %+v", i-1, i, phases)
		}
	}
	if phases[0].Samples+phases[2].Samples != 1600 || phases[1].Samples != 0 {
		t.Fatalf("phase samples: %+v", phases)
	}
}

func TestAddSeriesRejectsSimClockOverflow(t *testing.T) {
	// A window whose start cycle exceeds uint64 would wrap every Span,
	// Clip, and Phases computation; AddSeries must drop the series whole.
	p, nodes := buildProfile(0, 0, 0, "a")
	p.Temporal = &cct.TimeSeries{Width: 100, Windows: []cct.TimeWindow{
		window(^uint64(0)/100, cct.ClassStatic, nodes[0], sampleVec(1, 10)),
	}}
	ix := NewIndex()
	if err := ix.AddSeries(p); err == nil {
		t.Fatal("sim-clock-overflowing series accepted")
	}
	if ix.Dropped != 1 || ix.Series != 0 || ix.NumWindows() != 0 {
		t.Fatalf("dropped=%d series=%d windows=%d, want 1/0/0", ix.Dropped, ix.Series, ix.NumWindows())
	}
}

func TestParseWindowSpec(t *testing.T) {
	t0, t1, err := ParseWindowSpec("100:6400")
	if err != nil || t0 != 100 || t1 != 6400 {
		t.Fatalf("got %d, %d, %v", t0, t1, err)
	}
	for _, bad := range []string{"", "100", ":", "a:b", "100:", ":200", "200:100", "100:100", "-1:5", "1:2:3"} {
		if _, _, err := ParseWindowSpec(bad); err == nil {
			t.Errorf("ParseWindowSpec(%q) accepted", bad)
		}
	}
	if got := FormatWindowSpec(100, 6400); got != "100:6400" {
		t.Fatalf("FormatWindowSpec = %q", got)
	}
}

func TestParseWindowPair(t *testing.T) {
	w1, w2, err := ParseWindowPair("3:3")
	if err != nil || w1 != 3 || w2 != 3 {
		t.Fatalf("got %d, %d, %v", w1, w2, err)
	}
	if _, _, err := ParseWindowPair("9:2"); err != nil {
		t.Fatalf("descending pair rejected: %v", err)
	}
	for _, bad := range []string{"", "3", "x:y", "3:"} {
		if _, _, err := ParseWindowPair(bad); err == nil {
			t.Errorf("ParseWindowPair(%q) accepted", bad)
		}
	}
}

// TestRecorderFlushAllocs is the count gate on the flush path (the hot-path
// gate in internal/profiler never leaves one window): 10,000 windows of 8
// touched nodes each may allocate only the slab's chunks and the doublings
// of the window list — under 0.01 allocations per window, where one
// []TimeDelta per window made at least 10,000.
func TestRecorderFlushAllocs(t *testing.T) {
	const windows, touched = 10_000, 8
	names := make([]string, touched)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	_, nodes := buildProfile(0, 0, 100, names...)
	v := sampleVec(1, 7)
	var ts *cct.TimeSeries
	allocs := testing.AllocsPerRun(1, func() {
		r := NewRecorder(100)
		for w := uint64(0); w < windows; w++ {
			for _, n := range nodes {
				addSample(r, w*100+3, cct.ClassStatic, n, v)
				addSample(r, w*100+60, cct.ClassStatic, n, v) // fast path
			}
		}
		ts = r.Series()
	})
	if len(ts.Windows) != windows || ts.NumDeltas() != windows*touched {
		t.Fatalf("recorded %d windows, %d deltas; want %d, %d", len(ts.Windows), ts.NumDeltas(), windows, windows*touched)
	}
	for i := range ts.Windows {
		w := &ts.Windows[i]
		if w.Index != uint64(i) || len(w.Deltas) != touched || cap(w.Deltas) != touched {
			t.Fatalf("window %d: index %d, %d deltas (cap %d)", i, w.Index, len(w.Deltas), cap(w.Deltas))
		}
		for j, d := range w.Deltas {
			if d.Node != nodes[j] || w.Metrics(j) != sampleVec(2, 14) {
				t.Fatalf("window %d delta %d = %+v", i, j, d)
			}
		}
	}
	// The chunks below maxChunk hold minChunk + 2*minChunk + ... < maxChunk
	// deltas between them; the window list grows about 30 times on its way
	// to 10,000 entries, the slot list 4 times.
	chunks := float64(windows*touched/maxChunk + 7)
	const growth = 40
	if allocs > chunks+growth || allocs/windows >= 0.01 {
		t.Errorf("%.0f allocations over %d windows (%.4f per window), want <= %.0f chunks + %d",
			allocs, windows, allocs/windows, chunks, growth)
	}
}

// TestSeriesIsStableAcrossRecording: a series handed out stays exactly as
// it was while recording goes on (nothing recorded is moved or reused),
// and the next one extends it.
func TestSeriesIsStableAcrossRecording(t *testing.T) {
	_, nodes := buildProfile(0, 0, 100, "a", "b", "c")
	r := NewRecorder(100)
	record := func(from, to uint64) {
		for w := from; w < to; w++ {
			for i, n := range nodes {
				addSample(r, w*100+uint64(i), cct.ClassStatic, n, sampleVec(w+1, uint64(i)))
			}
		}
	}
	snapshot := func(ts *cct.TimeSeries) (out []cct.TimeWindow) {
		for _, w := range ts.Windows {
			out = append(out, cct.TimeWindow{Index: w.Index, Deltas: append([]cct.TimeDelta(nil), w.Deltas...), Vals: append([]uint64(nil), w.Vals...)})
		}
		return out
	}
	same := func(a, b []cct.TimeWindow) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Index != b[i].Index || len(a[i].Deltas) != len(b[i].Deltas) {
				return false
			}
			for j := range a[i].Deltas {
				if a[i].Deltas[j] != b[i].Deltas[j] || a[i].Metrics(j) != b[i].Metrics(j) {
					return false
				}
			}
		}
		return true
	}

	record(0, 500) // 1,500 deltas: five chunks
	first := r.Series()
	want := snapshot(first)
	record(499, 1200) // re-opens window 499 and goes on into further chunks
	second := r.Series()

	if !same(first.Windows, want) {
		t.Fatal("recording after Series changed the series already handed out")
	}
	if len(second.Windows) != 500+701 {
		t.Fatalf("second series has %d windows, want 1201", len(second.Windows))
	}
	if !same(second.Windows[:500], want) {
		t.Fatal("second series does not start with the first")
	}
	for i, w := range second.Windows[500:] {
		if w.Index != uint64(499+i) || len(w.Deltas) != len(nodes) {
			t.Fatalf("extension window %d: index %d with %d deltas", i, w.Index, len(w.Deltas))
		}
	}
}

// TestIndexCloneSharesNoRows: the window trees of an index clone hold
// metric rows of their own, so adding to every node of every window of the
// clone leaves the source's windows reading what they read before.
func TestIndexCloneSharesNoRows(t *testing.T) {
	p, nodes := buildProfile(0, 0, 0, "a", "b")
	r := NewRecorder(100)
	for now := uint64(0); now < 500; now += 30 {
		addSample(r, now, cct.ClassStatic, nodes[now%2], sampleVec(1, now))
	}
	p.Temporal = r.Series()
	ix := NewIndex()
	if err := ix.AddSeries(p); err != nil {
		t.Fatal(err)
	}
	before := indexDump(ix)
	c := ix.Clone()
	for _, wa := range c.windows {
		for _, tr := range wa.profile.Trees {
			tr.Walk(func(n *cct.Node, _ int) bool {
				tr.AddMetric(n, metric.Samples, 1)
				return true
			})
		}
	}
	if got := indexDump(ix); got != before {
		t.Fatalf("writing to the clone's window trees changed the source:\n got %s\nwant %s", got, before)
	}
}

// TestHeldBytes pins what a held profile costs, measured as live heap
// after a collection: a 100k-node tree whose metric-bearing leaves are 15%
// of its nodes holds at most 96 bytes a node (an 80-byte node plus its
// share of the rows), and 100k recorded deltas carrying three non-zero
// metrics each hold at most 48 bytes a delta (16 bytes of delta, 24 of
// values and their share of the window list, at 20 deltas a window).
func TestHeldBytes(t *testing.T) {
	held := func(build func() any) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		keep := build()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(keep)
		return float64(after.HeapAlloc) - float64(before.HeapAlloc)
	}

	// A complete 4-ary tree of 100k nodes (the children fit the inline
	// slots), every fifth leaf sampled: 15% of the nodes carry metrics.
	const treeNodes = 100_000
	var ids [4]cct.FrameID
	for i := range ids {
		ids[i] = cct.InternFrame(frame(fmt.Sprint("held", i)))
	}
	var tr *cct.Tree
	perNode := held(func() any {
		tr = cct.New()
		nodes := []*cct.Node{tr.Root}
		for i := 1; i < treeNodes; i++ {
			nodes = append(nodes, nodes[(i-1)/4].ChildID(ids[(i-1)%4]))
		}
		v := sampleVec(1, 10)
		for i, n := range nodes {
			if n.NumChildren() == 0 && i%5 == 0 {
				tr.Add(n, &v)
			}
		}
		return tr
	}) / treeNodes
	withMetrics := 0
	tr.Walk(func(n *cct.Node, _ int) bool {
		if n.Metrics() != (metric.Vector{}) {
			withMetrics++
		}
		return true
	})
	if share := float64(withMetrics) / treeNodes; share < 0.149 || share > 0.151 {
		t.Fatalf("%.1f%% of the nodes carry metrics, want 15%%", 100*share)
	}
	if perNode > 96 {
		t.Errorf("the tree holds %.1f B a node, want <= 96", perNode)
	}

	// 5,000 windows of 20 touched nodes, three metrics moving on each.
	const windows, touched = 5_000, 20
	names := make([]string, touched)
	for i := range names {
		names[i] = fmt.Sprint("delta", i)
	}
	_, nodes := buildProfile(0, 0, 100, names...)
	var v metric.Vector
	v[metric.Samples], v[metric.Latency], v[metric.FromL1] = 1, 7, 1
	var ts *cct.TimeSeries
	perDelta := held(func() any {
		r := NewRecorder(100)
		for w := uint64(0); w < windows; w++ {
			for _, n := range nodes {
				addSample(r, w*100, cct.ClassStatic, n, v)
			}
		}
		ts = r.Series()
		return ts
	}) / (windows * touched)
	if ts.NumDeltas() != windows*touched || ts.Windows[0].Deltas[0].Mask != 0b111 {
		t.Fatalf("recorded %d deltas, first mask %#b", ts.NumDeltas(), ts.Windows[0].Deltas[0].Mask)
	}
	if perDelta > 48 {
		t.Errorf("the series holds %.1f B a delta, want <= 48", perDelta)
	}
	t.Logf("%.1f B a node, %.1f B a delta", perNode, perDelta)
}

// FuzzRecorderMatchesReference drives one sample stream through the
// recorder and through the dense reference recorder, each animating its
// own copy of the trees, and requires the same series from both whenever
// the stream asks for one: window indices, delta order, each delta's
// calling context and class, and its metric vector. The stream picks the
// nodes, moves the clock forwards, a little or a lot, and backwards, takes
// a series mid-window (so later samples re-open it) and adds vectors with
// zero entries, or only zeros.
func FuzzRecorderMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 40, 1, 0xff, 0x03, 9, 2, 40, 2, 0x01, 0x00, 0, 5, 0, 130, 3, 0x21, 0x02, 7, 7, 7})
	f.Add([]byte{1, 200, 4, 0x00, 0x00, 220, 2, 50, 1, 0x05, 0x00, 3, 4, 0, 60, 2, 0xff, 0xff, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 400)
		rng.Read(seed)
		f.Add(seed)
	}
	var ids [6]cct.FrameID
	for i := range ids {
		ids[i] = cct.InternFrame(frame(fmt.Sprint("fz", i)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		width := uint64(next()%32) + 1
		pa, pb := cct.NewProfile(0, 0, ""), cct.NewProfile(0, 0, "")
		ra, rb := NewRecorder(width), newReferenceRecorder(width)
		now := uint64(0)
		for len(data) > 0 {
			switch op := next(); {
			case op < 16:
				requireSameSeries(t, ra.Series(), rb.Series())
			case op < 24:
				now += uint64(next()) * width // far ahead
			case op < 32:
				now -= min(now, uint64(next())) // back in time
			default:
				class := cct.Class(op % byte(cct.NumClasses))
				path := make([]cct.FrameID, 1+next()%3)
				for i := range path {
					path[i] = ids[next()%byte(len(ids))]
				}
				var v metric.Vector
				for mask, m := uint16(next())|uint16(next())<<8, 0; m < int(metric.NumMetrics); m++ {
					if mask>>m&1 == 1 {
						v[m] = uint64(next() % 4) // zero a quarter of the time
					}
				}
				now += uint64(next() % 8)
				ta, tb := pa.Trees[class], pb.Trees[class]
				na, nb := ta.InsertPathIDs(path), tb.InsertPathIDs(path)
				ra.Record(now, class, na)
				ta.Add(na, &v)
				rb.Record(now, class, nb)
				tb.Add(nb, &v)
			}
		}
		requireSameSeries(t, ra.Series(), rb.Series())
	})
}

// requireSameSeries compares a series with the reference recorder's.
// Nodes of the two are compared by calling context and class, since each
// recorder animated its own trees.
func requireSameSeries(t *testing.T, got *cct.TimeSeries, want *refSeries) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("series present %v, reference %v", got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if got.Width != want.Width || len(got.Windows) != len(want.Windows) {
		t.Fatalf("width %d with %d windows, reference %d with %d", got.Width, len(got.Windows), want.Width, len(want.Windows))
	}
	for i := range got.Windows {
		g, w := &got.Windows[i], &want.Windows[i]
		if g.Index != w.Index || len(g.Deltas) != len(w.Deltas) {
			t.Fatalf("window %d: index %d with %d deltas, reference %d with %d", i, g.Index, len(g.Deltas), w.Index, len(w.Deltas))
		}
		for j, d := range g.Deltas {
			rd := &w.Deltas[j]
			gp, wp := idPath(d.Node, nil), idPath(rd.Node, nil)
			if d.Class != rd.Class || !slices.Equal(gp, wp) || g.Metrics(j) != rd.Metrics {
				gv := g.Metrics(j)
				t.Fatalf("window %d delta %d: class %v path %v %v, reference class %v path %v %v",
					i, j, d.Class, gp, gv.String(), rd.Class, wp, rd.Metrics.String())
			}
		}
	}
}
