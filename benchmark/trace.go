package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dcprof/internal/telemetry/spanlog"
)

// The layers a span can be charged to: the repository's module names, plus
// the two things that are not dcprof code — the Go HTTP stack between the
// benchmark's client and the daemon's handler, and the benchmark itself.
const (
	layerSim      = "sim"
	layerProfiler = "profiler" // with heapmap, cct insertion and temporal.Recorder, which it calls
	layerProfio   = "profio"
	layerAnalysis = "analysis" // the load pipeline, which calls profio decode and cct merge
	layerView     = "view"
	layerServer   = "server" // the daemon's handler, with whatever it calls
	layerPush     = "push"
	layerNetHTTP  = "nethttp"
	layerHarness  = "harness"
)

var allLayers = []string{
	layerSim, layerProfiler, layerProfio, layerAnalysis, layerView,
	layerServer, layerPush, layerNetHTTP, layerHarness,
}

// span is one timed call into a layer, made from the benchmark's own
// files. parent is the id of the span that caused it (0 for a root).
type span struct {
	id, parent int
	layer      string
	name       string
	tid        int
	start      time.Time
	dur        time.Duration
}

// tracer keeps spans in memory until the workload ends. A nil *tracer is
// tracing off: begin returns 0 and end does nothing, so the workloads
// carry no conditionals and the untraced pass pays one nil check per
// span site.
type tracer struct {
	log *spanlog.Log // created with the tracer so its time base precedes every span

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{log: spanlog.New()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, layer, name string, tid int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{id: id, parent: parent, layer: layer, name: name, tid: tid, start: now})
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.dur = now.Sub(s.start)
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns each layer's self time — its spans' durations minus
// the time their child spans cover — its span count, and the total of the
// root spans.
// Children are either sequential inside their parent (the calls of one
// repetition) or nested one inside the other (handler inside round trip),
// so subtracting the children's sum is exact.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int, total time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.parent] += s.dur
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		count[s.layer]++
		own := s.dur - children[s.id]
		if own < 0 {
			own = 0
		}
		self[s.layer] += own
		if s.parent == 0 {
			total += s.dur
		}
	}
	return self, count, total
}

// write stores the first n spans as Chrome trace events (chrome://tracing
// and ui.perfetto.dev open the file). Each event's args name its span id
// and its parent, so the causal tree survives the flat format.
func (t *tracer) write(path string, n int) error {
	t.mu.Lock()
	if n > len(t.spans) {
		n = len(t.spans)
	}
	for _, s := range t.spans[:n] {
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.parent != 0 {
			args["parent_name"] = t.spans[s.parent-1].name
		}
		t.log.Complete(s.name, s.layer, 1, s.tid, s.start, s.dur, args)
	}
	t.mu.Unlock()

	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.log.WriteJSON(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
