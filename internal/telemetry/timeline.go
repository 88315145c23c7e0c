package telemetry

// Timeline is the profiler profiling itself over time: a fixed-capacity
// ring of registry snapshots taken on a ticker, so a long-running
// process (dcprofd) can serve its own recent history as a windowed time
// series — the same window/diff idiom the temporal subsystem applies to
// application profiles, applied to the server's own counters. The BSC
// tools lesson (Servat et al.): time-series views of a system's own
// counters are what turn raw telemetry into diagnosis — a cache
// stampede, a shed storm, or a merge spike is a shape in the series,
// invisible in a cumulative total.
//
// The ring holds points, not deltas: consumers diff adjacent points
// with Snapshot.Delta to recover rates over any sub-window. Memory is
// bounded by capacity x instruments; at the default 300 points / 1s
// interval the server carries its last five minutes.

import (
	"sync"
	"time"
)

// TimelinePoint is one timestamped registry snapshot.
type TimelinePoint struct {
	At       time.Time `json:"at"`
	Snapshot Snapshot  `json:"snapshot"`
}

// Timeline is a concurrency-safe ring buffer of registry snapshots. A
// nil *Timeline is a valid "history off" timeline: Record no-ops and
// the query methods return nothing.
type Timeline struct {
	reg *Registry

	mu   sync.Mutex
	pts  []TimelinePoint // ring storage, cap == capacity
	next int             // overwrite position once full
	full bool

	records *Counter
}

// NewTimeline creates a timeline over reg holding the last `capacity`
// snapshots (<=0 uses 300). Recording is self-accounted under
// "telemetry.timeline.records" in the same registry — the snapshot
// stream observes its own cost like every other subsystem.
func NewTimeline(reg *Registry, capacity int) *Timeline {
	if capacity <= 0 {
		capacity = 300
	}
	return &Timeline{
		reg:     reg,
		pts:     make([]TimelinePoint, 0, capacity),
		records: reg.Counter("telemetry.timeline.records"),
	}
}

// Record snapshots the registry and appends the point, overwriting the
// oldest once the ring is full. No-op on nil.
func (t *Timeline) Record(at time.Time) {
	if t == nil {
		return
	}
	t.records.Inc()
	pt := TimelinePoint{At: at, Snapshot: t.reg.Snapshot()}
	t.mu.Lock()
	if len(t.pts) < cap(t.pts) {
		t.pts = append(t.pts, pt)
	} else {
		t.pts[t.next] = pt
		t.next = (t.next + 1) % cap(t.pts)
		t.full = true
	}
	t.mu.Unlock()
}

// Start records on every tick of interval until the returned stop
// function is called. Stop is idempotent and returns once the recorder
// has exited, so nothing is recorded after it. On a nil timeline the
// returned stop is a no-op.
func (t *Timeline) Start(interval time.Duration) (stop func()) {
	if t == nil {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				t.Record(now)
			case <-done:
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}

// Len reports how many points the ring currently holds.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pts)
}

// Points returns every retained point in chronological order.
func (t *Timeline) Points() []TimelinePoint {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TimelinePoint, 0, len(t.pts))
	if t.full {
		out = append(out, t.pts[t.next:]...)
		out = append(out, t.pts[:t.next]...)
	} else {
		out = append(out, t.pts...)
	}
	return out
}

// Window returns the retained points at or after since, chronological.
func (t *Timeline) Window(since time.Time) []TimelinePoint {
	pts := t.Points()
	for i, p := range pts {
		if !p.At.Before(since) {
			return pts[i:]
		}
	}
	return nil
}
