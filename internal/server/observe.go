package server

// Operational read surfaces: the endpoints a fleet operator points
// machines (Prometheus) and humans (curl) at. /metrics is the scrape
// target; /debug/vars is the "what is it doing right now" rates view;
// /debug/timeline replays the server's own recent counter history as a
// windowed time series; /debug/trace dumps the bounded request-span ring
// in Chrome trace-event JSON.

import (
	"net/http"
	"time"

	"dcprof/internal/analysis"
	"dcprof/internal/telemetry"
)

// handleMetrics serves the registry in Prometheus text exposition format
// — the standard scrape surface, validated in-tree by the promtest
// parser so the encoder can't drift from what real scrapers accept.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.PromContentType)
	telemetry.WritePromText(w, s.reg.Snapshot())
}

// varsResponse is the /debug/vars document: lifetime totals plus the
// delta and per-second rates since the previous /debug/vars request —
// rates without any scraper doing the subtraction.
type varsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	// WindowSeconds is the span the delta and rates cover: time since the
	// previous /debug/vars request, or since start on the first one.
	WindowSeconds float64            `json:"window_seconds"`
	Totals        telemetry.Snapshot `json:"totals"`
	Delta         telemetry.Snapshot `json:"delta"`
	// RatesPerSecond maps each counter to delta/window.
	RatesPerSecond map[string]float64 `json:"rates_per_second"`
	// MergeWorkers is the effective worker count cached merges run with —
	// the resolved value, not the raw (possibly zero) flag.
	MergeWorkers int `json:"merge_workers"`
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	now := time.Now()
	cur := s.reg.Snapshot()

	s.varsMu.Lock()
	prev, prevAt := s.lastVars, s.lastVarsAt
	s.lastVars, s.lastVarsAt = cur, now
	s.varsMu.Unlock()

	if prevAt.IsZero() {
		prev, prevAt = telemetry.Snapshot{}, s.started
	}
	window := now.Sub(prevAt).Seconds()
	delta := cur.Delta(prev)
	rates := make(map[string]float64, len(delta.Counters))
	for name, d := range delta.Counters {
		if window > 0 {
			rates[name] = float64(d) / window
		}
	}
	writeJSON(w, http.StatusOK, varsResponse{
		UptimeSeconds:  now.Sub(s.started).Seconds(),
		WindowSeconds:  window,
		Totals:         cur,
		Delta:          delta,
		RatesPerSecond: rates,
		MergeWorkers:   analysis.LoadOptions{Workers: s.cfg.Workers}.EffectiveWorkers(),
	})
}

// timelineResponse is the /debug/timeline document: the retained
// snapshot points inside the requested window, plus the adjacent-point
// deltas that turn cumulative totals into a rate series.
type timelineResponse struct {
	WindowSeconds float64                   `json:"window_seconds"`
	Points        []telemetry.TimelinePoint `json:"points"`
	// Deltas[i] is Points[i+1] minus Points[i]; len(Points)-1 entries.
	Deltas []telemetry.TimelinePoint `json:"deltas"`
}

// handleTimeline serves the server's own recent history: registry
// snapshots recorded on a ticker, windowed by ?window= (default 60s) —
// the same window idiom the temporal subsystem gives application
// profiles, applied to the server's counters.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	window := time.Minute
	if spec := r.URL.Query().Get("window"); spec != "" {
		d, err := time.ParseDuration(spec)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad window %q: want a positive Go duration like 30s", spec)
			return
		}
		window = d
	}
	pts := s.timeline.Window(time.Now().Add(-window))
	deltas := make([]telemetry.TimelinePoint, 0, max(len(pts)-1, 0))
	for i := 1; i < len(pts); i++ {
		deltas = append(deltas, telemetry.TimelinePoint{
			At:       pts[i].At,
			Snapshot: pts[i].Snapshot.Delta(pts[i-1].Snapshot),
		})
	}
	writeJSON(w, http.StatusOK, timelineResponse{
		WindowSeconds: window.Seconds(),
		Points:        pts,
		Deltas:        deltas,
	})
}

// handleTrace dumps the bounded request-span ring as Chrome trace-event
// JSON — load it in Perfetto and the fleet's last N requests render as a
// timeline. 404 when the server was started without a trace buffer.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		httpError(w, http.StatusNotFound, "tracing disabled (no trace buffer configured)")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.spans.WriteJSON(w)
}
