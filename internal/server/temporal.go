package server

// Temporal query surface: the ?window= parameter on the view endpoints
// and the detected-phase endpoint. A windowed query resolves the
// collection's merged view as usual (cache, singleflight, admission),
// then derives the window-restricted database through a second cache
// entry keyed by collection + canonical window spec at the same content
// generation — repeated queries against one window are cache hits, and
// an upload invalidates windowed views exactly like whole-run views
// because the generation is part of the key. Deriving a window never
// takes a merge-admission token: the clip reads the already-merged
// temporal index, which is cheap next to a merge.

import (
	"context"
	"errors"
	"net/http"

	"dcprof/internal/analysis"
	"dcprof/internal/temporal"
	"dcprof/internal/view"
)

// temporalEntry resolves the cache entry a view query should render, held
// (the caller releases it): the collection's merged view, window-restricted
// when spec — the request's ?window=t0:t1 — is not empty. On failure the
// error response is already written and nil is returned. Malformed specs
// are 400s diagnosed before any merge starts; a window query against a
// collection without temporal sidecars is a 400 as well — the parameter
// asks for data the collection cannot answer.
func (s *Server) temporalEntry(w http.ResponseWriter, r *http.Request, spec string) *viewEntry {
	var t0, t1 uint64
	if spec != "" {
		var err error
		t0, t1, err = temporal.ParseWindowSpec(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return nil
		}
	}
	e, status, err := s.view(r.Context(), r.PathValue("name"))
	if err != nil {
		s.viewError(w, r, status, err)
		return nil
	}
	if spec == "" {
		return e
	}
	we, err := s.windowView(r.Context(), e, t0, t1)
	s.cache.release(e)
	if err != nil {
		switch {
		case errors.Is(err, analysis.ErrNoTemporal):
			httpError(w, http.StatusBadRequest, "collection %q: %v", e.name, err)
		case errors.Is(err, context.DeadlineExceeded):
			httpError(w, http.StatusGatewayTimeout, "%v", err)
		case errors.Is(err, context.Canceled):
			httpError(w, 499, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return nil
	}
	return we
}

// windowView returns the window-restricted view derived from the base
// entry, held, through the cache. The derived key cannot collide with a
// collection name: ValidateName rejects '|', ':' and '='. The clip reads
// only the base's temporal index, which no later build modifies (a
// continued load folds into a clone of it). The derived entry keeps the
// clipped profile's snapshot and the event, and nothing of the base: an
// evicted base's database, index included, is not pinned by its windows.
func (s *Server) windowView(ctx context.Context, base *viewEntry, t0, t1 uint64) (*viewEntry, error) {
	key := base.name + "|window=" + temporal.FormatWindowSpec(t0, t1)
	return s.cache.entry(ctx, key, base.gen, nil, func(context.Context) (*viewEntry, error) {
		clipped, err := analysis.Clip(base.db, t0, t1)
		if err != nil {
			return nil, err
		}
		return &viewEntry{name: key, gen: base.gen, event: base.event, snap: view.Freeze(clipped)}, nil
	})
}

// handlePhases serves the detected execution phases of the collection's
// current merged view, rendered by the same writer as `dcview -phases
// -json`. A collection whose profiles carried no temporal sidecars has
// no phase resource: 404.
func (s *Server) handlePhases(w http.ResponseWriter, r *http.Request) {
	e, status, err := s.view(r.Context(), r.PathValue("name"))
	if err != nil {
		s.viewError(w, r, status, err)
		return
	}
	defer s.cache.release(e)
	ph, err := analysis.Phases(e.db)
	if err != nil {
		if errors.Is(err, analysis.ErrNoTemporal) {
			httpError(w, http.StatusNotFound, "collection %q: %v", e.name, err)
			return
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	view.WritePhasesJSON(w, e.db.Event, e.db.Temporal.Width(), ph)
}
