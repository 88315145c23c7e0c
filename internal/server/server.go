// Package server is the continuous-profiling service: a long-running
// daemon that accepts profile uploads over HTTP, organizes them into
// named collections on durable storage, and serves the data-centric
// views (top-down, bottom-up, diff) plus merge statistics and telemetry
// as JSON — the refactor that turns the one-shot CLI library into a
// system many users query concurrently.
//
// The shape follows the schedviz storage/api split: a storage layer
// (collection.go — durable validated uploads over the profio FS seam)
// and a cache layer (cache.go — LRU of merged CCTs, singleflight misses)
// behind a thin request/response HTTP surface in this file. Query
// responses render through the same internal/view JSON writers dcview
// uses, so served and offline reports are byte-identical for the same
// data.
//
// Endpoints:
//
//	POST /collections/{name}/profiles     upload one v2/v3 profile (body = file bytes)
//	GET  /collections                     list collections
//	GET  /collections/{name}              collection metadata (+ last merge's quarantine)
//	GET  /collections/{name}/topdown      top-down view JSON   (?metric=&depth=&min=&rows=&window=t0:t1)
//	GET  /collections/{name}/bottomup     bottom-up view JSON  (?metric=&rows=&window=t0:t1)
//	GET  /collections/{name}/phases       detected execution phases JSON
//	GET  /collections/{name}/diff?base=B  per-variable diff of collection B -> {name}
//	GET  /collections/{name}/stats        merge pipeline statistics JSON
//	GET  /collections/{name}/digests      content digests (the dcpush resume surface)
//	GET  /healthz                         liveness (always 200 while the process serves)
//	GET  /readyz                          readiness (503 when read-only or saturated)
//	GET  /metrics                         Prometheus text exposition (the scrape target)
//	GET  /debug/telemetry                 telemetry snapshot    (?prefix=server.)
//	GET  /debug/vars                      totals + delta/rates since the previous request
//	GET  /debug/timeline                  self-telemetry time series (?window=30s)
//	GET  /debug/trace                     bounded request-span ring, trace-event JSON
//
// Every endpoint passes through the instrument middleware: requests get
// an X-Request-ID (client-supplied or generated), one structured
// access-log line, a trace span, and per-endpoint latency/error
// instruments — see middleware.go.
//
// Degradation contract: saturated admission sheds with 429 (uploads) or
// 503 (merges) plus Retry-After; a full disk flips the server read-only
// (uploads 503, queries fine) until a recovery probe sees writes work
// again; per-request deadlines cancel abandoned merges; and retried
// uploads are idempotent by content digest, answering 200 against the
// already-stored file.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dcprof/internal/analysis"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/telemetry"
	"dcprof/internal/telemetry/spanlog"
	"dcprof/internal/view"
)

// Config configures a Server.
type Config struct {
	// DataDir is the root under which collection directories live.
	DataDir string
	// CacheEntries bounds the merged-view LRU cache (<=0 uses 64).
	CacheEntries int
	// Workers is the merge concurrency per load (<=0 uses GOMAXPROCS).
	Workers int
	// MaxUploadBytes bounds one upload body (<=0 uses 1 GiB).
	MaxUploadBytes int64
	// MaxInflightUploads bounds concurrently-streaming upload bodies;
	// excess requests are shed with 429 + Retry-After (<=0 uses 64).
	MaxInflightUploads int
	// MaxConcurrentMerges bounds merges running at once; a query needing
	// a fresh merge past the bound is shed with 503 + Retry-After —
	// queries joining an in-flight merge are never shed (<=0 uses 4).
	MaxConcurrentMerges int
	// RequestTimeout is the per-request deadline, propagated through the
	// request context into the merge pipeline (<=0 disables).
	RequestTimeout time.Duration
	// MaxCollectionBytes bounds one collection's published bytes; an
	// upload that would cross it is rejected with 507 (<=0 unlimited).
	MaxCollectionBytes int64
	// MaxTotalBytes bounds published bytes across all collections
	// (<=0 unlimited).
	MaxTotalBytes int64
	// ReadonlyProbeInterval rate-limits recovery probes while the server
	// is read-only (0 uses 5s; negative probes on every check — tests).
	ReadonlyProbeInterval time.Duration
	// FS overrides the filesystem the storage layer writes through (nil
	// uses the real one) — the seam fault-injection tests crash or fill.
	FS profio.FS
	// OpenProfile overrides how merge reads profile files (nil uses
	// profio.OpenFile) — the seam chaos tests slow down or fail.
	OpenProfile func(path string) (io.ReadCloser, error)
	// Registry receives the server's instruments and every merge's
	// analysis accounting (nil creates a private registry). /debug/telemetry
	// snapshots it.
	Registry *telemetry.Registry
	// AccessLog receives one structured line per request (nil disables
	// access logging). dcprofd wires a JSON handler on stderr.
	AccessLog *slog.Logger
	// Spans receives one span per request (nil disables tracing). Use a
	// bounded log (spanlog.NewBounded) for long-running servers; /debug/trace
	// serves it.
	Spans *spanlog.Log
	// TimelineInterval is how often the self-telemetry timeline snapshots
	// the registry (<=0 disables the ticker; /debug/timeline then only
	// shows explicitly recorded points).
	TimelineInterval time.Duration
	// TimelinePoints bounds the timeline ring (<=0 uses 300).
	TimelinePoints int
}

// Server is the continuous-profiling service.
type Server struct {
	cfg    Config
	store  *store
	cache  *viewCache
	reg    *telemetry.Registry
	health *health

	uploadSem *semaphore
	mergeSem  *semaphore

	accessLog    *slog.Logger
	spans        *spanlog.Log
	timeline     *telemetry.Timeline
	timelineStop func()
	started      time.Time
	traceRow     atomic.Int64

	varsMu     sync.Mutex
	lastVars   telemetry.Snapshot
	lastVarsAt time.Time

	uploadsAccepted  *telemetry.Counter
	uploadsRejected  *telemetry.Counter
	uploadsDuplicate *telemetry.Counter
	uploadBytes      *telemetry.Counter
	shed             *telemetry.Counter
	shedUploads      *telemetry.Counter
	shedMerges       *telemetry.Counter
	shedReadonly     *telemetry.Counter
	quotaRejected    *telemetry.Counter
}

// New opens (or creates) the data directory, adopts every collection
// already on disk, and returns the service.
func New(cfg Config) (*Server, error) {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 1 << 30
	}
	if cfg.MaxInflightUploads <= 0 {
		cfg.MaxInflightUploads = 64
	}
	if cfg.MaxConcurrentMerges <= 0 {
		cfg.MaxConcurrentMerges = 4
	}
	if cfg.ReadonlyProbeInterval == 0 {
		cfg.ReadonlyProbeInterval = 5 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.New()
	}
	st, err := openStore(cfg.DataDir, cfg.FS, reg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:              cfg,
		store:            st,
		cache:            newViewCache(cfg.CacheEntries, reg),
		reg:              reg,
		health:           newHealth(st.fs, cfg.DataDir, cfg.ReadonlyProbeInterval, reg),
		uploadSem:        newSemaphore(cfg.MaxInflightUploads, reg.Gauge("server.admission.uploads.inflight")),
		mergeSem:         newSemaphore(cfg.MaxConcurrentMerges, reg.Gauge("server.admission.merges.inflight")),
		accessLog:        cfg.AccessLog,
		spans:            cfg.Spans,
		timeline:         telemetry.NewTimeline(reg, cfg.TimelinePoints),
		started:          time.Now(),
		uploadsAccepted:  reg.Counter("server.uploads.accepted"),
		uploadsRejected:  reg.Counter("server.uploads.rejected"),
		uploadsDuplicate: reg.Counter("server.uploads.duplicates"),
		uploadBytes:      reg.Counter("server.uploads.bytes"),
		shed:             reg.Counter("server.shed"),
		shedUploads:      reg.Counter("server.shed.uploads"),
		shedMerges:       reg.Counter("server.shed.merges"),
		shedReadonly:     reg.Counter("server.shed.readonly"),
		quotaRejected:    reg.Counter("server.uploads.quota_rejected"),
	}
	if cfg.TimelineInterval > 0 {
		s.timelineStop = s.timeline.Start(cfg.TimelineInterval)
	}
	return s, nil
}

// Registry returns the registry the server accounts into.
func (s *Server) Registry() *telemetry.Registry { return s.reg }

// Timeline returns the server's self-telemetry timeline — tests and
// embedders can Record points explicitly when no ticker runs.
func (s *Server) Timeline() *telemetry.Timeline { return s.timeline }

// Close stops the server's background work (the timeline ticker). Safe
// to call more than once; the HTTP listener is the caller's to close.
func (s *Server) Close() {
	if s.timelineStop != nil {
		s.timelineStop()
	}
}

// Handler returns the service's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /collections/{name}/profiles", s.instrument("upload", s.handleUpload))
	mux.HandleFunc("GET /collections", s.instrument("list", s.handleList))
	mux.HandleFunc("GET /collections/{name}", s.instrument("metadata", s.handleMetadata))
	mux.HandleFunc("GET /collections/{name}/topdown", s.instrument("topdown", s.handleView((*view.Snapshot).WriteTopDownJSON)))
	mux.HandleFunc("GET /collections/{name}/bottomup", s.instrument("bottomup", s.handleView((*view.Snapshot).WriteBottomUpJSON)))
	mux.HandleFunc("GET /collections/{name}/phases", s.instrument("phases", s.handlePhases))
	mux.HandleFunc("GET /collections/{name}/diff", s.instrument("diff", s.handleDiff))
	mux.HandleFunc("GET /collections/{name}/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("GET /collections/{name}/digests", s.instrument("digests", s.handleDigests))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/telemetry", s.instrument("telemetry", s.handleTelemetry))
	mux.HandleFunc("GET /debug/vars", s.instrument("vars", s.handleVars))
	mux.HandleFunc("GET /debug/timeline", s.instrument("timeline", s.handleTimeline))
	mux.HandleFunc("GET /debug/trace", s.instrument("trace", s.handleTrace))
	return mux
}

// shedWith rejects the request with a Retry-After hint and counts the
// shed in both the per-reason counter and the total; tag names the shed
// reason in the access-log line.
func (s *Server) shedWith(w http.ResponseWriter, r *http.Request, tag string, reason *telemetry.Counter, status int, retryAfterSec int, format string, args ...any) {
	s.shed.Inc()
	reason.Inc()
	if info := infoFrom(r.Context()); info != nil {
		info.shed = tag
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSec))
	httpError(w, status, format, args...)
}

// httpError writes a JSON error document with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleUpload accepts one profile file as the request body. Admission
// first: the in-flight-upload semaphore sheds excess concurrency with
// 429, and a read-only server (disk full) sheds with 503 — both carry
// Retry-After so dcpush backs off instead of hammering. The payload is
// then CRC-validated while it streams to a durable temp file under the
// remaining disk quota; only a fully valid v2/v3 profile is renamed into
// the collection (creating it on first upload) and advances its
// generation. A payload the collection already holds (by content digest)
// is answered 200 against the existing file — retries are idempotent.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	if !s.uploadSem.tryAcquire() {
		s.shedWith(w, r, "uploads", s.shedUploads, http.StatusTooManyRequests, 1, "upload capacity saturated (%d in flight)", s.cfg.MaxInflightUploads)
		return
	}
	defer s.uploadSem.release()
	if !s.health.writable() {
		s.shedWith(w, r, "readonly", s.shedReadonly, http.StatusServiceUnavailable, 5, "server is read-only (data dir not writable); uploads rejected, queries still served")
		return
	}

	name := r.PathValue("name")
	col, err := s.store.getOrCreate(name)
	if err != nil {
		switch {
		case ValidateName(name) != nil:
			httpError(w, http.StatusBadRequest, "%v", err)
		case isDiskFull(err):
			s.health.degrade()
			httpError(w, http.StatusInsufficientStorage, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}

	quota := s.quotaRemaining(col)
	if quota == 0 {
		s.uploadsRejected.Inc()
		s.quotaRejected.Inc()
		httpError(w, http.StatusInsufficientStorage, "collection %s is at its disk quota", name)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	res, err := col.upload(s.storeFS(), body, quota)
	if err != nil {
		s.uploadsRejected.Inc()
		switch {
		case isReject(err):
			httpError(w, http.StatusBadRequest, "invalid profile: %v", err)
		case errors.Is(err, errOverQuota):
			s.quotaRejected.Inc()
			httpError(w, http.StatusInsufficientStorage, "%v", err)
		case isDiskFull(err):
			// The disk itself is full: degrade to read-only (recovery
			// probes will restore service) and tell the client storage is
			// the problem, not its payload.
			s.health.degrade()
			httpError(w, http.StatusInsufficientStorage, "%v", err)
		case r.Context().Err() != nil:
			httpError(w, http.StatusRequestTimeout, "request canceled or timed out: %v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	if res.Duplicate {
		s.uploadsDuplicate.Inc()
		writeJSON(w, http.StatusOK, res)
		return
	}
	s.uploadsAccepted.Inc()
	s.uploadBytes.Add(uint64(res.Bytes))
	s.store.total.Add(res.Bytes)
	writeJSON(w, http.StatusCreated, res)
}

// quotaRemaining computes how many more payload bytes the collection may
// accept under the per-collection and total quotas: -1 when unlimited,
// 0 when already at (or past) a quota.
func (s *Server) quotaRemaining(col *collection) int64 {
	remaining := int64(-1)
	if s.cfg.MaxCollectionBytes > 0 {
		remaining = max(s.cfg.MaxCollectionBytes-col.metadata().Bytes, 0)
	}
	if s.cfg.MaxTotalBytes > 0 {
		totalRem := max(s.cfg.MaxTotalBytes-s.store.total.Load(), 0)
		if remaining < 0 || totalRem < remaining {
			remaining = totalRem
		}
	}
	return remaining
}

// handleDigests lists the collection's content digests — what dcpush
// consults to skip files the server already holds when resuming an
// interrupted batch.
func (s *Server) handleDigests(w http.ResponseWriter, r *http.Request) {
	col := s.store.get(r.PathValue("name"))
	if col == nil {
		httpError(w, http.StatusNotFound, "no collection %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"collection": col.name,
		"digests":    col.digestList(),
	})
}

// handleHealthz is liveness: the process is up and serving HTTP. Always
// 200 — a read-only or saturated server is still alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 200 only when the server can do useful work
// for new traffic — data dir writable (not read-only; checking probes
// for recovery when due), and admission not saturated. 503 carries the
// reasons, so an orchestrator's probe log says why traffic was held.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	var reasons []string
	if !s.health.writable() {
		reasons = append(reasons, "read-only: data directory is not writable")
	}
	if s.uploadSem.saturated() {
		reasons = append(reasons, "upload admission saturated")
	}
	if s.mergeSem.saturated() {
		reasons = append(reasons, "merge admission saturated")
	}
	if len(reasons) > 0 {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reasons": reasons})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}

func (s *Server) storeFS() profio.FS {
	if s.cfg.FS != nil {
		return s.cfg.FS
	}
	return profio.OSFS{}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"collections": s.store.list()})
}

// metadataResponse is a collection's metadata plus the quarantine report
// of its most recent cached merge (if any) — the per-collection health
// surface.
type metadataResponse struct {
	Metadata
	// Quarantined lists files the last merge skipped; null when the
	// collection has not been merged since the entry was cached.
	Quarantined []analysis.QuarantinedReport `json:"quarantined,omitempty"`
	// MergedGeneration is the generation the quarantine report describes.
	MergedGeneration uint64 `json:"merged_generation,omitempty"`
}

func (s *Server) handleMetadata(w http.ResponseWriter, r *http.Request) {
	col := s.store.get(r.PathValue("name"))
	if col == nil {
		httpError(w, http.StatusNotFound, "no collection %q", r.PathValue("name"))
		return
	}
	resp := metadataResponse{Metadata: col.metadata()}
	if e := s.cache.peek(col.name); e != nil {
		resp.Quarantined = e.stats.Report().Quarantined
		resp.MergedGeneration = e.gen
	}
	writeJSON(w, http.StatusOK, resp)
}

// view resolves the collection and returns its merged view at the
// current content generation, held — the caller releases it through
// s.cache.release once the response is written — through the cache
// (singleflight on miss, admission on fresh merges, cancellation via the
// request context). A hit reads the generation and profile count and
// touches no disk; the directory is listed only by a merge that actually
// starts.
func (s *Server) view(ctx context.Context, name string) (*viewEntry, int, error) {
	col := s.store.get(name)
	if col == nil {
		return nil, http.StatusNotFound, fmt.Errorf("no collection %q", name)
	}
	md := col.metadata()
	if md.Profiles == 0 {
		return nil, http.StatusNotFound, fmt.Errorf("collection %q has no profiles", name)
	}
	e, err := s.cache.entry(ctx, name, md.Generation, s.mergeSem, func(mctx context.Context) (*viewEntry, error) {
		// The generation and the file list are pinned together, here and
		// not before the cache lookup, so the entry is filed under the
		// generation its files belong to even if an upload landed since.
		gen, files, err := col.snapshot()
		if err != nil {
			return nil, err
		}
		// Continue from the collection's cached entry where it is a partial
		// sum of these files (viewCache.base); the load owns base.
		base, todo := s.cache.base(name, files)
		// Quarantine policy: ingest validation means on-disk damage is
		// at-rest corruption after acceptance; one rotten file must degrade
		// that file's contribution, not the collection's availability. The
		// quarantine report is surfaced in /stats and metadata. mctx is the
		// merge's own context: it outlives this request while other queries
		// still wait, and dies when the last of them disconnects.
		db, stats, err := analysis.LoadFilesStreamingCtx(mctx, "collection "+name, base, todo, analysis.LoadOptions{
			Workers:   s.cfg.Workers,
			Policy:    analysis.PolicyQuarantine,
			Telemetry: s.reg,
			Open:      s.cfg.OpenProfile,
		})
		if err != nil {
			return nil, err
		}
		return newViewEntry(name, gen, files, db, stats), nil
	})
	if err != nil {
		switch {
		case errors.Is(err, errMergeSaturated):
			return nil, http.StatusServiceUnavailable, err
		case errors.Is(err, context.DeadlineExceeded):
			return nil, http.StatusGatewayTimeout, fmt.Errorf("merge of %q timed out: %w", name, err)
		case errors.Is(err, context.Canceled):
			// 499: nginx's "client closed request" — nobody is listening,
			// but the status keeps the access log honest.
			return nil, 499, err
		default:
			return nil, http.StatusInternalServerError, err
		}
	}
	return e, http.StatusOK, nil
}

// addedFiles returns the files of next that built lacks, and whether
// every file of built is in next. Both lists are sorted.
func addedFiles(built, next []string) ([]string, bool) {
	var added []string
	i := 0
	for _, f := range next {
		switch {
		case i < len(built) && built[i] == f:
			i++
		case i < len(built) && built[i] < f:
			return nil, false // built[i] is gone
		default:
			added = append(added, f)
		}
	}
	return added, i == len(built)
}

// viewError writes a query failure, attaching Retry-After and shed
// accounting when the failure is merge-admission saturation.
func (s *Server) viewError(w http.ResponseWriter, r *http.Request, status int, err error) {
	if status == http.StatusServiceUnavailable {
		s.shedWith(w, r, "merges", s.shedMerges, status, 2, "%v", err)
		return
	}
	httpError(w, status, "%v", err)
}

// queryOptions reads the shared view parameters from the request's parsed
// query, defaulting to the same values dcview's flags default to.
func queryOptions(q url.Values, event string) (view.Options, error) {
	o := view.Options{
		MaxRows:  view.DefaultMaxRows,
		MaxDepth: view.DefaultMaxDepth,
		MinShare: view.DefaultMinShare,
		Metric:   metric.Default(event),
	}
	if name := q.Get("metric"); name != "" {
		id, ok := metric.ByName(name)
		if !ok {
			return o, fmt.Errorf("unknown metric %q", name)
		}
		o.Metric = id
	}
	if v := q.Get("rows"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return o, fmt.Errorf("bad rows %q", v)
		}
		o.MaxRows = n
	}
	if v := q.Get("depth"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return o, fmt.Errorf("bad depth %q", v)
		}
		o.MaxDepth = n
	}
	if v := q.Get("min"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return o, fmt.Errorf("bad min %q", v)
		}
		o.MinShare = f
	}
	return o, nil
}

// handleView serves one of the single-collection views: it resolves the
// (possibly windowed) cache entry and renders from the entry's snapshot.
func (s *Server) handleView(render func(*view.Snapshot, io.Writer, view.Options) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		e := s.temporalEntry(w, r, q.Get("window"))
		if e == nil {
			return
		}
		defer s.cache.release(e)
		o, err := queryOptions(q, e.event)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		render(e.snap, w, o)
	}
}

// handleDiff serves the per-variable comparison base -> {name}: "what
// moved after the optimization this collection holds profiles of".
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	base := q.Get("base")
	if base == "" {
		httpError(w, http.StatusBadRequest, "missing ?base= collection")
		return
	}
	before, status, err := s.view(r.Context(), base)
	if err != nil {
		s.viewError(w, r, status, err)
		return
	}
	defer s.cache.release(before)
	after, status, err := s.view(r.Context(), r.PathValue("name"))
	if err != nil {
		s.viewError(w, r, status, err)
		return
	}
	defer s.cache.release(after)
	o, err := queryOptions(q, after.event)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	before.snap.WriteDiffJSON(w, after.snap, o.Metric, o.MaxRows)
}

// handleStats serves the merge pipeline statistics of the collection's
// current merged view — rendered by the same writer as `dcview -stats
// -json`, so the two surfaces share one schema.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	e, status, err := s.view(r.Context(), r.PathValue("name"))
	if err != nil {
		s.viewError(w, r, status, err)
		return
	}
	defer s.cache.release(e)
	w.Header().Set("Content-Type", "application/json")
	analysis.WriteStatsReport(w, e.stats)
}

// handleTelemetry snapshots the server's registry — server instruments
// plus the absorbed per-merge analysis accounting — optionally filtered
// to one name prefix.
func (s *Server) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot().Filter(r.URL.Query().Get("prefix"))
	w.Header().Set("Content-Type", "application/json")
	snap.WriteJSON(w)
}
