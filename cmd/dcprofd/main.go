// Command dcprofd is the continuous-profiling daemon: it accepts profile
// uploads over HTTP, organizes them into named collections under a data
// directory, and serves the data-centric views as JSON with an LRU cache
// of merged CCTs so repeat queries never re-merge.
//
// Usage:
//
//	dcprofd -addr :8080 -data ./collections
//
//	# upload a measurement's profiles into a collection (dcpush retries
//	# through overload and resumes interrupted batches; plain curl works
//	# too — uploads are idempotent by content digest either way)
//	dcpush -server http://localhost:8080 -collection amg-run1 measurements/
//
//	# liveness and readiness (429/503 shed responses carry Retry-After)
//	curl -sS http://localhost:8080/healthz
//	curl -sS http://localhost:8080/readyz
//
//	# query the merged views
//	curl -sS 'http://localhost:8080/collections/amg-run1/topdown?metric=LATENCY(cy)'
//	curl -sS 'http://localhost:8080/collections/amg-run1/bottomup?rows=10'
//	curl -sS 'http://localhost:8080/collections/amg-run2/diff?base=amg-run1'
//	curl -sS 'http://localhost:8080/collections/amg-run1/stats'
//	curl -sS 'http://localhost:8080/debug/telemetry?prefix=server.'
//
//	# fleet observability: Prometheus scrape target, rates view, the
//	# server's own recent history, and the last requests as a trace
//	curl -sS http://localhost:8080/metrics
//	curl -sS http://localhost:8080/debug/vars
//	curl -sS 'http://localhost:8080/debug/timeline?window=30s'
//	curl -sS http://localhost:8080/debug/trace > trace.json   # open in Perfetto
//
// Every request gets an X-Request-ID (propagated from the client when it
// sent one — dcpush always does) and one structured JSON access-log line
// on stderr; grep the ID to join a client-side failure to the exact
// server-side request.
//
// Shutdown is graceful: SIGINT/SIGTERM stop accepting connections and
// wait (bounded) for in-flight requests. All diagnostics go to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dcprof/internal/server"
	"dcprof/internal/telemetry/spanlog"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		data       = flag.String("data", "collections", "data directory holding the collections")
		entries    = flag.Int("cache-entries", 64, "max cached merged views (LRU)")
		workers    = flag.Int("workers", 0, "merge workers per load (0 = GOMAXPROCS); alias for -merge-workers")
		mergeWork  = flag.Int("merge-workers", 0, "merge workers per load (0 = GOMAXPROCS); takes precedence over -workers")
		maxUp      = flag.Int64("max-upload-mb", 1024, "max accepted upload size in MiB")
		maxUploads = flag.Int("max-uploads", 64, "max concurrent uploads before shedding 429")
		maxMerges  = flag.Int("max-merges", 4, "max concurrent view merges before shedding 503")
		reqTimeout = flag.Duration("request-timeout", 0, "per-request deadline (0 = none)")
		colQuota   = flag.Int64("collection-quota-mb", 0, "per-collection disk quota in MiB (0 = unlimited)")
		totalQuota = flag.Int64("total-quota-mb", 0, "total disk quota in MiB across collections (0 = unlimited)")
		probeEvery = flag.Duration("probe-interval", 5*time.Second, "min interval between read-only recovery probes")
		accessLog  = flag.Bool("access-log", true, "emit one structured JSON access-log line per request on stderr")
		traceCap   = flag.Int("trace-events", 4096, "request spans retained for /debug/trace (0 disables tracing)")
		tlEvery    = flag.Duration("timeline-interval", time.Second, "self-telemetry snapshot interval for /debug/timeline (0 disables)")
		tlPoints   = flag.Int("timeline-points", 300, "self-telemetry snapshots retained")
	)
	flag.Parse()

	effWorkers := *workers
	if *mergeWork > 0 {
		effWorkers = *mergeWork
	}
	cfg := server.Config{
		DataDir:               *data,
		CacheEntries:          *entries,
		Workers:               effWorkers,
		MaxUploadBytes:        *maxUp << 20,
		MaxInflightUploads:    *maxUploads,
		MaxConcurrentMerges:   *maxMerges,
		RequestTimeout:        *reqTimeout,
		MaxCollectionBytes:    *colQuota << 20,
		MaxTotalBytes:         *totalQuota << 20,
		ReadonlyProbeInterval: *probeEvery,
		TimelineInterval:      *tlEvery,
		TimelinePoints:        *tlPoints,
	}
	if *accessLog {
		cfg.AccessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	if *traceCap > 0 {
		cfg.Spans = spanlog.NewBounded(*traceCap)
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dcprofd: %v\n", err)
		os.Exit(1)
	}
	defer srv.Close()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "dcprofd: serving %s on %s\n", *data, *addr)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "dcprofd: %v\n", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "dcprofd: shutdown: %v\n", err)
			os.Exit(1)
		}
	}
}
