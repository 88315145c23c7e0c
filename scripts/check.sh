#!/bin/sh
# Full pre-merge gate, for environments without make (see Makefile).
set -ex

# Lint: formatting drift is an error, then go vet.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test ./...
# The end-to-end benchmark is a nested module that ./... does not enter but
# that compiles against internal/ packages.
(cd benchmark && go vet ./... && go test ./...)
go test -race ./internal/sim ./internal/analysis ./internal/profio ./internal/faultio ./internal/profiler ./internal/server ./internal/push ./internal/temporal ./internal/cct ./internal/view
go test -race ./internal/telemetry/...
# Chaos smoke: dcpush through a scripted faulty transport against a live
# dcprofd — exactly-once delivery and byte-identical served views.
go test -race -run='^TestChaosPushSmoke$' -count=1 ./internal/push
go test -run='^$' -fuzz=FuzzReadProfile -fuzztime=10s ./internal/profio
go test -run='^$' -fuzz=FuzzSalvageProfile -fuzztime=10s ./internal/profio
go test -run='^$' -fuzz=FuzzTemporalSection -fuzztime=10s ./internal/profio
go test -run='^$' -fuzz=FuzzReadV3Profile -fuzztime=10s ./internal/profio
go test -run='^$' -fuzz=FuzzHandleUpload -fuzztime=10s ./internal/server
go test -run='^$' -fuzz=FuzzUploadIdempotency -fuzztime=10s ./internal/server
go test -run='^$' -bench=Merge -benchtime=1x ./internal/analysis .
# Telemetry must be near-free: merge throughput with instruments and spans
# attached is gated at <5% over uninstrumented, report in BENCH_telemetry.json.
DCPROF_BENCH_TELEMETRY="$(pwd)/BENCH_telemetry.json" \
	go test -run='^TestTelemetryOverheadGate$' -count=1 ./internal/analysis
# Sample-path perf gate: steady-state attribution must not allocate and must
# stay >= 1.5x over the string-keyed legacy replica (and within 10% of the
# committed speedup), report in BENCH_hotpath.json.
DCPROF_BENCH_HOTPATH="$(pwd)/BENCH_hotpath.json" \
	go test -run='^TestHotPathBenchGate$' -count=1 -timeout=30m ./internal/profiler
# Observability must be near-free on the serving hot path: the cached-query
# route through the full middleware chain (request IDs, access log, spans,
# instruments) may cost at most 20 us per request more than the bare handler
# (median of interleaved rounds). Runs after the telemetry gate so both
# reports merge into BENCH_telemetry.json.
DCPROF_BENCH_MIDDLEWARE="$(pwd)/BENCH_telemetry.json" \
	go test -run='^TestMiddlewareOverheadGate$' -count=1 ./internal/server
# Merge-scale gate: {1k, 10k} profiles x {1, 4, 8} workers through the
# file loader; enforces the v3 size win, the scaling (or
# CPU-constrained overhead) bounds, and <=20% regression of 8-worker
# 1k-profile throughput vs the committed BENCH_merge_scale.json.
DCPROF_BENCH_MERGE_SCALE="$(pwd)/BENCH_merge_scale.json" \
	go test -run='^TestMergeScaleGate$' -count=1 -timeout=30m ./internal/analysis
