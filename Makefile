GO ?= go

.PHONY: check lint vet build test test-benchmark race chaos-smoke fuzz-smoke bench-smoke bench-merge-scale

# check is the full pre-merge gate: static checks, the whole test suite
# (including the fault-injection suite), the race detector over the
# goroutine-heavy packages (the simulator's thread fan-out and memory
# hierarchy, the analyzer's streaming merge pipeline, the fault-tolerant
# I/O layers, and the lock-free readers: the interval map, the page table
# and the statement-IP table), a short
# fuzz of the profile reader, salvager, and the daemon's upload ingest,
# and a one-iteration merge benchmark smoke to catch gross regressions.
check: lint build test test-benchmark race chaos-smoke fuzz-smoke bench-smoke bench-merge-scale

# lint: formatting drift is an error, then go vet.
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The end-to-end benchmark is a nested module (benchmark/go.mod), which
# ./... above does not enter, yet it compiles against internal/ packages:
# vet and test it here so an internal API change cannot break it unseen.
test-benchmark:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./internal/sim ./internal/analysis ./internal/profio ./internal/faultio ./internal/profiler ./internal/server ./internal/push ./internal/temporal ./internal/cct ./internal/view
	$(GO) test -race ./internal/heapmap ./internal/mem ./internal/loadmap ./internal/cache ./internal/machine
	$(GO) test -race ./internal/telemetry/...

# Chaos smoke: the dcpush client through a scripted faulty transport
# (drops, shed 503s, timeouts, resets, lost responses) against a live
# dcprofd — every profile must land exactly once and the served view
# must match a cleanly-fed server byte for byte.
chaos-smoke:
	$(GO) test -race -run='^TestChaosPushSmoke$$' -count=1 ./internal/push

# Short fuzz of the reader, the salvage path, the sidecar decoder and its
# round trip, the encoder against its reference, the v1/v2 staging against
# the row reader it replaced, a load continued from an earlier load
# against a full one, the in-memory merges against a file load, the
# daemon's upload ingest, the heap interval map against its model, the
# temporal recorder against the dense one it replaced, and the CCT child
# lists against a map-of-maps tree (the fuzz engine accepts one target per
# run), on top of the always-run corpus regression pass.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadProfile -fuzztime=10s ./internal/profio
	$(GO) test -run='^$$' -fuzz=FuzzSalvageProfile -fuzztime=10s ./internal/profio
	$(GO) test -run='^$$' -fuzz=FuzzTemporalSection -fuzztime=10s ./internal/profio
	$(GO) test -run='^$$' -fuzz=FuzzSidecarRoundTrip -fuzztime=10s ./internal/profio
	$(GO) test -run='^$$' -fuzz=FuzzReadV3Profile -fuzztime=10s ./internal/profio
	$(GO) test -run='^$$' -fuzz=FuzzEncodeMatchesReference -fuzztime=10s ./internal/profio
	$(GO) test -run='^$$' -fuzz=FuzzRowStageMatchesReference -fuzztime=10s ./internal/profio
	$(GO) test -run='^$$' -fuzz=FuzzLoadContinuesFromBase -fuzztime=10s ./internal/analysis
	$(GO) test -run='^$$' -fuzz=FuzzMergeMatchesLoad -fuzztime=10s ./internal/analysis
	$(GO) test -run='^$$' -fuzz=FuzzHandleUpload -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzUploadIdempotency -fuzztime=10s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzMapMatchesModel -fuzztime=10s ./internal/heapmap
	$(GO) test -run='^$$' -fuzz=FuzzRecorderMatchesReference -fuzztime=10s ./internal/temporal
	$(GO) test -run='^$$' -fuzz=FuzzChildListMatchesReference -fuzztime=10s ./internal/cct

# One-iteration merge benchmarks, then the three opt-in wall-clock gates:
# merge throughput with instruments and spans attached within 5% of
# uninstrumented; steady-state attribution allocation-free and >= 1.5x over
# the string-keyed replica (within 10% of the committed speedup); a cached
# query through the full middleware chain at most 20 us dearer than the
# bare handler (runs after the telemetry gate: both reports merge into
# BENCH_telemetry.json).
bench-smoke:
	$(GO) test -run='^$$' -bench=Merge -benchtime=1x ./internal/analysis .
	DCPROF_BENCH_TELEMETRY="$(CURDIR)/BENCH_telemetry.json" \
		$(GO) test -run='^TestTelemetryOverheadGate$$' -count=1 ./internal/analysis
	DCPROF_BENCH_HOTPATH="$(CURDIR)/BENCH_hotpath.json" \
		$(GO) test -run='^TestHotPathBenchGate$$' -count=1 -timeout=30m ./internal/profiler
	DCPROF_BENCH_MIDDLEWARE="$(CURDIR)/BENCH_telemetry.json" \
		$(GO) test -run='^TestMiddlewareOverheadGate$$' -count=1 ./internal/server

# Merge-scale gate: sweep {1k, 10k} profiles x {1, 4, 8} workers through
# the file loader, enforce the v3 size win and the scaling
# (or, on CPU-constrained hosts, overhead) bounds, and fail on >20%
# regression of 8-worker 1k-profile throughput vs the committed report.
bench-merge-scale:
	DCPROF_BENCH_MERGE_SCALE="$(CURDIR)/BENCH_merge_scale.json" \
		$(GO) test -run='^TestMergeScaleGate$$' -count=1 -timeout=30m ./internal/analysis
