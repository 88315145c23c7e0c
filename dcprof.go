// Package dcprof is the public API of the data-centric profiler
// reproduction: a simulated NUMA execution substrate, the data-centric
// call-path profiler that attaches to it, the post-mortem analyzer, and the
// presentation views — everything a program needs to reproduce the paper's
// workflow (measure → merge → view) or to build new studies on top.
//
// The package re-exports the stable surface of the internal packages as
// type aliases, so examples and downstream tools depend only on this one
// import:
//
//	node := dcprof.NewNode(dcprof.MagnyCours48(), dcprof.DefaultCacheConfig())
//	proc := dcprof.NewProcess(node, 0, 0, 48, nil)
//	prof := dcprof.Attach(proc, dcprof.DefaultProfilerConfig())
//	... declare a program, run threads ...
//	db := dcprof.Merge(prof.Profiles(), 0)
//	fmt.Println(dcprof.RenderTopDown(db.Merged, dcprof.ViewOptions{Metric: dcprof.MetricLatency}))
package dcprof

import (
	"context"

	"dcprof/internal/analysis"
	"dcprof/internal/cache"
	"dcprof/internal/cct"
	"dcprof/internal/machine"
	"dcprof/internal/mem"
	"dcprof/internal/metric"
	"dcprof/internal/pmu"
	"dcprof/internal/profiler"
	"dcprof/internal/profio"
	"dcprof/internal/sim"
	"dcprof/internal/telemetry"
	"dcprof/internal/telemetry/spanlog"
	"dcprof/internal/view"
)

// ---- Machine topology ----

// Topology describes a multi-socket NUMA node.
type Topology = machine.Topology

// Power7Node returns the paper's 128-hardware-thread POWER7 node.
func Power7Node() Topology { return machine.Power7Node() }

// MagnyCours48 returns the paper's 48-core AMD server.
func MagnyCours48() Topology { return machine.MagnyCours48() }

// TinyTopology returns a 4-thread, 2-domain node for experiments and tests.
func TinyTopology() Topology { return machine.Tiny() }

// ---- Memory hierarchy ----

// CacheConfig sets the simulated memory hierarchy's geometry and timing.
type CacheConfig = cache.Config

// DefaultCacheConfig returns realistic full-size cache parameters.
func DefaultCacheConfig() CacheConfig { return cache.DefaultConfig() }

// DataSource identifies the memory-hierarchy level that served an access.
type DataSource = cache.DataSource

// ---- Address space ----

// Addr is a simulated virtual address.
type Addr = mem.Addr

// Policy decides NUMA page placement; FirstTouch, Interleave and Bind are
// the concrete policies.
type (
	Policy     = mem.Policy
	FirstTouch = mem.FirstTouch
	Interleave = mem.Interleave
	Bind       = mem.Bind
)

// ---- Execution substrate ----

// Node is one simulated machine.
type Node = sim.Node

// NewNode builds a node from a topology and cache configuration.
func NewNode(t Topology, c CacheConfig) *Node { return sim.NewNode(t, c) }

// Process is one simulated process (MPI rank); Thread one of its threads.
type (
	Process = sim.Process
	Thread  = sim.Thread
)

// NewProcess creates a process with a hardware-thread reservation and a
// process-wide placement policy (nil = first touch).
func NewProcess(n *Node, rank, asid, hwThreads int, p Policy) *Process {
	return sim.NewProcess(n, rank, asid, hwThreads, p)
}

// World is an MPI-lite communicator over several processes.
type World = sim.World

// NewWorld creates `ranks` processes block-distributed over nodes.
func NewWorld(nodes []*Node, ranks, threadsPerRank int, p Policy) *World {
	return sim.NewWorld(nodes, ranks, threadsPerRank, p)
}

// ---- PMU ----

// MarkedEvent selects a POWER7-style marked event.
type MarkedEvent = pmu.MarkedEvent

// The marked events the profiler can monitor.
const (
	MarkDataFromRMEM = pmu.MarkDataFromRMEM
	MarkDataFromLMEM = pmu.MarkDataFromLMEM
	MarkDataFromL3   = pmu.MarkDataFromL3
	MarkDataFromL2   = pmu.MarkDataFromL2
	MarkAllMem       = pmu.MarkAllMem
)

// ---- Profiler (the paper's contribution) ----

// Profiler is the online data-centric call-path profiler.
type Profiler = profiler.Profiler

// ProfilerConfig controls measurement and the overhead model.
type ProfilerConfig = profiler.Config

// DefaultProfilerConfig returns IBS sampling with the paper's allocation
// tracking strategy (4 KiB threshold + trampoline).
func DefaultProfilerConfig() ProfilerConfig { return profiler.DefaultConfig() }

// MarkedProfilerConfig returns marked-event sampling for the given event.
func MarkedProfilerConfig(e MarkedEvent, period uint64) ProfilerConfig {
	return profiler.MarkedConfig(e, period)
}

// Attach wraps a process with profiler instrumentation. Call before
// Process.Start or World.Run.
func Attach(p *Process, cfg ProfilerConfig) *Profiler { return profiler.Attach(p, cfg) }

// ---- Profiles and analysis ----

// Profile is one thread's measurement (one CCT per storage class).
type Profile = cct.Profile

// Database is the merged analysis result.
type Database = analysis.Database

// MergeStats reports load and merge observability (bytes read, node
// counts, per-stage wall times, peak staged-file residency, quarantined
// files).
type MergeStats = analysis.MergeStats

// ErrorPolicy selects how a measurement load treats unreadable files;
// QuarantinedFile records one file it could not (fully) use.
type (
	ErrorPolicy     = analysis.ErrorPolicy
	QuarantinedFile = analysis.QuarantinedFile
)

// The ingest error policies: abort on the first damaged file, skip damaged
// files (recording each), or additionally merge the intact class trees
// recoverable from them.
const (
	PolicyStrict     = analysis.PolicyStrict
	PolicyQuarantine = analysis.PolicyQuarantine
	PolicySalvage    = analysis.PolicySalvage
)

// LoadOptions configures LoadMeasurementsStreamingCtx.
type LoadOptions = analysis.LoadOptions

// Merge reduces per-thread profiles with the loader's reduction: workers
// (<= 0 uses GOMAXPROCS) fold them into private accumulators, joined
// pairwise. The inputs are consumed; use MergePreserving to merge the same
// profiles more than once.
func Merge(profiles []*Profile, workers int) *Database { return analysis.Merge(profiles, workers) }

// MergePreserving is Merge without input consumption.
func MergePreserving(profiles []*Profile, workers int) *Database {
	return analysis.MergePreserving(profiles, workers)
}

// LoadMeasurements reads and merges a measurement directory with `workers`
// decode-and-fold workers. It is strict: one unreadable file fails the
// load.
func LoadMeasurements(dir string, workers int) (*Database, error) {
	db, _, err := analysis.LoadDirStreamingCtx(context.Background(), dir, LoadOptions{Workers: workers})
	return db, err
}

// LoadMeasurementsStreamingCtx reads and merges a measurement directory —
// every file decoded straight into a worker's accumulator, no decoded
// profile ever held — with cancellation and a per-file error policy
// (strict, quarantine, salvage), returning the load's statistics alongside
// the database. Files skipped or partially recovered under a non-strict
// policy are listed in MergeStats.Quarantined.
func LoadMeasurementsStreamingCtx(ctx context.Context, dir string, opt LoadOptions) (*Database, MergeStats, error) {
	return analysis.LoadDirStreamingCtx(ctx, dir, opt)
}

// WriteMeasurements durably writes one checksummed profile file per thread
// into dir (write temp, fsync, rename), returning total bytes (the
// measurement's space overhead). A crash mid-write can leave *.tmp debris
// but never a corrupt file under a final profile name.
func WriteMeasurements(dir string, profiles []*Profile) (int64, error) {
	return profio.WriteDir(dir, profiles)
}

// ---- Telemetry ----

// Telemetry is a concurrency-safe registry of counters, gauges and
// histograms. Attach one via ProfilerConfig.Telemetry (profiler
// instruments) or LoadOptions.Telemetry (merge pipeline instruments); a
// nil registry disables instrumentation at one branch per site.
type Telemetry = telemetry.Registry

// TelemetrySnapshot is a point-in-time copy of a registry's instruments,
// JSON-marshalable and mergeable into another registry with Absorb.
type TelemetrySnapshot = telemetry.Snapshot

// NewTelemetry creates an empty registry.
func NewTelemetry() *Telemetry { return telemetry.New() }

// DefaultTelemetry returns the process-wide registry. The profile I/O
// layer always accounts here (names under "profio.").
func DefaultTelemetry() *Telemetry { return telemetry.Default() }

// SpanLog collects timestamped spans and renders them as a Chrome
// trace-event JSON document (chrome://tracing, ui.perfetto.dev). Attach
// one via LoadOptions.Spans to trace the ingest/merge pipeline.
type SpanLog = spanlog.Log

// NewSpanLog creates an empty span log.
func NewSpanLog() *SpanLog { return spanlog.New() }

// ---- Metrics ----

// Metric identifies a performance metric.
type Metric = metric.ID

// The metric set.
const (
	MetricSamples  = metric.Samples
	MetricLatency  = metric.Latency
	MetricFromL1   = metric.FromL1
	MetricFromL2   = metric.FromL2
	MetricFromL3   = metric.FromL3
	MetricFromLMEM = metric.FromLMEM
	MetricFromRMEM = metric.FromRMEM
	MetricFromRL3  = metric.FromRL3
	MetricTLBMiss  = metric.TLBMiss
	MetricStores   = metric.Stores
)

// ---- Views ----

// ViewOptions controls view rendering.
type ViewOptions = view.Options

// VarStat ranks one variable; AccessStat one access statement.
type (
	VarStat    = view.VarStat
	AccessStat = view.AccessStat
)

// RankVariables lists heap and static variables by a metric.
func RankVariables(p *Profile, m Metric) []VarStat { return view.RankVariables(p, m) }

// TopAccesses ranks the statements accessing a variable.
func TopAccesses(v *VarStat, m Metric, grandTotal uint64) []AccessStat {
	return view.TopAccesses(v.Node, m, grandTotal)
}

// MetricTotal sums a metric across all storage classes.
func MetricTotal(p *Profile, m Metric) uint64 { return view.MetricTotal(p, m) }

// RenderTopDown renders the top-down data-centric pane.
func RenderTopDown(p *Profile, o ViewOptions) string { return view.RenderTopDown(p, o) }

// RenderBottomUp renders the allocation-site bottom-up pane.
func RenderBottomUp(p *Profile, o ViewOptions) string { return view.RenderBottomUp(p, o) }

// RenderVariables renders the ranked-variable table.
func RenderVariables(p *Profile, o ViewOptions) string { return view.RenderVariables(p, o) }
