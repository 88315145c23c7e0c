// Loading measurement files: the paper's reduction tree, shared-nothing by
// worker. Each of W workers owns an accumulator profile and a
// profio.Decoder. A worker reads a file whole into the decoder's reused
// buffer, stages it (every integrity check, no tree touched), lets the
// error policy rule on the staged verdict, and only then applies the
// staged columns into its accumulator — so a node is allocated only when a
// calling context is new to that worker, no per-file tree ever exists, and
// a rejected file contributes nothing by construction. When the files are
// exhausted the W accumulators are joined pairwise with Tree.Absorb.
//
// The loader is also the system's fault boundary. At the scale the paper
// targets (one file per thread per rank) killed ranks, full filesystems,
// and torn writes are routine, so ingestion supports three error
// policies: fail fast (PolicyStrict), skip-and-report (PolicyQuarantine),
// and partial recovery of the intact class trees of damaged files
// (PolicySalvage). A context cancels the whole load promptly, and a panic
// while reading or decoding a file becomes a per-file quarantine record
// instead of a crashed analyzer.

package analysis

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/profio"
	"dcprof/internal/telemetry"
	"dcprof/internal/telemetry/spanlog"
	"dcprof/internal/temporal"
)

// ErrorPolicy selects how ingestion reacts to unreadable profile files.
type ErrorPolicy int

const (
	// PolicyStrict aborts the merge on the first unreadable file — the
	// right default when a measurement is expected to be complete.
	PolicyStrict ErrorPolicy = iota
	// PolicyQuarantine skips unreadable files entirely, records each one
	// in MergeStats.Quarantined (path, reason, salvageable-tree count),
	// and merges the rest. The result is exactly the merge of the intact
	// files.
	PolicyQuarantine
	// PolicySalvage is PolicyQuarantine plus partial recovery: complete,
	// checksum-valid class trees recovered from damaged files are folded
	// into the merge as well. Damaged files still appear in Quarantined.
	PolicySalvage
)

// String names the policy as the dcview flags spell it.
func (p ErrorPolicy) String() string {
	switch p {
	case PolicyStrict:
		return "strict"
	case PolicyQuarantine:
		return "quarantine"
	case PolicySalvage:
		return "salvage"
	default:
		return fmt.Sprintf("ErrorPolicy(%d)", int(p))
	}
}

// LoadOptions configures LoadDirStreamingCtx.
type LoadOptions struct {
	// Workers is the number of decode-and-fold workers, each with its own
	// accumulator (<= 0 uses GOMAXPROCS).
	Workers int
	// Shards is ignored. It tuned the fold-shard count of the pipeline
	// that materialised every file as trees; file loads have no such stage
	// any more, and the merged result never depended on it.
	Shards int
	// Policy selects strict, quarantine, or salvage error handling.
	Policy ErrorPolicy
	// Open overrides how profile files are opened (nil uses
	// profio.OpenFile, which opens a regular file without the runtime
	// poller) — the seam the fault-injection test suite hooks to script
	// read errors, slow media, and decoder panics.
	Open func(path string) (io.ReadCloser, error)
	// Telemetry, when non-nil, receives the load's instrument totals
	// (names under "analysis.") absorbed once at completion. The load
	// itself always accounts into a private registry — the same registry
	// MergeStats is a view over — so sharing a process-wide registry here
	// never skews a later load's statistics.
	Telemetry *telemetry.Registry
	// Spans, when non-nil, receives Chrome trace-event spans for the
	// load: one span per file decode and one per worker's fold (on the
	// worker's row), the reduce, and the whole-merge span, plus instant
	// markers for quarantine decisions.
	Spans *spanlog.Log
}

// EffectiveWorkers resolves the worker count this option set would
// actually run with — the number observability surfaces report.
func (o LoadOptions) EffectiveWorkers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Instrument names a load accounts under. Residency is a gauge with a
// tracked maximum; the walls and the merged node count are gauges set
// once; the rest are counters. MergeStats is a view over these — there is
// no second bookkeeping path.
const (
	instProfilesMerged  = "analysis.profiles.merged"
	instNodesInput      = "analysis.nodes.input"
	instNodesMerged     = "analysis.nodes.merged"
	instBytesRead       = "analysis.bytes.read"
	instResidency       = "analysis.pipeline.residency"
	instQuarFiles       = "analysis.quarantine.files"
	instQuarSalvaged    = "analysis.quarantine.salvaged_trees"
	instFilesDiscovered = "analysis.files.discovered"
	instDecodeLatencyUS = "analysis.decode.file_latency_us"
	instDecodeWallUS    = "analysis.wall.decode_us"
	instMergeWallUS     = "analysis.wall.merge_us"
	instFoldWallUS      = "analysis.wall.fold_us"
	instReduceWallUS    = "analysis.wall.reduce_us"
	instTemporalSeries  = "analysis.temporal.series"
	instTemporalDropped = "analysis.temporal.dropped"
)

// quarantineLog accumulates per-file failure records across the workers.
// Entries are deduplicated by path (one file can fail in more than one
// way) and reported sorted for determinism.
type quarantineLog struct {
	mu     sync.Mutex
	byPath map[string]*QuarantinedFile
}

func newQuarantineLog() *quarantineLog {
	return &quarantineLog{byPath: map[string]*QuarantinedFile{}}
}

func (q *quarantineLog) add(path, reason string, salvaged int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if rec, ok := q.byPath[path]; ok {
		rec.Reason += "; " + reason
		return
	}
	q.byPath[path] = &QuarantinedFile{Path: path, Reason: reason, SalvagedTrees: salvaged}
}

func (q *quarantineLog) sorted() []QuarantinedFile {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]QuarantinedFile, 0, len(q.byPath))
	for _, rec := range q.byPath {
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// statsView assembles MergeStats by reading the per-load registry — the
// struct is presentation, the registry is the single source of truth.
func statsView(reg *telemetry.Registry, workers int, quarantined []QuarantinedFile) MergeStats {
	s := reg.Snapshot()
	dh := s.Histograms[instDecodeLatencyUS]
	return MergeStats{
		Workers:       workers,
		Inputs:        int(s.Counters[instProfilesMerged]),
		InputNodes:    int(s.Counters[instNodesInput]),
		MergedNodes:   int(s.Gauges[instNodesMerged].Value),
		BytesRead:     int64(s.Counters[instBytesRead]),
		DecodeWall:    time.Duration(s.Gauges[instDecodeWallUS].Value) * time.Microsecond,
		MergeWall:     time.Duration(s.Gauges[instMergeWallUS].Value) * time.Microsecond,
		FoldWall:      time.Duration(s.Gauges[instFoldWallUS].Value) * time.Microsecond,
		ReduceWall:    time.Duration(s.Gauges[instReduceWallUS].Value) * time.Microsecond,
		MaxResident:   int(s.Gauges[instResidency].Max),
		DecodeFileP50: time.Duration(dh.P50) * time.Microsecond,
		DecodeFileP95: time.Duration(dh.P95) * time.Microsecond,
		DecodeFileP99: time.Duration(dh.P99) * time.Microsecond,
		Quarantined:   quarantined,
	}
}

// LoadDirStreamingCtx reads and merges a measurement directory with
// `workers` decode-and-fold workers sharing one string-interning cache.
// No decoded profile is ever held: at most one staged file per worker is
// resident — MergeStats.MaxResident records the observed peak — so
// directory size does not bound memory.
//
// Failure handling follows opt.Policy: strict aborts on the first
// unreadable file; quarantine and salvage record bad files in
// MergeStats.Quarantined and keep going (salvage additionally folds in the
// intact class trees recovered from damaged files). Cancelling ctx stops
// the load promptly and returns the context's error. A panic while reading
// or decoding a file is treated as that file being unreadable.
func LoadDirStreamingCtx(ctx context.Context, dir string, opt LoadOptions) (*Database, MergeStats, error) {
	files, err := profio.Files(dir)
	if err != nil {
		return nil, MergeStats{}, fmt.Errorf("analysis: %w", err)
	}
	if len(files) == 0 {
		return nil, MergeStats{}, fmt.Errorf("analysis: no profiles in %s", dir)
	}
	return LoadFilesStreamingCtx(ctx, dir, nil, files, opt)
}

// load is the state the workers of one LoadFilesStreamingCtx call share.
type load struct {
	ctx    context.Context
	files  []string
	next   atomic.Int64 // index of the next file to claim
	policy ErrorPolicy
	open   func(path string) (io.ReadCloser, error)
	spans  *spanlog.Log
	res    *telemetry.Gauge
	decLat *telemetry.Histogram
	quar   *quarantineLog

	// tix is the one temporal index of the load. Sidecars are rare next to
	// trees and folding one is short, so the workers take turns.
	tixMu sync.Mutex
	tix   *temporal.Index

	// first is the strict-mode failure that aborted the load.
	failed atomic.Bool
	errMu  sync.Mutex
	first  error
}

func (l *load) fail(err error) {
	l.errMu.Lock()
	if l.first == nil {
		l.first = err
	}
	l.errMu.Unlock()
	l.failed.Store(true)
}

// loadWorker is one reducer: an accumulator, the decoder that feeds it,
// and the tallies of what it merged.
type loadWorker struct {
	l   *load
	tid int
	acc *cct.Profile
	dec *profio.Decoder
	src ctxReader
	hdr cct.Profile // identity + sidecar of the file being folded, for the index

	seen       identity
	inputs     int
	inputNodes int
	bytes      int64
	lastStaged time.Time
}

// ctxReader fails once the context is done, so a cancelled load stops
// between two reads of a file instead of after the file.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// run claims files until they run out, the load is cancelled, or strict
// mode has failed.
func (w *loadWorker) run() {
	l := w.l
	defer l.spans.Span(fmt.Sprintf("fold worker[%d]", w.tid), "merge", 0, w.tid, nil)()
	for {
		i := int(l.next.Add(1)) - 1
		if i >= len(l.files) || l.ctx.Err() != nil || l.failed.Load() {
			return
		}
		path := l.files[i]
		merged, err := w.ingest(path)
		switch {
		case l.ctx.Err() != nil:
			return
		case err != nil && l.policy == PolicyStrict:
			// Full path, not the basename: multi-directory merges must be
			// diagnosable from the error alone.
			l.fail(fmt.Errorf("analysis: %s: %w", path, err))
			return
		case err != nil:
			l.quar.add(path, err.Error(), 0)
		}
		if !merged && l.spans != nil {
			l.spans.Instant("quarantine "+filepath.Base(path), "ingest", 0, w.tid, nil)
		}
	}
}

// ingest stages one file, lets the policy rule on the verdict, and applies
// what the policy admits. It reports whether the file joined the merge;
// the error is a file that produced nothing usable. A panic anywhere in
// here — the opener, the reader, the decoder — is contained and treated
// exactly like a decode error, so one poisoned file cannot take down the
// analyzer.
func (w *loadWorker) ingest(path string) (merged bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			merged, err = false, fmt.Errorf("panic decoding profile: %v", r)
		}
	}()
	l := w.l
	t0 := time.Now()
	st, err := w.stage(path)
	w.lastStaged = time.Now()
	took := w.lastStaged.Sub(t0)
	l.decLat.Observe(uint64(took.Microseconds()))
	if l.spans != nil {
		l.spans.Complete("decode "+filepath.Base(path), "ingest", 0, w.tid, t0, took, nil)
	}
	if err != nil {
		return false, err
	}
	if !st.Intact() {
		if l.policy == PolicyStrict {
			return false, st.Errs[0]
		}
		l.quar.add(path, st.Errs[0].Error(), st.Trees)
		// Sidecar-only damage — every class tree recovered, only the
		// optional temporal section corrupt — keeps the file in the merge
		// (windowless) under quarantine too; the quarantine record still
		// documents the loss. Anything else follows the policy: quarantine
		// skips the file, salvage folds what's left.
		if !st.SidecarOnly && (l.policy == PolicyQuarantine || st.Trees == 0) {
			return false, nil
		}
	}

	l.res.Add(1)
	ts := w.dec.Apply(w.acc)
	if ts != nil {
		// The index resolves each delta by climbing its node's parent
		// chain, which in this worker's accumulator only this worker
		// touches; it keeps no node reference afterwards.
		w.hdr = cct.Profile{Rank: st.Rank, Thread: st.Thread, Event: st.Event, Temporal: ts}
		l.tixMu.Lock()
		terr := l.tix.AddSeries(&w.hdr)
		l.tixMu.Unlock()
		if terr != nil {
			l.quar.add(path, fmt.Sprintf("temporal sidecar dropped: %v", terr), 0)
		}
	}
	l.res.Add(-1)
	w.seen.see(st.Rank, st.Thread, st.Event)
	w.inputs++
	w.inputNodes += st.NodesRead
	w.bytes += st.Bytes
	return true, nil
}

// openProfile is LoadOptions.Open's default.
func openProfile(path string) (io.ReadCloser, error) {
	f, err := profio.OpenFile(path)
	if err != nil {
		return nil, err // a nil interface, not a nil *os.File in one
	}
	return f, nil
}

// stage opens path and stages its image in the worker's decoder.
func (w *loadWorker) stage(path string) (*profio.Staged, error) {
	f, err := w.l.open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w.src.r = f
	return w.dec.Stage(&w.src)
}

// LoadFilesStreamingCtx is the merge-by-handle entry point: it runs the
// same load as LoadDirStreamingCtx over an explicit list of profile file
// paths instead of a directory scan. Callers that already know exactly
// which files constitute a dataset — the profiling service merging the
// snapshot of a collection pinned at a content generation — use this so a
// file landing mid-merge can never leak into the result. label names the
// dataset in spans and error messages.
//
// base, when not nil, is a database an earlier load returned: the files
// are folded on top of it, and the result is the database a load of the
// base's files plus these would have produced. The merge is associative
// and commutative, so an earlier load's result is a valid partial sum to
// continue from. The call takes ownership of base: worker 0 folds straight
// into base.Merged, and the result's Merged is that same tree, so nothing
// proportional to the base is copied. The caller must own base — no other
// goroutine may read its tree once the call starts — and must treat it as
// consumed whether the call succeeds or fails: a failed or cancelled load
// leaves the tree partly folded. A caller whose readers still need the base
// passes a copy. The temporal index is the exception: the load folds into a
// clone of base.Temporal, so base.Temporal stays as it was and readers of
// it are undisturbed. The returned MergeStats are then cumulative in
// Inputs, InputNodes, BytesRead, MergedNodes and Quarantined; the walls,
// residency and decode quantiles describe this call alone, as does what
// it publishes to LoadOptions.Telemetry.
func LoadFilesStreamingCtx(ctx context.Context, label string, base *Database, files []string, opt LoadOptions) (*Database, MergeStats, error) {
	// The workers that run: never more than there are files to claim.
	workers := max(1, min(opt.EffectiveWorkers(), len(files)))
	reg := telemetry.New()
	if opt.Telemetry != nil {
		// Publish the private per-load accounting into the caller's
		// registry whichever way the load ends.
		defer func() { opt.Telemetry.Absorb(reg.Snapshot()) }()
	}
	spans := opt.Spans
	defer spans.Span("load "+label, "ingest", 0, 0, map[string]any{"workers": workers})()

	if len(files) == 0 && base == nil {
		return nil, MergeStats{}, fmt.Errorf("analysis: no profiles in %s", label)
	}
	reg.Counter(instFilesDiscovered).Add(uint64(len(files)))

	tix := temporal.NewIndex()
	if base != nil && base.Temporal != nil {
		tix = base.Temporal.Clone()
	}
	series0, dropped0 := tix.Series, tix.Dropped
	l := &load{
		ctx:    ctx,
		files:  files,
		policy: opt.Policy,
		open:   opt.Open,
		spans:  spans,
		res:    reg.Gauge(instResidency),
		// Per-file decode latency distribution: pow-2 µs buckets up to ~4s,
		// same shape as the server's HTTP latency histograms. Its quantiles
		// surface in MergeStats/StatsReport — one slow file in a thousand
		// is a p99 signal, invisible in the decode wall total.
		decLat: reg.Histogram(instDecodeLatencyUS, telemetry.Pow2Bounds(22)),
		quar:   newQuarantineLog(),
		tix:    tix,
	}
	if l.open == nil {
		l.open = openProfile
	}

	start := time.Now()
	intern := profio.NewIntern()
	ws := make([]*loadWorker, workers)
	var wg sync.WaitGroup
	for i := range ws {
		w := &loadWorker{
			l:   l,
			tid: i + 1,
			dec: profio.NewDecoder(intern),
			src: ctxReader{ctx: ctx},
		}
		ws[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i == 0 && base != nil {
				w.acc = base.Merged
			} else {
				w.acc = cct.NewProfile(0, 0, "")
			}
			w.run()
		}()
	}
	wg.Wait()
	foldWall := time.Since(start)

	// The reduction tree: join the workers' accumulators pairwise. They
	// overlap wherever threads shared calling contexts, so this is a tree
	// walk over W-1 accumulators, not W×files trees.
	reduceStart := time.Now()
	reduceDone := spans.Span("reduce accumulators", "merge", 0, 0, map[string]any{"workers": workers})
	accs := make([]*cct.Profile, workers)
	for i, w := range ws {
		accs[i] = w.acc
	}
	reducePairwise(accs)
	reduceDone()
	reduceWall := time.Since(reduceStart)

	var (
		seen       identity
		decodeWall time.Duration
	)
	if base != nil {
		seen.absorb(&base.id)
	}
	for _, w := range ws {
		seen.absorb(&w.seen)
		reg.Counter(instProfilesMerged).Add(uint64(w.inputs))
		reg.Counter(instNodesInput).Add(uint64(w.inputNodes))
		reg.Counter(instBytesRead).Add(uint64(w.bytes))
		if d := w.lastStaged.Sub(start); d > decodeWall {
			decodeWall = d
		}
	}
	merged := ws[0].acc
	merged.Rank, merged.Thread, merged.Event = seen.rank, seen.thread, seen.event
	mergeWall := time.Since(start)
	spans.Complete("merge pipeline", "merge", 0, 0, start, mergeWall, map[string]any{"workers": workers})

	// Publish the remaining roll-ups, then build MergeStats as a pure view
	// over the registry — this call's work — made cumulative over the base.
	reg.Gauge(instNodesMerged).Set(int64(merged.NumNodes()))
	reg.Gauge(instDecodeWallUS).Set(decodeWall.Microseconds())
	reg.Gauge(instMergeWallUS).Set(mergeWall.Microseconds())
	reg.Gauge(instFoldWallUS).Set(foldWall.Microseconds())
	reg.Gauge(instReduceWallUS).Set(reduceWall.Microseconds())
	quarantined := l.quar.sorted()
	salvaged := 0
	for _, q := range quarantined {
		salvaged += q.SalvagedTrees
	}
	reg.Counter(instQuarFiles).Add(uint64(len(quarantined)))
	reg.Counter(instQuarSalvaged).Add(uint64(salvaged))
	reg.Counter(instTemporalSeries).Add(uint64(tix.Series - series0))
	reg.Counter(instTemporalDropped).Add(uint64(tix.Dropped - dropped0))
	st := statsView(reg, workers, quarantined)
	if base != nil {
		st.addBase(base)
	}

	if err := ctx.Err(); err != nil {
		return nil, st, fmt.Errorf("analysis: %w", err)
	}
	if l.failed.Load() {
		return nil, st, l.first
	}
	if st.Inputs == 0 {
		return nil, st, fmt.Errorf("analysis: no readable profiles in %s (%d quarantined)", label, len(st.Quarantined))
	}
	db := &Database{
		Merged: merged, Ranks: len(seen.ranks), Threads: st.Inputs, Event: seen.event,
		MeasurementBytes: st.BytesRead,
		id:               seen, inputNodes: st.InputNodes, quarantined: st.Quarantined,
	}
	if tix.NumWindows() > 0 {
		db.Temporal = tix
	}
	emitPhaseSpans(spans, db.Temporal)
	return db, st, nil
}

// reducePairwise joins the accumulators into accs[0] in parallel rounds:
// each round absorbs the upper half into the lower half, pair by pair, so
// the depth is log2(n) — the shape of the paper's reduction tree.
func reducePairwise(accs []*cct.Profile) {
	for n := len(accs); n > 1; n = (n + 1) / 2 {
		half := (n + 1) / 2
		var wg sync.WaitGroup
		for i := 0; i+half < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for c, t := range accs[i+half].Trees {
					accs[i].Trees[c].Absorb(t)
				}
			}()
		}
		wg.Wait()
	}
}

// identity tracks which sources a merge has seen: the set of ranks, and
// the lowest (rank, thread) with its event — the merged profile's identity,
// chosen so it does not depend on arrival order.
type identity struct {
	ranks        map[int]struct{}
	rank, thread int
	event        string
}

func (id *identity) see(rank, thread int, event string) {
	if id.ranks == nil {
		id.ranks = map[int]struct{}{}
	}
	first := len(id.ranks) == 0
	id.ranks[rank] = struct{}{}
	if first || rank < id.rank || (rank == id.rank && thread < id.thread) {
		id.rank, id.thread, id.event = rank, thread, event
	}
}

// absorb folds another merge's sightings into id.
func (id *identity) absorb(o *identity) {
	if len(o.ranks) == 0 {
		return
	}
	id.see(o.rank, o.thread, o.event)
	for r := range o.ranks {
		id.ranks[r] = struct{}{}
	}
}
