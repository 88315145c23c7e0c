// Package analysis is the post-mortem analyzer: it gathers the per-thread
// profiles of an execution and merges them — per storage class, across
// threads and MPI processes — into one compact database for presentation.
//
// Merging is structural CCT merge (heap variables coalesce by allocation
// call path, statics by symbol), executed as the Go analogue of the
// paper's MPI-based reduction-tree merge, in one shape whatever the input:
// W workers each fold their share of the inputs into a private
// accumulator, and a pairwise Tree.Absorb reduce joins the accumulators.
// Measurement files are decoded straight into those accumulators
// (load.go), so no decoded profile is ever held; profiles already in
// memory are folded into them by Merge and MergePreserving.
package analysis

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dcprof/internal/cct"
	"dcprof/internal/temporal"
)

// Database is the merged analysis result.
type Database struct {
	// Merged is the union of every thread's profile.
	Merged *cct.Profile
	// Ranks and Threads count the sources merged in.
	Ranks, Threads int
	// Event is the monitored-event description from the profiles.
	Event string
	// MeasurementBytes is the total size of the on-disk measurement data
	// when the database was loaded from files (0 when merged in memory).
	MeasurementBytes int64
	// Temporal indexes the per-thread time-series sidecars merged into
	// per-window partial profiles. Nil when no input profile carried a
	// sidecar (temporal profiling off, or pre-sidecar files) — the
	// cumulative views above are unaffected either way.
	Temporal *temporal.Index

	// What a load continuing from this database (LoadFilesStreamingCtx
	// with it as the base) starts from, beyond the fields above: the merge
	// identity, and the cumulative MergeStats fields Database does not
	// already hold.
	id          identity
	inputNodes  int
	quarantined []QuarantinedFile
}

// Merge reduces the profiles into a database using up to `workers`
// concurrent folders (workers <= 0 uses GOMAXPROCS).
//
// The input profiles are CONSUMED: their subtrees are adopted into the
// folders' accumulators wherever those have no matching context yet, so
// after Merge returns the inputs share nodes with the result and some
// carry other inputs' metrics. Callers that need to merge the same profiles again (experiment
// drivers rerunning an analysis without re-decoding) must use
// MergePreserving instead.
func Merge(profiles []*cct.Profile, workers int) *Database {
	return mergeSlice(profiles, workers, false)
}

// MergePreserving is Merge without input consumption: every input is
// copied into the accumulators, so the input profiles are left untouched
// and can be merged again.
func MergePreserving(profiles []*cct.Profile, workers int) *Database {
	return mergeSlice(profiles, workers, true)
}

// mergeSlice is the loader's reduction over profiles already in memory.
// One sequential pass in input order records the merge identity and folds
// every sidecar into the temporal index — before any tree is touched, as
// the index climbs node parent chains that Absorb re-links. Then up to
// `workers` folders claim profiles off a shared counter, each into its own
// accumulator (Tree.Merge when preserving, Tree.Absorb when consuming),
// and a pairwise Absorb joins the accumulators.
func mergeSlice(profiles []*cct.Profile, workers int, preserve bool) *Database {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var id identity
	tix := temporal.NewIndex()
	for _, p := range profiles {
		id.see(p.Rank, p.Thread, p.Event)
		// An in-memory merge has nowhere to report a rejected sidecar; the
		// index counts it as dropped.
		_ = tix.AddSeries(p)
	}

	accs := make([]*cct.Profile, max(1, min(workers, len(profiles))))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for i := range accs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := cct.NewProfile(0, 0, "")
			for j := int(next.Add(1)) - 1; j < len(profiles); j = int(next.Add(1)) - 1 {
				for c, t := range profiles[j].Trees {
					if preserve {
						acc.Trees[c].Merge(t)
					} else {
						acc.Trees[c].Absorb(t)
					}
				}
			}
			accs[i] = acc
		}()
	}
	wg.Wait()
	reducePairwise(accs)

	merged := accs[0]
	merged.Rank, merged.Thread, merged.Event = id.rank, id.thread, id.event
	db := &Database{Merged: merged, Ranks: len(id.ranks), Threads: len(profiles), Event: id.event, id: id}
	if tix.NumWindows() > 0 {
		db.Temporal = tix
	}
	return db
}
