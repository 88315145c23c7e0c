// Package analysis is the post-mortem analyzer: it gathers the per-thread
// profiles of an execution and merges them — per storage class, across
// threads and MPI processes — into one compact database for presentation.
//
// Merging is structural CCT merge (heap variables coalesce by allocation
// call path, statics by symbol), executed as the Go analogue of the
// paper's MPI-based reduction-tree merge: measurement files are decoded
// straight into per-worker accumulators that a pairwise reduce joins
// (load.go), profiles already in memory are folded by a channel-fed
// engine (stream.go). Either way neither wall-clock nor memory grows with
// the number of profiles held resident at once.
package analysis

import (
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
// concurrent folders (workers <= 0 uses GOMAXPROCS); it is a thin wrapper
// over the in-memory engine in stream.go.
//
// The input profiles are CONSUMED: each folder adopts the first tree it
// receives as its accumulator and mutates it in place, so after Merge
// returns some inputs carry other inputs' metrics. Callers that need to
// merge the same profiles again (experiment drivers rerunning an analysis
// without re-decoding) must use MergePreserving instead.
func Merge(profiles []*cct.Profile, workers int) *Database {
	db, _ := mergeSlice(profiles, workers, false)
	return db
}

// MergePreserving is Merge without input consumption: accumulators start
// from fresh empty trees (copy-on-first-merge), so the input profiles are
// left untouched and can be merged again.
func MergePreserving(profiles []*cct.Profile, workers int) *Database {
	db, _ := mergeSlice(profiles, workers, true)
	return db
}

// LoadDir reads and merges a measurement directory written by
// profio.WriteDir, discarding the statistics.
func LoadDir(dir string, workers int) (*Database, error) {
	db, _, err := LoadDirStreaming(dir, workers)
	return db, err
}
