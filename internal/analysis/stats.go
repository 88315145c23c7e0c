package analysis

import (
	"encoding/json"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"dcprof/internal/cct"
)

// MergeStats quantifies the scalability properties the paper claims for
// its measurement and analysis pipeline (§2.2, §4.2): profiles stay
// compact because CCTs coalesce identical contexts, and the reduction-tree
// merge parallelizes.
type MergeStats struct {
	// Inputs is the number of thread profiles merged.
	Inputs int
	// InputNodes sums CCT nodes across the inputs; MergedNodes counts the
	// merged result's nodes. Their ratio is the cross-thread coalescing
	// factor: threads executing the same code produce near-identical CCTs
	// that collapse into one.
	InputNodes, MergedNodes int
	// SequentialMerge and ParallelMerge are wall times for a 1-worker and
	// a GOMAXPROCS-worker reduction over (copies of) the same inputs.
	SequentialMerge, ParallelMerge time.Duration

	// Workers is the number of decode-and-fold workers the load ran: the
	// requested count, capped at the number of files to load.
	Workers int
	// BytesRead is the total size of the measurement files merged, as
	// read by the loader.
	BytesRead int64
	// DecodeWall and MergeWall are stage wall times, both measured from
	// the start: DecodeWall ends when the last file finished staging,
	// MergeWall when the merged database was assembled. The stages overlap
	// — every worker applies a file as soon as it has staged it.
	DecodeWall, MergeWall time.Duration
	// FoldWall and ReduceWall break MergeWall down: FoldWall (also from
	// the start) ends when the last worker has applied its last file,
	// ReduceWall is the duration of the final pairwise reduce of the
	// accumulators alone — the only barrier, a walk over Workers−1
	// accumulator trees.
	FoldWall, ReduceWall time.Duration
	// MaxResident is the peak number of files staged but not yet applied
	// — at most Workers, however many files the measurement holds; no
	// decoded profile is ever held.
	MaxResident int
	// DecodeFileP50/P95/P99 are per-file decode latency quantiles (open,
	// read, stage) from the loader's histogram — the tail a slow disk or one
	// pathological file produces, invisible in DecodeWall's total.
	DecodeFileP50, DecodeFileP95, DecodeFileP99 time.Duration

	// Quarantined lists the files skipped (or only partially recovered)
	// by a quarantine- or salvage-policy ingest, sorted by path. Empty
	// for strict merges, which abort instead.
	Quarantined []QuarantinedFile
}

// addBase makes one load's statistics cumulative over the database it
// continued from: the input counts, bytes and quarantine list then cover
// every file the result was built from. The walls, residency and decode
// quantiles stay this load's own.
func (s *MergeStats) addBase(base *Database) {
	s.Inputs += base.Threads
	s.InputNodes += base.inputNodes
	s.BytesRead += base.MeasurementBytes
	if len(base.quarantined) > 0 {
		s.Quarantined = slices.Concat(base.quarantined, s.Quarantined)
		slices.SortFunc(s.Quarantined, func(a, b QuarantinedFile) int { return strings.Compare(a.Path, b.Path) })
	}
}

// QuarantinedFile records one measurement file the ingest pipeline could
// not (fully) use, and why — the per-file accounting that makes a degraded
// Sequoia-scale merge auditable instead of silently lossy.
type QuarantinedFile struct {
	// Path is the full path of the damaged file.
	Path string
	// Reason is the first error the file produced (decode failure,
	// checksum mismatch, truncation, injected fault, worker panic, ...).
	Reason string
	// SalvagedTrees counts the complete, integrity-checked class trees
	// that were recoverable from the file. Under PolicySalvage they were
	// merged; under PolicyQuarantine they were discarded with the file.
	SalvagedTrees int
}

// StatsReport is the machine-readable rendering of MergeStats, with stable
// snake_case field names and stage walls in integer microseconds so
// downstream tooling never parses Go duration strings.
type StatsReport struct {
	Inputs           int                 `json:"inputs"`
	InputNodes       int                 `json:"input_nodes"`
	MergedNodes      int                 `json:"merged_nodes"`
	CoalescingFactor float64             `json:"coalescing_factor"`
	Workers          int                 `json:"workers"`
	BytesRead        int64               `json:"bytes_read"`
	DecodeWallUS     int64               `json:"decode_wall_us"`
	MergeWallUS      int64               `json:"merge_wall_us"`
	FoldWallUS       int64               `json:"fold_wall_us"`
	ReduceWallUS     int64               `json:"reduce_wall_us"`
	MaxResident      int                 `json:"max_resident"`
	DecodeFileP50US  int64               `json:"decode_file_p50_us"`
	DecodeFileP95US  int64               `json:"decode_file_p95_us"`
	DecodeFileP99US  int64               `json:"decode_file_p99_us"`
	Quarantined      []QuarantinedReport `json:"quarantined"`
}

// QuarantinedReport is the JSON form of one QuarantinedFile.
type QuarantinedReport struct {
	Path          string `json:"path"`
	Reason        string `json:"reason"`
	SalvagedTrees int    `json:"salvaged_trees"`
}

// Report converts the stats to their JSON form. Quarantined is always a
// (possibly empty) array, never null.
func (s MergeStats) Report() StatsReport {
	r := StatsReport{
		Inputs:           s.Inputs,
		InputNodes:       s.InputNodes,
		MergedNodes:      s.MergedNodes,
		CoalescingFactor: s.CoalescingFactor(),
		Workers:          s.Workers,
		BytesRead:        s.BytesRead,
		DecodeWallUS:     s.DecodeWall.Microseconds(),
		MergeWallUS:      s.MergeWall.Microseconds(),
		FoldWallUS:       s.FoldWall.Microseconds(),
		ReduceWallUS:     s.ReduceWall.Microseconds(),
		MaxResident:      s.MaxResident,
		DecodeFileP50US:  s.DecodeFileP50.Microseconds(),
		DecodeFileP95US:  s.DecodeFileP95.Microseconds(),
		DecodeFileP99US:  s.DecodeFileP99.Microseconds(),
		Quarantined:      make([]QuarantinedReport, 0, len(s.Quarantined)),
	}
	for _, q := range s.Quarantined {
		r.Quarantined = append(r.Quarantined, QuarantinedReport{
			Path: q.Path, Reason: q.Reason, SalvagedTrees: q.SalvagedTrees,
		})
	}
	return r
}

// MergeStats converts a parsed report back to its MergeStats form — the
// inverse of Report for every field the report carries. Round-tripping
// stats through Report / MergeStats / Report is lossless, which is what
// lets the JSON-surface tests prove schema and struct agree.
func (r StatsReport) MergeStats() MergeStats {
	s := MergeStats{
		Inputs:        r.Inputs,
		InputNodes:    r.InputNodes,
		MergedNodes:   r.MergedNodes,
		Workers:       r.Workers,
		BytesRead:     r.BytesRead,
		DecodeWall:    time.Duration(r.DecodeWallUS) * time.Microsecond,
		MergeWall:     time.Duration(r.MergeWallUS) * time.Microsecond,
		FoldWall:      time.Duration(r.FoldWallUS) * time.Microsecond,
		ReduceWall:    time.Duration(r.ReduceWallUS) * time.Microsecond,
		MaxResident:   r.MaxResident,
		DecodeFileP50: time.Duration(r.DecodeFileP50US) * time.Microsecond,
		DecodeFileP95: time.Duration(r.DecodeFileP95US) * time.Microsecond,
		DecodeFileP99: time.Duration(r.DecodeFileP99US) * time.Microsecond,
	}
	for _, q := range r.Quarantined {
		s.Quarantined = append(s.Quarantined, QuarantinedFile{
			Path: q.Path, Reason: q.Reason, SalvagedTrees: q.SalvagedTrees,
		})
	}
	return s
}

// WriteStatsReport renders the merge statistics as indented JSON — the
// single serialization behind both `dcview -stats -json` and the serving
// layer's /stats endpoint, so the two surfaces cannot drift.
func WriteStatsReport(w io.Writer, st MergeStats) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st.Report())
}

// CoalescingFactor returns InputNodes / MergedNodes (1.0 = no sharing).
func (s MergeStats) CoalescingFactor() float64 {
	if s.MergedNodes == 0 {
		return 0
	}
	return float64(s.InputNodes) / float64(s.MergedNodes)
}

// MeasureMerge clones the profiles twice and times a sequential and a
// parallel reduction over them, returning the statistics. The inputs are
// left untouched.
func MeasureMerge(profiles []*cct.Profile) MergeStats {
	st := MergeStats{Inputs: len(profiles)}
	for _, p := range profiles {
		st.InputNodes += p.NumNodes()
	}
	clone := func() []*cct.Profile {
		out := make([]*cct.Profile, len(profiles))
		var wg sync.WaitGroup
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for i, p := range profiles {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, p *cct.Profile) {
				defer wg.Done()
				out[i] = p.Clone()
				<-sem
			}(i, p)
		}
		wg.Wait()
		return out
	}

	seqIn := clone()
	t0 := time.Now()
	seqDB := Merge(seqIn, 1)
	st.SequentialMerge = time.Since(t0)
	st.MergedNodes = seqDB.Merged.NumNodes()

	parIn := clone()
	t1 := time.Now()
	Merge(parIn, 0)
	st.ParallelMerge = time.Since(t1)
	return st
}
