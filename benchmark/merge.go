package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dcprof/internal/analysis"
	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/view"
)

// viewOptions are the defaults dcview's flags and dcprofd's query
// parameters share.
func viewOptions(event string) view.Options {
	return view.Options{
		Metric:   metric.Default(event),
		MaxRows:  view.DefaultMaxRows,
		MaxDepth: view.DefaultMaxDepth,
		MinShare: view.DefaultMinShare,
	}
}

// fullOptions render the whole tree (`dcview -min 0 -depth 0 -rows 0`).
// The dense corpus spreads its samples evenly, so the default 0.5% share
// cut-off hides every node: a render that is to be compared with an
// expectation has to be the full one.
func fullOptions(event string) view.Options {
	return view.Options{Metric: metric.Default(event)}
}

// mergeInst is the merge_10k workload: what `dcview -d DIR` does to a
// measurement directory of many small thread files.
type mergeInst struct {
	seed           int64
	dir            string
	files, samples int
	bytes          int64

	topdownSums [][sha256.Size]byte // one per repetition, checked in verify

	last      *analysis.Database
	lastStats analysis.MergeStats
	loads     []time.Duration
	renders   [3][]time.Duration // top-down, bottom-up, variables
	loadAlloc uint64             // bytes allocated by the last load
}

func setupMerge(e *env) (instance, error) {
	m := &mergeInst{seed: e.seed, dir: filepath.Join(e.dir, "measurements"), files: e.sz.mergeFiles, samples: e.sz.mergeSamples}
	// Generate and write in slices, so that set-up never holds all ten
	// thousand profiles at once, on every processor: set-up is
	// processor-bound and there is no reason to leave one idle.
	const slice = 250
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		next     atomic.Int64
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				first := int(next.Add(slice)) - slice
				if first >= m.files {
					return
				}
				n, err := writePlain(m.dir, denseProfiles(e.seed, first, min(slice, m.files-first), m.samples))
				mu.Lock()
				m.bytes += n
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return m, nil
}

func (m *mergeInst) rep(tr *tracer) (repResult, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.begin(0, layerHarness, "merge.rep", 0)
	t0 := time.Now()
	s := tr.begin(root, layerAnalysis, "analysis.LoadDirStreamingCtx", 0)
	db, st, err := analysis.LoadDirStreamingCtx(context.Background(), m.dir, analysis.LoadOptions{})
	tr.end(s)
	t1 := time.Now()
	if err != nil {
		tr.end(root)
		return repResult{}, err
	}
	o := fullOptions(db.Event)
	s = tr.begin(root, layerView, "view.RenderTopDown", 0)
	td := view.RenderTopDown(db.Merged, o)
	tr.end(s)
	t2 := time.Now()
	s = tr.begin(root, layerView, "view.RenderBottomUp", 0)
	bu := view.RenderBottomUp(db.Merged, o)
	tr.end(s)
	t3 := time.Now()
	s = tr.begin(root, layerView, "view.RenderVariables", 0)
	vars := view.RenderVariables(db.Merged, o)
	tr.end(s)
	t4 := time.Now()
	tr.end(root)
	runtime.ReadMemStats(&ms1)

	m.last, m.lastStats = db, st
	m.loadAlloc = ms1.TotalAlloc - ms0.TotalAlloc
	m.loads = append(m.loads, t1.Sub(t0))
	m.renders[0] = append(m.renders[0], t2.Sub(t1))
	m.renders[1] = append(m.renders[1], t3.Sub(t2))
	m.renders[2] = append(m.renders[2], t4.Sub(t3))
	m.topdownSums = append(m.topdownSums, sha256.Sum256([]byte(td)))

	r := repResult{
		wall:        t4.Sub(t0),
		units:       m.files,
		ops:         []time.Duration{t4.Sub(t0)},
		outputBytes: int64(len(td) + len(bu) + len(vars)),
		attempted:   1,
	}
	if st.Inputs != m.files || len(st.Quarantined) != 0 {
		fmt.Fprintf(os.Stderr, "merge_10k: merged %d of %d files, %d quarantined\n", st.Inputs, m.files, len(st.Quarantined))
		r.failed++
	}
	return r, nil
}

// verify renders the top-down view of a single-worker in-memory merge of
// the same profiles, generated afresh — a path that touches neither the
// files nor the decoder nor the sharded fold — and compares every
// repetition's render with it.
func (m *mergeInst) verify() (int, int, error) {
	ref := analysis.Merge(denseProfiles(m.seed, 0, m.files, m.samples), 1)
	want := sha256.Sum256([]byte(view.RenderTopDown(ref.Merged, fullOptions(ref.Event))))
	failed := 0
	for i, got := range m.topdownSums {
		if got != want {
			fmt.Fprintf(os.Stderr, "merge_10k: repetition %d rendered a top-down view that differs from the in-memory merge\n", i)
			failed++
		}
	}
	n := len(m.topdownSums)
	m.topdownSums = nil
	return n, failed, nil
}

func (m *mergeInst) close() error { return os.RemoveAll(filepath.Dir(m.dir)) }

func (m *mergeInst) layers(lc *layerCtx) error {
	out := lc.m
	paths, err := profio.Files(m.dir)
	if err != nil {
		return err
	}
	n := len(paths)
	load := median(seconds(m.loads))

	out["analysis.stats_decode_ms"] = float64(m.lastStats.DecodeWall) / float64(time.Millisecond)
	out["analysis.stats_fold_ms"] = float64(m.lastStats.FoldWall) / float64(time.Millisecond)
	out["analysis.stats_reduce_ms"] = float64(m.lastStats.ReduceWall) / float64(time.Millisecond)
	out["analysis.peak_resident_profiles"] = float64(m.lastStats.MaxResident)
	out["analysis.alloc_mb_per_kprofile"] = float64(m.loadAlloc) / (1 << 20) / (float64(n) / 1000)
	out["view.topdown_text_ms"] = 1e3 * median(seconds(m.renders[0]))
	out["view.variables_text_ms"] = 1e3 * median(seconds(m.renders[2]))

	// Decode, one file after the other, the way a single pipeline worker
	// does: read the file, decode it against a shared string table.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	in := profio.NewIntern()
	raw := make([][]byte, n)
	decoded := make([]*cct.Profile, n)
	t0 := time.Now()
	for i, p := range paths {
		if raw[i], err = os.ReadFile(p); err != nil {
			return err
		}
		if decoded[i], err = profio.ReadProfileInterned(bytes.NewReader(raw[i]), in); err != nil {
			return fmt.Errorf("decode %s: %w", p, err)
		}
	}
	decodeS := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	out["profio.decode_profiles_per_s"] = float64(n) / decodeS
	out["profio.decode_mb_per_s"] = float64(m.bytes) / (1 << 20) / decodeS
	out["profio.decode_alloc_kb_per_profile"] = float64(ms1.TotalAlloc-ms0.TotalAlloc-uint64(m.bytes)) / 1024 / float64(n)

	t0 = time.Now()
	for i, b := range raw {
		if _, err := profio.ValidateProfile(bytes.NewReader(b)); err != nil {
			return fmt.Errorf("validate %s: %w", paths[i], err)
		}
	}
	out["profio.validate_profiles_per_s"] = float64(n) / time.Since(t0).Seconds()
	raw = nil

	// The rest work on fifths of the corpus: each is long enough to time
	// and the traced run stays short.
	fifth := n / 5
	t0 = time.Now()
	for _, p := range paths[:fifth] {
		if _, _, err := profio.ReadFileParallel(p, in, 4); err != nil {
			return fmt.Errorf("parallel decode %s: %w", p, err)
		}
	}
	out["profio.decode_parallel_profiles_per_s"] = float64(fifth) / time.Since(t0).Seconds()

	durable := filepath.Join(filepath.Dir(m.dir), "durable")
	t0 = time.Now()
	if _, err := profio.WriteDir(durable, decoded[:fifth/4]); err != nil {
		return err
	}
	out["profio.writedir_files_per_s"] = float64(fifth/4) / time.Since(t0).Seconds()
	if err := os.RemoveAll(durable); err != nil {
		return err
	}

	// Tree.Merge copies from its argument; Tree.Absorb consumes it.
	nodes := func(ps []*cct.Profile) (total int) {
		for _, p := range ps {
			total += p.NumNodes()
		}
		return total
	}
	acc := cct.NewProfile(0, 0, "")
	mergeSet := decoded[:fifth]
	mergeNodes := nodes(mergeSet)
	t0 = time.Now()
	for _, p := range mergeSet {
		for c, t := range p.Trees {
			acc.Trees[c].Merge(t)
		}
	}
	out["cct.merge_nodes_per_s"] = float64(mergeNodes) / time.Since(t0).Seconds()
	acc = cct.NewProfile(0, 0, "")
	absorbSet := decoded[fifth : 2*fifth]
	absorbNodes := nodes(absorbSet)
	t0 = time.Now()
	for _, p := range absorbSet {
		for c, t := range p.Trees {
			acc.Trees[c].Absorb(t)
		}
	}
	out["cct.absorb_nodes_per_s"] = float64(absorbNodes) / time.Since(t0).Seconds()

	// The fold alone: analysis.Merge over profiles already decoded.
	foldSet := decoded[2*fifth:]
	t0 = time.Now()
	analysis.Merge(foldSet, 0)
	foldS := time.Since(t0).Seconds() * float64(n) / float64(len(foldSet))
	out["analysis.fold_profiles_per_s"] = float64(n) / foldS

	// One worker, one shard: the plain single-threaded load the sharded
	// default has to beat.
	t0 = time.Now()
	if _, _, err := analysis.LoadDirStreamingCtx(context.Background(), m.dir, analysis.LoadOptions{Workers: 1, Shards: 1}); err != nil {
		return err
	}
	w1 := time.Since(t0).Seconds()
	out["analysis.load_w1_profiles_per_s"] = float64(n) / w1
	out["analysis.parallel_speedup"] = w1 / load

	// Decode, fold and render run back to back, over the pipelined wall:
	// what overlapping the stages buys.
	renderS := median(seconds(m.renders[0])) + median(seconds(m.renders[1])) + median(seconds(m.renders[2]))
	out["analysis.stage_sum_over_wall"] = (decodeS + foldS + renderS) / (load + renderS)
	return nil
}
