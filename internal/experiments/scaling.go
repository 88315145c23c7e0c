package experiments

import (
	"context"
	"fmt"
	"os"

	"dcprof/internal/analysis"
	"dcprof/internal/apps/streamcluster"
	"dcprof/internal/cct"
	"dcprof/internal/machine"
	"dcprof/internal/pmu"
	"dcprof/internal/profiler"
	"dcprof/internal/profio"
)

// loadWorkers fixes the file loader's worker count so the load and
// residency columns are comparable across rows and machines.
const loadWorkers = 4

// scaling quantifies the paper's §2.2 scalability claims directly: as the
// thread count grows, per-thread profiles stay compact (size tracks
// distinct calling contexts, not execution volume), merged databases stay
// near single-thread size (cross-thread CCT coalescing), the
// reduction-tree merge parallelizes, and the file loader holds only a
// bounded number of decoded profiles resident no matter how many files the
// measurement has.
func scaling(ctx *Context, s Scale) *Table {
	t := &Table{ID: "scaling", Title: "measurement and analysis scalability vs thread count",
		Header: []string{"threads", "profile bytes/thread", "input CCT nodes", "merged nodes",
			"coalescing", "merge seq", "merge par", fmt.Sprintf("load from files (%d workers)", loadWorkers), "peak resident"}}

	counts := []int{8, 32, 128}
	if s == Quick {
		counts = []int{2, 4}
	}
	for _, threads := range counts {
		cfg := streamcluster.DefaultConfig()
		cfg.Topo = machine.Power7Node()
		cfg.Threads = threads
		cfg.Points = 4096
		cfg.Dim = 16
		cfg.Iters = 1
		if s == Quick {
			cfg = streamcluster.TestConfig()
			cfg.Threads = threads
		}
		pc := profiler.MarkedConfig(pmu.MarkAllMem, 64)
		cfg.Profile = &pc
		res := streamcluster.Run(cfg)

		var bytes int64
		for _, p := range res.Profiles {
			n, err := profio.EncodedSize(p)
			if err == nil {
				bytes += n
			}
		}
		st := analysis.MeasureMerge(res.Profiles)
		loadCell, residentCell := measureLoad(res.Profiles, threads)
		t.AddRow(
			fmt.Sprintf("%d", threads),
			fmt.Sprintf("%d", bytes/int64(len(res.Profiles))),
			fmt.Sprintf("%d", st.InputNodes),
			fmt.Sprintf("%d", st.MergedNodes),
			fmt.Sprintf("%.1fx", st.CoalescingFactor()),
			st.SequentialMerge.Round(10_000).String(),
			st.ParallelMerge.Round(10_000).String(),
			loadCell,
			residentCell,
		)
	}
	t.AddNote("per-thread size and merged nodes stay flat as threads grow: the compactness the paper needs at Sequoia scale")
	t.AddNote("file loader (%d workers) decodes each file straight into a worker's accumulator; files staged but not yet applied never exceed the worker count while thread count grows", loadWorkers)
	return t
}

// measureLoad writes the profiles to a scratch measurement directory
// and loads it back, reporting the load's end-to-end wall time and its
// peak of files staged but not yet applied.
func measureLoad(profiles []*cct.Profile, threads int) (string, string) {
	dir, err := os.MkdirTemp("", "dcprof-scaling")
	if err != nil {
		return "n/a", "n/a"
	}
	defer os.RemoveAll(dir)
	if _, err := profio.WriteDir(dir, profiles); err != nil {
		return "n/a", "n/a"
	}
	_, st, err := analysis.LoadDirStreamingCtx(context.Background(), dir, analysis.LoadOptions{Workers: loadWorkers})
	if err != nil {
		return "n/a", "n/a"
	}
	return st.MergeWall.Round(10_000).String(),
		fmt.Sprintf("%d/%d", st.MaxResident, threads)
}
