// Command dcview is the text analogue of the paper's GUI: it loads a
// measurement directory written by dcprof, merges the per-thread profiles
// with the parallel reduction-tree analyzer, and prints the data-centric
// views.
//
// Usage:
//
//	dcview -d measurements/                      # all views, default metric
//	dcview -d m/ -metric LATENCY -view topdown   # one view
//	dcview -d m/ -view bottomup -rows 15
//	dcview -d m/ -quarantine -stats              # skip damaged files, report them
//	dcview -d m/ -stats -json                    # machine-readable merge stats
//	dcview -d m/ -view topdown -json             # top-down report as JSON
//	dcview -d m/ -view bottomup -json            # allocation-site report as JSON
//	dcview -d m/ -window 65536:1048576           # views clipped to a sim-cycle range
//	dcview -d m/ -phases                         # detected execution phases
//	dcview -d m/ -window-diff 3:12               # compare two time windows
//
// The -view topdown/-view bottomup JSON reports use the same serializers
// as dcprofd's query endpoints, so offline and served output for the same
// data are byte-identical.
//
// By default dcview is strict: one unreadable profile aborts the whole
// load. -quarantine instead skips damaged files (reporting each one), and
// -salvage additionally merges the intact, checksummed class trees that
// can be recovered from them.
//
// Exit codes: 0 success, 1 load/analysis failure, 2 usage error. All
// diagnostics go to stderr; stdout carries only report output, so JSON
// modes stay pipeable.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dcprof/internal/analysis"
	"dcprof/internal/metric"
	"dcprof/internal/temporal"
	"dcprof/internal/view"
)

// Exit codes.
const (
	exitLoadError = 1
	exitUsage     = 2
)

// fatal is the single error-reporting path: dcview-prefixed message on
// stderr, then exit with the given code.
func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dcview: "+format+"\n", args...)
	os.Exit(code)
}

func main() {
	var (
		dir        = flag.String("d", "measurements", "measurement directory")
		metName    = flag.String("metric", "", "ranking metric (default: FROM_RMEM for marked profiles, LATENCY(cy) for IBS)")
		which      = flag.String("view", "all", "view: topdown | bottomup | vars | advice | all")
		rows       = flag.Int("rows", 20, "max rows for table views")
		depth      = flag.Int("depth", 12, "max depth for the top-down tree")
		min        = flag.Float64("min", 0.005, "hide nodes below this share")
		diffDir    = flag.String("diff", "", "second measurement directory to compare against (before -> after)")
		asJSON     = flag.Bool("json", false, "dump the merged database as JSON and exit")
		workers    = flag.Int("workers", 0, "streaming ingest/merge workers (0 = GOMAXPROCS)")
		stats      = flag.Bool("stats", false, "print streaming merge pipeline statistics")
		strict     = flag.Bool("strict", false, "abort on the first unreadable profile (the default)")
		quarantine = flag.Bool("quarantine", false, "skip unreadable profiles and report them instead of aborting")
		salvage    = flag.Bool("salvage", false, "like -quarantine, but also merge intact class trees recovered from damaged files")
		window     = flag.String("window", "", "restrict views to the sim-cycle range t0:t1 (requires temporal sidecars)")
		phases     = flag.Bool("phases", false, "print detected execution phases (requires temporal sidecars)")
		windowDiff = flag.String("window-diff", "", "compare two time windows w1:w2 (requires temporal sidecars)")
	)
	flag.Parse()

	// Every malformed flag value is a usage error (exit 2), diagnosed
	// before any loading starts.
	if *rows < 0 {
		fatal(exitUsage, "-rows must be >= 0 (got %d)", *rows)
	}
	if *depth < 0 {
		fatal(exitUsage, "-depth must be >= 0 (got %d)", *depth)
	}
	if *min < 0 || *min > 1 {
		fatal(exitUsage, "-min must be within [0, 1] (got %g)", *min)
	}
	var (
		winT0, winT1 uint64
		dw1, dw2     uint64
		err          error
	)
	if *window != "" {
		if winT0, winT1, err = temporal.ParseWindowSpec(*window); err != nil {
			fatal(exitUsage, "-window: %v", err)
		}
	}
	if *windowDiff != "" {
		if dw1, dw2, err = temporal.ParseWindowPair(*windowDiff); err != nil {
			fatal(exitUsage, "-window-diff: %v", err)
		}
	}
	temporalModes := 0
	for _, on := range []bool{*window != "", *phases, *windowDiff != "", *diffDir != ""} {
		if on {
			temporalModes++
		}
	}
	if temporalModes > 1 {
		fatal(exitUsage, "-window, -phases, -window-diff and -diff are mutually exclusive")
	}

	policy := analysis.PolicyStrict
	switch {
	case *quarantine && *salvage, *strict && *quarantine, *strict && *salvage:
		fatal(exitUsage, "-strict, -quarantine and -salvage are mutually exclusive")
	case *quarantine:
		policy = analysis.PolicyQuarantine
	case *salvage:
		policy = analysis.PolicySalvage
	}

	load := func(dir string) (*analysis.Database, analysis.MergeStats, error) {
		return analysis.LoadDirStreamingCtx(context.Background(), dir,
			analysis.LoadOptions{Workers: *workers, Policy: policy})
	}

	db, st, err := load(*dir)
	if err != nil {
		fatal(exitLoadError, "%v", err)
	}
	reportQuarantine(st)
	if *stats && *asJSON {
		// Machine-readable pipeline stats on stdout; quarantine warnings
		// already went to stderr above.
		if err := analysis.WriteStatsReport(os.Stdout, st); err != nil {
			fatal(exitLoadError, "%v", err)
		}
		return
	}
	if *stats {
		fmt.Printf("merge stats: %d profiles, %.2f MB read, %d -> %d nodes (%.1fx coalescing), decode %s, merge %s, %d workers, peak residency %d profiles\n",
			st.Inputs, float64(st.BytesRead)/1e6, st.InputNodes, st.MergedNodes,
			st.CoalescingFactor(), st.DecodeWall, st.MergeWall, st.Workers, st.MaxResident)
		fmt.Printf("merge stages: fold %s, reduce %s\n", st.FoldWall, st.ReduceWall)
		if st.DecodeFileP99 > 0 {
			fmt.Printf("decode latency per file: p50 %s, p95 %s, p99 %s\n",
				st.DecodeFileP50, st.DecodeFileP95, st.DecodeFileP99)
		}
		for _, q := range st.Quarantined {
			fmt.Printf("quarantined: %s (%d trees salvaged): %s\n", q.Path, q.SalvagedTrees, q.Reason)
		}
	}
	m := pickMetric(*metName, db.Event)
	opts := view.Options{Metric: m, MaxRows: *rows, MaxDepth: *depth, MinShare: *min}

	if *phases {
		ph, err := analysis.Phases(db)
		if err != nil {
			fatal(exitLoadError, "%v", err)
		}
		if *asJSON {
			if err := view.WritePhasesJSON(os.Stdout, db.Event, db.Temporal.Width(), ph); err != nil {
				fatal(exitLoadError, "%v", err)
			}
			return
		}
		fmt.Println(view.RenderPhases(db.Event, db.Temporal.Width(), ph))
		return
	}
	if *windowDiff != "" {
		wd, err := analysis.Diff(db, dw1, dw2)
		if err != nil {
			fatal(exitLoadError, "%v", err)
		}
		if *asJSON {
			if err := view.WriteDiffJSON(os.Stdout, wd.P1, wd.P2, m, *rows); err != nil {
				fatal(exitLoadError, "%v", err)
			}
			return
		}
		fmt.Printf("window diff: window %d -> window %d (width %d cycles)\n",
			wd.W1, wd.W2, wd.Width)
		fmt.Println(view.RenderDiff(wd.P1, wd.P2, m, *rows))
		return
	}
	if *window != "" {
		// Views below render the clipped profile; everything that reads
		// db.Merged — including `-json -view all` — sees only the windows
		// overlapping [t0, t1).
		clipped, err := analysis.Clip(db, winT0, winT1)
		if err != nil {
			fatal(exitLoadError, "%v", err)
		}
		db.Merged = clipped
	}

	if *asJSON {
		// -json with a specific view emits that view's report through the
		// same writers the dcprofd query endpoints use, so the offline and
		// served JSON surfaces are byte-identical for identical data.
		// -json alone (view "all") keeps the historical full-database dump.
		var err error
		switch {
		case *diffDir != "":
			after, ast, lerr := load(*diffDir)
			if lerr != nil {
				fatal(exitLoadError, "%v", lerr)
			}
			reportQuarantine(ast)
			err = view.WriteDiffJSON(os.Stdout, db.Merged, after.Merged, m, *rows)
		case *which == "topdown":
			err = view.WriteTopDownJSON(os.Stdout, db.Merged, opts)
		case *which == "bottomup":
			err = view.WriteBottomUpJSON(os.Stdout, db.Merged, opts)
		case *which == "all":
			err = analysis.WriteJSON(os.Stdout, db)
		default:
			fatal(exitUsage, "-json supports views topdown, bottomup, all (got %q)", *which)
		}
		if err != nil {
			fatal(exitLoadError, "%v", err)
		}
		return
	}
	fmt.Printf("measurement: %d profiles (%d ranks), event %s, %.2f MB on disk\n\n",
		db.Threads, db.Ranks, db.Event, float64(db.MeasurementBytes)/1e6)
	fmt.Println(view.RenderDerived(db.Merged))

	if *diffDir != "" {
		after, ast, err := load(*diffDir)
		if err != nil {
			fatal(exitLoadError, "%v", err)
		}
		reportQuarantine(ast)
		fmt.Println(view.RenderDiff(db.Merged, after.Merged, m, *rows))
		return
	}

	if !renderViews(os.Stdout, view.Freeze(db.Merged), *which, opts) {
		fatal(exitUsage, "unknown view %q", *which)
	}
}

// renderViews prints the named text view — or, for "all", every view —
// from one frozen snapshot, so the merged tree is indexed once however many
// views are drawn. It reports false for an unknown view name.
func renderViews(w io.Writer, s *view.Snapshot, which string, opts view.Options) bool {
	switch which {
	case "topdown":
		fmt.Fprintln(w, s.RenderTopDown(opts))
	case "bottomup":
		fmt.Fprintln(w, s.RenderBottomUp(opts))
	case "vars":
		fmt.Fprintln(w, s.RenderVariables(opts))
	case "advice":
		fmt.Fprintln(w, s.RenderAdvice(opts.MaxRows))
	case "all":
		fmt.Fprintln(w, s.RenderVariables(opts))
		fmt.Fprintln(w, s.RenderTopDown(opts))
		fmt.Fprintln(w, s.RenderBottomUp(opts))
		fmt.Fprintln(w, s.RenderAdvice(opts.MaxRows))
	default:
		return false
	}
	return true
}

// reportQuarantine warns on stderr when a degraded-policy load skipped
// files, so a clean-looking report can't silently hide missing data.
func reportQuarantine(st analysis.MergeStats) {
	if len(st.Quarantined) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "dcview: warning: %d damaged profile(s) quarantined (run with -stats for details)\n",
		len(st.Quarantined))
}

func pickMetric(name, event string) metric.ID {
	if name == "" {
		return metric.Default(event)
	}
	if id, ok := metric.ByName(name); ok {
		return id
	}
	avail := make([]string, 0, len(metric.IDs()))
	for _, id := range metric.IDs() {
		avail = append(avail, id.Name())
	}
	fatal(exitUsage, "unknown metric %q; available: %s", name, strings.Join(avail, " "))
	return 0
}
