// Command benchmark measures the whole path a sample travels through
// dcprof — PMU sample, attribution, encode and durable write, upload,
// ingest, decode, fold/reduce, render — with four workloads that each
// lean on different layers. See README.md for the metric definitions and
// the layer → end-to-end map.
//
// One workload, as the benchmark driver runs it (the last line of
// standard output is the result object):
//
//	bash benchmark/run.sh --workload merge_10k --seed 1 --seconds 20 --trace 0
//
// Everything, with the per-layer pass and a repeatability check:
//
//	bash benchmark/run.sh --seed 1 --trace 1 --repeat 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// report is one result file: a full set of workloads on one seed.
type report struct {
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Commit     string   `json:"commit"`
	Seed       int64    `json:"seed"`
	Scale      string   `json:"scale"`
	Seconds    float64  `json:"seconds"`
	Corpus     string   `json:"corpus"`
	Claim      *string  `json:"claim"` // this benchmark claims no gain; it is the baseline
	Results    []result `json:"results"`
}

// commit is the commit the binary was built from; run.sh sets it at link
// time ("unknown" outside a git checkout).
var commit = "unknown"

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: collect_dense, merge_10k, serve_live, serve_dash, or all")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	secs := fs.Float64("seconds", 20, "how long each workload measures; whole repetitions only")
	trace := fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of / after the untraced one")
	scale := fs.String("scale", "full", "full or smoke")
	repeat := fs.Int("repeat", 1, "with -workload all: run the set this many times and fail if two sets disagree beyond a bound")
	out := fs.String("out", defaultOutDir(), "directory for scratch data, traces and result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sz, ok := scales[*scale]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown scale %q (full, smoke)\n", *scale)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "benchmark: -trace takes 0 or 1\n")
		return 2
	}
	o := options{seed: *seed, seconds: *secs, sz: sz, outDir: *out, minReps: 3}

	// The untraced pass always runs when all workloads do; --workload with
	// --trace 1 runs the traced pass alone, as the driver asks.
	passes := []func(workload, options) (result, error){runUntraced}
	if *trace == 1 {
		passes = append(passes, runTraced)
	}

	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		res, err := passes[len(passes)-1](w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		printResult(res)
		return printDriverLine(res)
	}

	var sets []report
	for k := 0; k < *repeat; k++ {
		rep := report{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: commit,
			Seed: *seed, Scale: *scale, Seconds: *secs, Corpus: denseCorpus,
		}
		for _, w := range workloads {
			for _, pass := range passes {
				res, err := pass(w, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
					return 1
				}
				printResult(res)
				rep.Results = append(rep.Results, res)
			}
		}
		path := filepath.Join(*out, fmt.Sprintf("result-seed%d-run%d.json", *seed, k))
		if err := writeJSON(path, rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %s\n", path)
		sets = append(sets, rep)
	}

	code := 0
	for _, rep := range sets {
		for _, r := range rep.Results {
			if !r.Correct {
				fmt.Printf("FAIL %s: %d of %d operations failed (traced=%v)\n", r.Workload, r.Failed, r.Attempted, r.Traced)
				code = 1
			}
		}
	}
	for k := 1; k < len(sets); k++ {
		if !agree(sets[0], sets[k]) {
			code = 1
		}
	}
	return code
}

// defaultOutDir is benchmark/out when run from the repository root (as
// run.sh and the driver do) and out when run from this directory.
func defaultOutDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func defsFor(r result) []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// printResult prints every metric of the run by name, with its unit.
func printResult(r result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Printf("== %s (%s): %d repetitions, %d operation samples, failed_ops_ratio %d/%d\n",
		r.Workload, pass, r.Reps, r.OpSamples, r.Failed, r.Attempted)
	for _, d := range defsFor(r) {
		fmt.Printf("%-14s %-40s %14.4f %s\n", r.Workload, d.name, r.Metrics[d.name], d.unit)
	}
}

// printDriverLine prints the result object the benchmark driver reads
// from the last line of standard output.
func printDriverLine(r result) int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defsFor(r) {
		v := r.Metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "benchmark: %s is %v\n", d.name, v)
			return 1
		}
		line.Metrics[d.name] = value{v, d.unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(buf))
	return 0
}

// agree reports whether two sets of runs of the same commit read the same
// on every end-to-end metric, within the metric's bound.
func agree(a, b report) bool {
	ok := true
	for i, ra := range a.Results {
		rb := b.Results[i]
		if ra.Traced {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.name], rb.Metrics[d.name]
			if diff := math.Abs(vb-va) / va; diff > d.bound {
				fmt.Printf("DISAGREE %s %s: %.4f vs %.4f %s (%.1f%% apart, bound %.0f%%)\n",
					ra.Workload, d.name, va, vb, d.unit, 100*diff, 100*d.bound)
				ok = false
			}
		}
	}
	return ok
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
