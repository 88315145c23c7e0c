package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile is BENCHMARK.json as far as this test reads it.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesProgram: the workloads and metrics BENCHMARK.json
// declares are exactly the ones the program knows, with the same units,
// directions and bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q (or their reasons differ)", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if g := bf.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		if g := bf.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, g, d)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]{1,64}", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("%s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better is %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmoke runs all four workloads, both passes, at the smoke scale and
// checks that each emits exactly the declared metrics, that every
// operation succeeded, that end-to-end metrics are positive, and that
// every per-layer metric is measured by at least one workload.
func TestSmoke(t *testing.T) {
	o := options{seed: 1, seconds: 0.1, sz: scales["smoke"], outDir: t.TempDir(), minReps: 2, oneSetup: true}

	// Per-layer metrics that may legitimately read 0 (or below) everywhere:
	// counts of things that must not happen, and differences of two noisy
	// walls.
	mayBeZero := map[string]bool{
		"push.retries": true, "server.shed_total": true, "profiler.samples_dropped": true,
		"temporal.record_overhead_pct": true, "trace.overhead_pct": true,
		"profiler.alloc_track_ns": true, "profiler.mallocs_per_sample": true,
	}
	measured := map[string]bool{}

	for _, w := range workloads {
		res, err := runUntraced(w, o)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, endToEnd)
		for _, d := range endToEnd {
			if v := res.Metrics[d.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", w.name, d.name, v)
			}
		}

		res, err = runTraced(w, o)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, res, perLayer)
		for name, v := range res.Metrics {
			if v != 0 {
				measured[name] = true
			}
		}
		if _, err := os.Stat(o.outDir + "/trace-" + w.name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	for _, d := range perLayer {
		if !measured[d.name] && !mayBeZero[d.name] {
			t.Errorf("per-layer metric %s read 0 on every workload", d.name)
		}
	}
}

func checkResult(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s (traced=%v): correct=%v, %d of %d operations failed", res.Workload, res.Traced, res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s (traced=%v): %d metrics emitted, %d declared", res.Workload, res.Traced, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s (traced=%v): %s not emitted", res.Workload, res.Traced, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s (traced=%v): %s = %v", res.Workload, res.Traced, d.name, v)
		}
	}
}
