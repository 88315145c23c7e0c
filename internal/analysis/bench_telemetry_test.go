package analysis

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/telemetry"
	"dcprof/internal/telemetry/spanlog"
)

// denseProfiles builds n thread profiles with realistically sized CCTs
// (hundreds of nodes each), so the gate measures telemetry against real
// decode/merge work rather than against fixture setup.
func denseProfiles(seed int64, n int) []*cct.Profile {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*cct.Profile, 0, n)
	for th := 0; th < n; th++ {
		p := cct.NewProfile(0, th, "IBS@4096")
		for i := 0; i < 400; i++ {
			var v metric.Vector
			v[metric.Samples] = uint64(rng.Intn(10) + 1)
			v[metric.Latency] = uint64(rng.Intn(1000))
			fn := fmt.Sprintf("f%d", rng.Intn(40))
			path := []cct.Frame{
				{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
				{Kind: cct.KindCall, Module: "exe", Name: fn, File: fn + ".c"},
				{Kind: cct.KindStmt, Module: "exe", Name: fn, File: fn + ".c", Line: rng.Intn(40)},
			}
			p.Trees[cct.Class(rng.Intn(cct.NumClasses))].AddSample(path, &v)
		}
		out = append(out, p)
	}
	return out
}

// TestTelemetryOverheadGate measures streaming-merge wall time with
// telemetry off (no caller registry or span log) and on (both attached),
// writes the comparison as JSON, and fails if instrumentation costs more
// than the gate allows. Opt-in via DCPROF_BENCH_TELEMETRY=<output file>
// (check.sh sets it): wall-clock gates are too noisy for the default
// `go test ./...` tier.
func TestTelemetryOverheadGate(t *testing.T) {
	out := os.Getenv("DCPROF_BENCH_TELEMETRY")
	if out == "" {
		t.Skip("set DCPROF_BENCH_TELEMETRY=<output file> to run the telemetry overhead gate")
	}

	const gate = 1.05 // telemetry on must stay within 5% of off

	ps := denseProfiles(11, 128) // realistic per-file tree sizes
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}

	// A load is a few milliseconds and its wall time on a shared host
	// spreads far wider than the 5% under test, so the estimate is the
	// median of paired ratios: the two configurations take turns, each
	// pair is adjacent in time (machine drift lands on both alike), every
	// load starts from a collected heap, and the workers never outnumber
	// the processors (scheduling noise is not what is being gated).
	const rounds = 41
	workers := min(4, runtime.GOMAXPROCS(0))
	load := func(instrumented bool) time.Duration {
		opt := LoadOptions{Workers: workers}
		if instrumented {
			opt.Telemetry = telemetry.New()
			opt.Spans = spanlog.New()
		}
		runtime.GC()
		t0 := time.Now()
		if _, _, err := LoadDirStreamingCtx(context.Background(), dir, opt); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	// A warmup of each before timing, so page cache and the frame interner
	// are filled for both configurations.
	load(false)
	load(true)
	var offs, ons []time.Duration
	var ratios []float64
	for i := 0; i < rounds; i++ {
		a, b := load(false), load(true)
		offs, ons = append(offs, a), append(ons, b)
		ratios = append(ratios, float64(b)/float64(a))
	}
	sort.Float64s(ratios)
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	sort.Slice(ons, func(i, j int) bool { return ons[i] < ons[j] })
	off, on, ratio := offs[rounds/2], ons[rounds/2], ratios[rounds/2]

	rep := struct {
		OffNS     int64   `json:"telemetry_off_ns"`
		OnNS      int64   `json:"telemetry_on_ns"`
		Ratio     float64 `json:"ratio"`
		Gate      float64 `json:"gate"`
		Pass      bool    `json:"pass"`
		Inputs    int     `json:"inputs"`
		Rounds    int     `json:"rounds"`
		Timestamp string  `json:"timestamp"`
	}{
		OffNS: off.Nanoseconds(), OnNS: on.Nanoseconds(),
		Ratio: ratio, Gate: gate, Pass: ratio <= gate,
		Inputs: len(ps), Rounds: rounds,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("telemetry off %v, on %v, ratio %.3f (gate %.2f), report %s", off, on, ratio, gate, out)
	if ratio > gate {
		t.Errorf("telemetry-on merge is %.1f%% slower than off (gate %.0f%%)", 100*(ratio-1), 100*(gate-1))
	}
}
