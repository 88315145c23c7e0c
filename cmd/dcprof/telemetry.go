package main

// Self-observability for the measurement run itself (-telemetry FILE):
// dcprof profiles the simulated application, and the telemetry snapshot
// profiles dcprof. The snapshot spans all three instrumented layers —
// profiler.* (sampling and allocation tracking), profio.* (bytes and
// sections written, and read back during verification), and analysis.*
// (the verification reload's merge pipeline) — plus a self section with
// the real process's wall/CPU cost and the simulated overhead split the
// paper's Table 4 reports.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"dcprof/internal/analysis"
	"dcprof/internal/apps/bench"
	"dcprof/internal/telemetry"
)

// selfReport is the "who watches the profiler" section of the snapshot.
type selfReport struct {
	// Real-process cost of the whole measurement run.
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	// Simulated cost: total application cycles, the profiler-charged share,
	// and that share as the paper-style overhead percentage.
	SimulatedCycles uint64  `json:"simulated_cycles"`
	OverheadCycles  uint64  `json:"overhead_cycles"`
	OverheadPercent float64 `json:"overhead_percent"`
	// Space cost: bytes of measurement data on disk.
	MeasurementBytes int64 `json:"measurement_bytes"`
	ProfileFiles     int   `json:"profile_files"`
}

// telemetryReport is the document -telemetry writes.
type telemetryReport struct {
	App         string             `json:"app"`
	Variant     string             `json:"variant"`
	Event       string             `json:"event"`
	Self        selfReport         `json:"self"`
	Instruments telemetry.Snapshot `json:"instruments"`
}

// writeTelemetry verifies the written measurement directory by reloading
// it through the streaming pipeline (populating analysis.* and profio
// read-side instruments), then writes the full snapshot to path.
func writeTelemetry(path, outDir string, res *bench.Result, bytes int64, wall time.Duration) error {
	reg := telemetry.Default()

	// Verification reload: proves the just-written directory is readable
	// and exercises the ingest pipeline under telemetry.
	if _, _, err := analysis.LoadDirStreamingCtx(context.Background(), outDir,
		analysis.LoadOptions{Telemetry: reg}); err != nil {
		return fmt.Errorf("verification reload of %s: %w", outDir, err)
	}

	event := ""
	if len(res.Profiles) > 0 {
		event = res.Profiles[0].Event
	}
	rep := telemetryReport{
		App:     res.App,
		Variant: res.Variant,
		Event:   event,
		Self: selfReport{
			WallSeconds:      wall.Seconds(),
			CPUSeconds:       cpuSeconds(),
			SimulatedCycles:  res.Cycles,
			OverheadCycles:   res.OverheadCycles,
			OverheadPercent:  100 * float64(res.OverheadCycles) / float64(res.Cycles),
			MeasurementBytes: bytes,
			ProfileFiles:     len(res.Profiles),
		},
		Instruments: reg.Snapshot(),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
