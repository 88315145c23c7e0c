package profio_test

import (
	"bytes"
	"testing"

	"dcprof/internal/apps/nw"
	"dcprof/internal/profiler"
	"dcprof/internal/profio"
)

// TestEncoderMatchesReferenceOnAppRun: the encoder agrees with the
// reference (byte identity to the footer, the same decoded series after
// it) on what the profiler really produces — recorder-built sidecars over trees grown sample by
// sample — from one quick run of the NW case study.
func TestEncoderMatchesReferenceOnAppRun(t *testing.T) {
	cfg := nw.TestConfig()
	pc := profiler.DefaultConfig()
	pc.Period = 64
	pc.TemporalWindow = 2048
	cfg.Profile = &pc
	res := nw.Run(cfg)
	if len(res.Profiles) != cfg.Threads {
		t.Fatalf("run produced %d profiles, want %d", len(res.Profiles), cfg.Threads)
	}
	windows := 0
	for _, p := range res.Profiles {
		var got, want bytes.Buffer
		if err := profio.WriteProfile(&got, p); err != nil {
			t.Fatal(err)
		}
		if err := profio.ReferenceWriteProfile(&want, p); err != nil {
			t.Fatal(err)
		}
		if err := profio.SameImage(got.Bytes(), want.Bytes()); err != nil {
			t.Errorf("thread %d: %v", p.Thread, err)
		}
		if p.Temporal != nil {
			windows += len(p.Temporal.Windows)
		}
	}
	if windows < 100 {
		t.Errorf("run recorded %d windows; the test needs real sidecars", windows)
	}
}
