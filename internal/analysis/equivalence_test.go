// End-to-end equivalence: profile a real (simulated) app, write its
// measurement to disk, ingest it back through the streaming pipeline, and
// require the rendered views to match the in-memory (no-I/O) merge
// byte-for-byte. This closes the loop the unit tests cover piecewise:
// profiler -> profio encode -> streaming decode -> pipelined merge -> view.
package analysis_test

import (
	"context"
	"path/filepath"
	"testing"

	"dcprof/internal/analysis"
	"dcprof/internal/apps/micro"
	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/view"
)

func microProfiles(t *testing.T) []*cct.Profile {
	t.Helper()
	cfg := micro.DefaultFig1Config()
	cfg.Elems = 1 << 12
	cfg.Iters = 1
	r := micro.RunFig1(cfg)
	if len(r.Result.Profiles) == 0 {
		t.Fatal("micro run produced no profiles")
	}
	// The micro app is single-threaded; replicate its profile under new
	// thread ids so the pipeline has a real multi-profile merge to do (the
	// simulator is deterministic, so this is what an 8-thread run of the
	// same code would have measured).
	var ps []*cct.Profile
	for th := 0; th < 8; th++ {
		for _, p := range r.Result.Profiles {
			c := cct.NewProfile(p.Rank, th, p.Event)
			c.Merge(p)
			ps = append(ps, c)
		}
	}
	return ps
}

func TestMicroPipelineEquivalence(t *testing.T) {
	ps := microProfiles(t)

	// In-memory reference: no I/O, preserving merge.
	inMem := analysis.MergePreserving(ps, 0)

	// Full pipeline: write -> stream-read -> merge.
	dir := filepath.Join(t.TempDir(), "m")
	if _, err := profio.WriteDir(dir, ps); err != nil {
		t.Fatal(err)
	}
	streamed, st, err := analysis.LoadDirStreamingCtx(context.Background(), dir, analysis.LoadOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxResident > 3 {
		t.Errorf("peak residency %d exceeds the worker count", st.MaxResident)
	}

	opts := view.Options{Metric: metric.Latency, MaxRows: 50, MaxDepth: 16, MinShare: 0}
	for name, render := range map[string]func(*cct.Profile) string{
		"topdown":   func(p *cct.Profile) string { return view.RenderTopDown(p, opts) },
		"variables": func(p *cct.Profile) string { return view.RenderVariables(p, opts) },
		"bottomup":  func(p *cct.Profile) string { return view.RenderBottomUp(p, opts) },
	} {
		want := render(inMem.Merged)
		got := render(streamed.Merged)
		if want == "" {
			t.Fatalf("%s: empty reference render", name)
		}
		if got != want {
			t.Errorf("%s view differs between in-memory and streamed merge\nin-memory:\n%s\nstreamed:\n%s",
				name, want, got)
		}
	}
	if inMem.Merged.Total() != streamed.Merged.Total() {
		t.Error("metric totals differ between in-memory and streamed merge")
	}
}
