// Interning-equivalence layer: the frame-interned hot path (FrameID-keyed
// CCTs, memoized decoding, ID-keyed view aggregation) must be invisible at
// every observable boundary. These tests pin that down on two real
// workloads — the Fig.1 microbenchmark and the AMG proxy app:
//
//   - the on-disk v2 encoding of an interned profile is deterministic and
//     round-trip byte-stable (encode -> decode -> encode is the identity on
//     bytes);
//   - rebuilding the same profile through the legacy string-keyed API
//     (AddSample on Frame values, no pre-interning anywhere) renders
//     byte-identical top-down, bottom-up, and variable tables.
package analysis_test

import (
	"bytes"
	"testing"

	"dcprof/internal/apps/amg"
	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/pmu"
	"dcprof/internal/profiler"
	"dcprof/internal/profio"
	"dcprof/internal/view"
)

func amgProfiles(t *testing.T) []*cct.Profile {
	t.Helper()
	cfg := amg.TestConfig()
	pc := profiler.MarkedConfig(pmu.MarkDataFromRMEM, 4)
	cfg.Profile = &pc
	r := amg.Run(cfg)
	if len(r.Profiles) == 0 {
		t.Fatal("amg run produced no profiles")
	}
	return r.Profiles
}

// reencode writes p, reads the bytes back, and writes the decoded profile
// again, returning both encodings.
func reencode(t *testing.T, p *cct.Profile) (first, second []byte) {
	t.Helper()
	var buf1 bytes.Buffer
	if err := profio.WriteProfile(&buf1, p); err != nil {
		t.Fatal(err)
	}
	dec, err := profio.ReadProfile(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := profio.WriteProfile(&buf2, dec); err != nil {
		t.Fatal(err)
	}
	return buf1.Bytes(), buf2.Bytes()
}

func checkByteStable(t *testing.T, ps []*cct.Profile) {
	t.Helper()
	for _, p := range ps {
		first, second := reencode(t, p)
		if len(first) == 0 {
			t.Fatal("empty encoding")
		}
		if !bytes.Equal(first, second) {
			t.Errorf("rank %d thread %d: re-encoding after decode changed bytes (%d vs %d)",
				p.Rank, p.Thread, len(first), len(second))
		}
		// Writing the same in-memory profile twice must be deterministic too
		// (child iteration goes through sorted Children, never map order).
		var again bytes.Buffer
		if err := profio.WriteProfile(&again, p); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again.Bytes()) {
			t.Errorf("rank %d thread %d: two encodings of one profile differ", p.Rank, p.Thread)
		}
	}
}

func TestEncodingByteStableMicro(t *testing.T) { checkByteStable(t, microProfiles(t)) }
func TestEncodingByteStableAMG(t *testing.T)   { checkByteStable(t, amgProfiles(t)) }

// stringRebuild reconstructs a profile through the string-keyed API alone:
// every node's path is re-inserted as Frame values, so child lookup runs
// the legacy Frame->ID route on every step. The result must be
// indistinguishable from the original in every view.
func stringRebuild(p *cct.Profile) *cct.Profile {
	out := cct.NewProfile(p.Rank, p.Thread, p.Event)
	for ci, tree := range p.Trees {
		dst := out.Trees[ci]
		tree.Walk(func(n *cct.Node, _ int) bool {
			if n.Frame().Kind == cct.KindRoot {
				v := n.Metrics()
				dst.Add(dst.Root, &v)
				return true
			}
			v := n.Metrics()
			dst.AddSample(n.Path(), &v)
			return true
		})
	}
	return out
}

func checkViewsMatchStringKeyed(t *testing.T, ps []*cct.Profile) {
	t.Helper()
	merged := cct.NewProfile(0, 0, ps[0].Event)
	for _, p := range ps {
		merged.Merge(p)
	}
	ref := stringRebuild(merged)

	opts := view.Options{Metric: metric.Latency, MaxRows: 100, MaxDepth: 32, MinShare: 0}
	renders := map[string]func(*cct.Profile) string{
		"topdown":   func(p *cct.Profile) string { return view.RenderTopDown(p, opts) },
		"variables": func(p *cct.Profile) string { return view.RenderVariables(p, opts) },
		"bottomup":  func(p *cct.Profile) string { return view.RenderBottomUp(p, opts) },
	}
	for name, render := range renders {
		want, got := render(ref), render(merged)
		if want == "" {
			t.Fatalf("%s: empty reference render", name)
		}
		if got != want {
			t.Errorf("%s view differs between interned profile and string-keyed rebuild\nstring-keyed:\n%s\ninterned:\n%s",
				name, want, got)
		}
	}
	if merged.Total() != ref.Total() {
		t.Error("totals differ between interned profile and string-keyed rebuild")
	}
	if merged.NumNodes() != ref.NumNodes() {
		t.Errorf("node counts differ: interned %d, string-keyed %d", merged.NumNodes(), ref.NumNodes())
	}
}

func TestViewsMatchStringKeyedMicro(t *testing.T) { checkViewsMatchStringKeyed(t, microProfiles(t)) }
func TestViewsMatchStringKeyedAMG(t *testing.T)   { checkViewsMatchStringKeyed(t, amgProfiles(t)) }
