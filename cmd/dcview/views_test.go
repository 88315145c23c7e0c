package main

import (
	"bytes"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/view"
)

// viewsProfile builds a merged profile every text view has rows for: heap
// variables under allocation paths, a static variable, and unattributed
// and non-memory samples.
func viewsProfile() *cct.Profile {
	p := cct.NewProfile(0, 0, "IBS@64")
	call := func(name string, line int) cct.Frame {
		return cct.Frame{Kind: cct.KindCall, Module: "exe", Name: name, File: name + ".c", Line: line}
	}
	stmt := func(fn string, line int) cct.Frame {
		return cct.Frame{Kind: cct.KindStmt, Module: "exe", Name: fn, File: fn + ".c", Line: line}
	}
	add := func(class cct.Class, path []cct.Frame, samples, lat, rmem, lmem, tlb uint64) {
		var v metric.Vector
		v[metric.Samples] = samples
		v[metric.Latency] = lat
		v[metric.FromRMEM] = rmem
		v[metric.FromLMEM] = lmem
		v[metric.TLBMiss] = tlb
		p.Trees[class].AddSample(path, &v)
	}
	for i, name := range []string{"grid", "halo", "coeffs"} {
		alloc := []cct.Frame{call("main", 0), stmt("setup", 20+i), call("calloc", 0), {Kind: cct.KindHeapData, Name: name}}
		for j := 0; j < 3; j++ {
			path := append(append([]cct.Frame{}, alloc...), call("solve", 40+j), stmt("solve", 50+j+i))
			add(cct.ClassHeap, path, uint64(30*(i+1)+j), uint64(9000*(3-i)+100*j), uint64(20*(2-i)), 10, uint64(5*j))
		}
	}
	add(cct.ClassStatic, []cct.Frame{{Kind: cct.KindStaticVar, Module: "exe", Name: "table"}, call("main", 0), stmt("lookup", 7)},
		80, 24_000, 2, 60, 40)
	add(cct.ClassUnknown, []cct.Frame{call("main", 0), stmt("spill", 3)}, 12, 600, 0, 4, 0)
	add(cct.ClassNonMem, []cct.Frame{call("main", 0), stmt("loop", 9)}, 40, 0, 0, 0, 0)
	return p
}

// TestRenderViewsAllMatchesWrappers: -view all renders every view from one
// frozen snapshot, and its output is byte-identical to rendering each view
// through the package-level wrappers, which freeze the profile per call.
func TestRenderViewsAllMatchesWrappers(t *testing.T) {
	p := viewsProfile()
	opts := view.Options{Metric: metric.Latency, MaxRows: 20, MaxDepth: 12, MinShare: 0.005}
	want := map[string]string{
		"topdown":  view.RenderTopDown(p, opts) + "\n",
		"bottomup": view.RenderBottomUp(p, opts) + "\n",
		"vars":     view.RenderVariables(p, opts) + "\n",
		"advice":   view.RenderAdvice(p, opts.MaxRows) + "\n",
	}
	want["all"] = want["vars"] + want["topdown"] + want["bottomup"] + want["advice"]
	for which, w := range want {
		var b bytes.Buffer
		if !renderViews(&b, view.Freeze(p), which, opts) {
			t.Fatalf("renderViews rejected view %q", which)
		}
		if b.String() != w {
			t.Errorf("-view %s differs from the wrappers:\n--- got ---\n%s--- want ---\n%s", which, b.String(), w)
		}
	}
	if len(view.Advise(p)) == 0 {
		t.Fatal("fixture yields no advice rows; the advice comparison is vacuous")
	}
	if renderViews(&bytes.Buffer{}, view.Freeze(p), "nope", opts) {
		t.Error("renderViews accepted an unknown view")
	}
}
