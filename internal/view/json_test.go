package view

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
	"dcprof/internal/temporal"
)

func jsonTestProfile() *cct.Profile {
	p := cct.NewProfile(0, 0, "IBS@4096")
	var v metric.Vector
	v[metric.Samples] = 4
	v[metric.Latency] = 400
	heapPath := []cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
		{Kind: cct.KindStmt, Module: "exe", Name: "main", File: "main.c", Line: 10},
		{Kind: cct.KindCall, Module: "libc", Name: "malloc"},
		{Kind: cct.KindHeapData, Name: "grid"},
		{Kind: cct.KindStmt, Module: "exe", Name: "smooth", File: "sm.c", Line: 42},
	}
	p.Trees[cct.ClassHeap].AddSample(heapPath, &v)
	p.Trees[cct.ClassStatic].AddSample([]cct.Frame{
		{Kind: cct.KindStaticVar, Module: "exe", Name: "lut", File: "main.c"},
		{Kind: cct.KindStmt, Module: "exe", Name: "init", File: "main.c", Line: 3},
	}, &v)
	return p
}

func TestTopDownJSONShape(t *testing.T) {
	p := jsonTestProfile()
	o := Options{Metric: metric.Latency, MaxDepth: DefaultMaxDepth, MinShare: 0}
	rep := decode[TopDownReport](t, written(t, func(w io.Writer) error { return WriteTopDownJSON(w, p, o) }))
	if rep.Total != 800 {
		t.Errorf("total = %d, want 800", rep.Total)
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(rep.Classes))
	}
	var shares float64
	for _, c := range rep.Classes {
		shares += c.Share
		if len(c.Children) == 0 {
			t.Errorf("class %s has no children", c.Class)
		}
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("class shares sum to %f", shares)
	}

	// Depth pruning: MaxDepth 1 keeps only the class roots' direct children.
	o = Options{Metric: metric.Latency, MaxDepth: 1}
	shallow := decode[TopDownReport](t, written(t, func(w io.Writer) error { return WriteTopDownJSON(w, p, o) }))
	for _, c := range shallow.Classes {
		for _, n := range c.Children {
			if len(n.Children) != 0 {
				t.Errorf("MaxDepth=1 left grandchildren under %s", n.Name)
			}
		}
	}
}

// The report must render deterministically and with stable snake_case
// keys — consumers (and the byte-identical serving contract) depend on it.
func TestTopDownJSONDeterministic(t *testing.T) {
	o := Options{Metric: metric.Latency}
	var a, b bytes.Buffer
	if err := WriteTopDownJSON(&a, jsonTestProfile(), o); err != nil {
		t.Fatal(err)
	}
	if err := WriteTopDownJSON(&b, jsonTestProfile(), o); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of equal profiles differ")
	}
	for _, key := range []string{`"event"`, `"metric"`, `"total"`, `"classes"`, `"share"`, `"value"`} {
		if !strings.Contains(a.String(), key) {
			t.Errorf("report missing key %s:\n%s", key, a.String())
		}
	}
}

func TestTopDownJSONEmptyProfile(t *testing.T) {
	p := cct.NewProfile(0, 0, "IBS@4096")
	var buf bytes.Buffer
	if err := WriteTopDownJSON(&buf, p, Options{Metric: metric.Latency}); err != nil {
		t.Fatal(err)
	}
	// Classes must be [], not null.
	if !strings.Contains(buf.String(), `"classes": []`) {
		t.Errorf("empty profile classes not []:\n%s", buf.String())
	}
}

func TestBottomUpJSON(t *testing.T) {
	p := jsonTestProfile()
	bottomUp := func(o Options) *BottomUpReport {
		return decode[BottomUpReport](t, written(t, func(w io.Writer) error { return WriteBottomUpJSON(w, p, o) }))
	}
	rep := bottomUp(Options{Metric: metric.Latency, MaxRows: DefaultMaxRows})
	if len(rep.Sites) != 1 {
		t.Fatalf("sites = %d, want 1", len(rep.Sites))
	}
	s := rep.Sites[0]
	if s.Allocator != "malloc" || s.Func != "main" || s.Variables != 1 {
		t.Errorf("site = %+v", s)
	}
	if s.Value != 400 {
		t.Errorf("site value = %d, want 400 (heap tree only)", s.Value)
	}

	// MaxRows bounds the table.
	if got := bottomUp(Options{Metric: metric.Latency, MaxRows: 0}); len(got.Sites) != 1 {
		t.Errorf("unlimited rows = %d", len(got.Sites))
	}

	var buf bytes.Buffer
	if err := WriteBottomUpJSON(&buf, cct.NewProfile(0, 0, "x"), Options{Metric: metric.Latency}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"sites": []`) {
		t.Errorf("empty bottom-up sites not []:\n%s", buf.String())
	}
}

func TestDiffJSON(t *testing.T) {
	before, after := jsonTestProfile(), jsonTestProfile()
	var v metric.Vector
	v[metric.Latency] = 1200
	after.Trees[cct.ClassStatic].AddSample([]cct.Frame{
		{Kind: cct.KindStaticVar, Module: "exe", Name: "lut", File: "main.c"},
		{Kind: cct.KindStmt, Module: "exe", Name: "init", File: "main.c", Line: 3},
	}, &v)

	rep := decode[DiffReport](t, written(t, func(w io.Writer) error { return WriteDiffJSON(w, before, after, metric.Latency, 0) }))
	if rep.BeforeTotal != 800 || rep.AfterTotal != 2000 {
		t.Errorf("totals = %d -> %d", rep.BeforeTotal, rep.AfterTotal)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	// lut moved most: it must sort first, and delta must be consistent.
	if rep.Rows[0].Variable != "lut" {
		t.Errorf("top row = %q, want lut", rep.Rows[0].Variable)
	}
	for _, r := range rep.Rows {
		if got := r.AfterShare - r.BeforeShare; got != r.DeltaShare {
			t.Errorf("row %s delta %f != after-before %f", r.Variable, r.DeltaShare, got)
		}
	}

	// maxRows bounds the rows.
	back := decode[DiffReport](t, written(t, func(w io.Writer) error { return WriteDiffJSON(w, before, after, metric.Latency, 1) }))
	if len(back.Rows) != 1 || back.Rows[0].Variable != "lut" {
		t.Errorf("rows at maxRows 1 = %+v", back.Rows)
	}
}

func TestPhasesJSONMatchesEncodingJSON(t *testing.T) {
	for _, phases := range [][]temporal.Phase{
		nil,
		{{Start: 0, End: 65536, StartWindow: 0, EndWindow: 0, Label: "idle"}},
		{
			{Start: 0, End: 131072, StartWindow: 0, EndWindow: 1, Label: "numa-remote", Samples: 40},
			{Start: 131072, End: 196608, StartWindow: 2, EndWindow: 2, Label: "local", Samples: 7},
		},
	} {
		got := written(t, func(w io.Writer) error { return WritePhasesJSON(w, "IBS@4096", 65536, phases) })
		want := jsonBytes(t, PhasesReport{Event: "IBS@4096", Width: 65536, Phases: append([]temporal.Phase{}, phases...)})
		if !bytes.Equal(got, want) {
			t.Errorf("phases JSON differs\ngot:\n%s\nwant:\n%s", got, want)
		}
	}
}

// oddNameProfile is jsonTestProfile with every name, module and file s.
func oddNameProfile(s string) *cct.Profile {
	p := cct.NewProfile(0, 0, s)
	var v metric.Vector
	v[metric.Latency] = 300
	p.Trees[cct.ClassHeap].AddSample([]cct.Frame{
		{Kind: cct.KindStmt, Module: s, Name: s, File: s, Line: 7},
		{Kind: cct.KindCall, Module: "libc", Name: s},
		{Kind: cct.KindHeapData, Name: s},
		{Kind: cct.KindStmt, Module: s, Name: s, File: s, Line: 9},
	}, &v)
	v[metric.Latency] = 100
	p.Trees[cct.ClassStatic].AddSample([]cct.Frame{
		{Kind: cct.KindStaticVar, Module: s, Name: s},
		{Kind: cct.KindStmt, Module: s, Name: s, File: s, Line: 3},
	}, &v)
	return p
}

// FuzzJSONWriterMatchesEncodingJSON holds the writer's string and float
// encodings to json.Marshal, and the views of a profile named by the fuzzed
// string to the report structs marshalled by encoding/json.
func FuzzJSONWriterMatchesEncodingJSON(f *testing.F) {
	strs := []string{"", "grid", "a\x00b\x1f", "\x7f", "<b>&amp;</b>", "R&D", "a>b", `"q"\`, "\xff\xfe", "ab\xc3",
		"line\u2028sep\u2029", "h\u00e9llo", "\t\n\r\b\f", "\ufffd"}
	floats := []float64{0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), 9.99e-7, 1e-7, 1.5e-300, 5e-324,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e300, 0.5, 1.0 / 3, 123456789, -2.5e-9, math.NaN(), math.Inf(1)}
	for i := range max(len(strs), len(floats)) {
		f.Add(strs[i%len(strs)], floats[i%len(floats)])
	}
	f.Fuzz(func(t *testing.T, s string, x float64) {
		want, _ := json.Marshal(s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Fatalf("string %q: got %s, want %s", s, got, want)
		}
		want, err := json.Marshal(x)
		got, gotErr := appendJSONFloat(nil, x)
		if (err == nil) != (gotErr == nil) || err == nil && !bytes.Equal(got, want) {
			t.Fatalf("float %v: got %s (%v), want %s (%v)", x, got, gotErr, want, err)
		}

		p, base := oddNameProfile(s), jsonTestProfile()
		o := Options{Metric: metric.Latency}
		got = written(t, func(w io.Writer) error { return WriteTopDownJSON(w, p, o) })
		if want := jsonBytes(t, refTopDownJSON(p, o)); !bytes.Equal(got, want) {
			t.Fatalf("name %q: top-down JSON differs\ngot:\n%s\nwant:\n%s", s, got, want)
		}
		got = written(t, func(w io.Writer) error { return WriteBottomUpJSON(w, p, o) })
		if want := jsonBytes(t, refBottomUpJSON(p, o)); !bytes.Equal(got, want) {
			t.Fatalf("name %q: bottom-up JSON differs\ngot:\n%s\nwant:\n%s", s, got, want)
		}
		got = written(t, func(w io.Writer) error { return WriteDiffJSON(w, base, p, o.Metric, 0) })
		if want := jsonBytes(t, refDiffJSON(base, p, o.Metric, 0)); !bytes.Equal(got, want) {
			t.Fatalf("name %q: diff JSON differs\ngot:\n%s\nwant:\n%s", s, got, want)
		}
		ph := []temporal.Phase{{Start: 1, End: 2, EndWindow: 1, Label: s, Samples: 3}}
		got = written(t, func(w io.Writer) error { return WritePhasesJSON(w, s, 4096, ph) })
		if want := jsonBytes(t, PhasesReport{Event: s, Width: 4096, Phases: ph}); !bytes.Equal(got, want) {
			t.Fatalf("name %q: phases JSON differs\ngot:\n%s\nwant:\n%s", s, got, want)
		}
	})
}
