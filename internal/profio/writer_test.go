package profio

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// preOrder returns every node of p's trees, class by class in Walk order.
func preOrder(p *cct.Profile) (nodes []*cct.Node, classes []cct.Class) {
	for c, t := range p.Trees {
		t.Walk(func(n *cct.Node, _ int) bool {
			nodes = append(nodes, n)
			classes = append(classes, cct.Class(c))
			return true
		})
	}
	return nodes, classes
}

// randomSeries hangs a sidecar on p: windows over random nodes in random
// node order, some of them empty, some deltas all-zero. With tidy unset
// the windows also arrive out of index order and repeat, and a window may
// name one node twice — everything the recorder never produces but the
// encoder's input type admits.
func randomSeries(rng *rand.Rand, p *cct.Profile, windows int, tidy bool) *cct.TimeSeries {
	nodes, classes := preOrder(p)
	ts := &cct.TimeSeries{Width: uint64(rng.Intn(1<<20) + 1)}
	index := uint64(rng.Intn(1000))
	for w := 0; w < windows; w++ {
		win := cct.TimeWindow{Index: index}
		if tidy {
			index += uint64(rng.Intn(3) + 1)
		} else {
			index = uint64(rng.Intn(2 * windows))
		}
		for _, i := range rng.Perm(len(nodes))[:rng.Intn(min(len(nodes), 12)+1)] {
			var d metric.Vector
			for m := range d {
				if rng.Intn(3) == 0 {
					d[m] = rng.Uint64() >> uint(rng.Intn(64))
				}
			}
			win.Add(classes[i], nodes[i], &d)
			if !tidy && rng.Intn(4) == 0 {
				win.Add(classes[i], nodes[i], &d)
			}
		}
		ts.Windows = append(ts.Windows, win)
	}
	return ts
}

// requireReferenceBytes fails unless the encoder and the reference encoder
// agree on p (see sameImage), and EncodedSize on the length.
func requireReferenceBytes(t testing.TB, name string, p *cct.Profile) {
	t.Helper()
	ref := func(b *bytes.Buffer, p *cct.Profile) error { return referenceWriteProfile(b, p) }
	if err := sameImage(encodeV3(t, p), encode(t, ref, p)); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	n, err := EncodedSize(p)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(encodeV3(t, p)); n != int64(want) {
		t.Fatalf("%s: EncodedSize = %d, WriteProfile wrote %d", name, n, want)
	}
}

// sameImage compares an encoder's image with the reference encoder's:
// they must agree to the byte up to and including the footer, and their
// trailers must decode to the same series. The reference writes the
// "DCPT" rows, the encoder the deflated columns, whose bytes are stable
// only within one toolchain — so the trailers are compared by what they
// decode to, never by their bytes.
func sameImage(got, want []byte) error {
	gp, err := beforeTrailers(got)
	if err != nil {
		return fmt.Errorf("encoder image: %w", err)
	}
	wp, err := beforeTrailers(want)
	if err != nil {
		return fmt.Errorf("reference image: %w", err)
	}
	if !bytes.Equal(got[:gp], want[:wp]) {
		at := 0
		for at < gp && at < wp && got[at] == want[at] {
			at++
		}
		return fmt.Errorf("encoder (%d bytes to the footer) and reference (%d) differ at offset %d", gp, wp, at)
	}
	g, err := ReadProfile(bytes.NewReader(got))
	if err != nil {
		return fmt.Errorf("reading the encoder's image: %w", err)
	}
	w, err := ReadProfile(bytes.NewReader(want))
	if err != nil {
		return fmt.Errorf("reading the reference image: %w", err)
	}
	return sameSeries(g, w)
}

// beforeTrailers returns the length of a v2/v3 image up to and including
// its footer.
func beforeTrailers(img []byte) (int, error) {
	ix, err := IndexSections(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		return 0, err
	}
	tr := ix.Trailers()
	if len(tr) == 0 {
		return len(img), nil
	}
	var n [binary.MaxVarintLen64]byte
	return int(tr[0].Offset) - 4 - binary.PutUvarint(n[:], uint64(tr[0].Len)), nil
}

// flatDelta is one entry of a canonical series: a window marker (node
// -1) or a delta, its node named by its pre-order index in its class
// tree.
type flatDelta struct {
	index   uint64
	class   cct.Class
	node    int
	metrics metric.Vector
}

// flatSeries is p's sidecar the way the format stores it: windows in
// index order, each index once, its deltas summed per node and in
// (class, pre-order index) order.
func flatSeries(p *cct.Profile) (uint64, []flatDelta) {
	if p.Temporal == nil || len(p.Temporal.Windows) == 0 {
		return 0, nil
	}
	pos := map[*cct.Node]int{}
	for _, t := range p.Trees {
		i := 0
		t.Walk(func(n *cct.Node, _ int) bool {
			pos[n] = i
			i++
			return true
		})
	}
	type key struct {
		class cct.Class
		node  int
	}
	byIndex := map[uint64]map[key]metric.Vector{}
	for _, w := range p.Temporal.Windows {
		m := byIndex[w.Index]
		if m == nil {
			m = map[key]metric.Vector{}
			byIndex[w.Index] = m
		}
		for i := range w.Deltas {
			d := &w.Deltas[i]
			k := key{d.Class, pos[d.Node]}
			v, dv := m[k], w.Metrics(i)
			v.Add(&dv)
			m[k] = v
		}
	}
	var indices []uint64
	for index := range byIndex {
		indices = append(indices, index)
	}
	slices.Sort(indices)
	var out []flatDelta
	for _, index := range indices {
		out = append(out, flatDelta{index: index, node: -1})
		m := byIndex[index]
		var keys []key
		for k := range m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(a, b key) int {
			return cmp.Or(cmp.Compare(a.class, b.class), cmp.Compare(a.node, b.node))
		})
		for _, k := range keys {
			out = append(out, flatDelta{index, k.class, k.node, m[k]})
		}
	}
	return p.Temporal.Width, out
}

// sameSeries fails unless a and b carry the same series, up to the
// encoder's sort and coalesce.
func sameSeries(a, b *cct.Profile) error {
	wa, fa := flatSeries(a)
	wb, fb := flatSeries(b)
	if wa != wb || len(fa) != len(fb) {
		return fmt.Errorf("series differ: width %d vs %d, %d vs %d windows and deltas", wa, wb, len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			return fmt.Errorf("series differ at entry %d: %+v vs %+v", i, fa[i], fb[i])
		}
	}
	return nil
}

// TestEncoderMatchesReference: the slice encoder writes the bytes the
// bufio/map encoder it replaced wrote (writer_reference_test.go), for
// random profiles with and without sidecars, for the series shapes only
// the coalescing handles, and for the package's fixtures.
func TestEncoderMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomProfile(seed)
		requireReferenceBytes(t, "plain", p)
		p.Temporal = randomSeries(rng, p, rng.Intn(40)+1, true)
		requireReferenceBytes(t, "tidy sidecar", p)
		p.Temporal = randomSeries(rng, p, rng.Intn(40)+1, false)
		requireReferenceBytes(t, "untidy sidecar", p)
		return !t.Failed()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}

	// A re-opened window (Series, keep recording, Series) between others,
	// its deltas out of node order and naming the same nodes again.
	p := temporalProfile(1, 2)
	w := p.Temporal.Windows
	one := func(samples uint64) metric.Vector { return metric.Vector{metric.Samples: samples} }
	heap, static := w[0].Deltas[1].Node, w[0].Deltas[0].Node
	p.Temporal.Windows = []cct.TimeWindow{w[0], w[1],
		window(1,
			delta{cct.ClassHeap, heap, one(5)},
			delta{cct.ClassHeap, heap.Parent(), one(7)},
			delta{cct.ClassStatic, static, one(1)},
			delta{cct.ClassHeap, heap, one(2)},
		),
		{Index: 1}, w[2], {Index: 9}}
	requireReferenceBytes(t, "re-opened window", p)
	got, err := ReadProfile(bytes.NewReader(encodeV3(t, p)))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.Temporal.Windows); n != 4 {
		t.Fatalf("re-opened window: decoded %d windows, want 4 (0, 1, 7, 9)", n)
	}
	for i, d := range got.Temporal.Windows[1].Deltas {
		if d.Class == cct.ClassHeap && d.Node.NumChildren() == 0 && got.Temporal.Windows[1].Metrics(i)[metric.Samples] != 1+5+2 {
			t.Errorf("re-opened window: heap leaf has %d samples, want 8", got.Temporal.Windows[1].Metrics(i)[metric.Samples])
		}
	}

	for name, p := range map[string]*cct.Profile{
		"sampleProfile":   sampleProfile(3, 17),
		"temporalProfile": temporalProfile(3, 17),
		"denseProfile":    denseProfile(5, 400),
		"cctSmall":        cctSmall(),
		"empty":           cct.NewProfile(0, 0, ""),
		"negative ids":    cct.NewProfile(-1, -7, "IBS@1"),
	} {
		requireReferenceBytes(t, name, p)
	}
}

// TestEncoderRejects: what the encoder refuses, it refuses before a byte
// reaches the writer.
func TestEncoderRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		mutate func(*cct.Profile)
		want   string
	}{
		"nil tree": {func(p *cct.Profile) { p.Trees[cct.ClassHeap] = nil },
			"profio: profile has no heap data tree"},
		"rootless tree": {func(p *cct.Profile) { p.Trees[cct.ClassNonMem] = &cct.Tree{} },
			"profio: profile has no no memory access tree"},
		"zero width": {func(p *cct.Profile) { p.Temporal.Width = 0 },
			"profio: temporal sidecar has zero window width"},
		"class out of range": {func(p *cct.Profile) { p.Temporal.Windows[1].Deltas[0].Class = 9 },
			"profio: temporal delta class 9 out of range"},
		"node of another tree": {func(p *cct.Profile) { p.Temporal.Windows[1].Deltas[0].Class = cct.ClassUnknown },
			"profio: temporal delta references a node outside the unknown data tree"},
		"node of another profile": {func(p *cct.Profile) { p.Temporal.Windows[2].Deltas[0].Node = cct.New().Root },
			"profio: temporal delta references a node outside the heap data tree"},
		"nil node": {func(p *cct.Profile) { p.Temporal.Windows[0].Deltas[0].Node = nil },
			"profio: temporal delta references a node outside the static data tree"},
	} {
		p := temporalProfile(0, 0)
		tc.mutate(p)
		var buf bytes.Buffer
		err := WriteProfile(&buf, p)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", name, err, tc.want)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: %d bytes written before the error", name, buf.Len())
		}
	}
	if _, err := EncodedSize(temporalProfile(0, 0)); err != nil {
		t.Errorf("a pooled encoder does not recover from a rejected profile: %v", err)
	}
	requireReferenceBytes(t, "after rejects", temporalProfile(0, 0))
}

// callWriter counts Write calls and bytes, and fails them all when err is
// set.
type callWriter struct {
	calls int
	n     int64
	err   error
}

func (w *callWriter) Write(b []byte) (int, error) {
	w.calls++
	if w.err != nil {
		return 0, w.err
	}
	w.n += int64(len(b))
	return len(b), nil
}

// TestWriteProfileIsOneWrite: the image reaches the writer in a single
// call, and the writer's error comes back.
func TestWriteProfileIsOneWrite(t *testing.T) {
	p := temporalProfile(1, 1)
	var w callWriter
	if err := WriteProfile(&w, p); err != nil {
		t.Fatal(err)
	}
	if n, _ := EncodedSize(p); w.calls != 1 || w.n != n {
		t.Errorf("%d Write calls carrying %d bytes, want 1 carrying %d", w.calls, w.n, n)
	}
	full := callWriter{err: errors.New("disk full")}
	if err := WriteProfile(&full, p); !errors.Is(err, full.err) || full.calls != 1 {
		t.Errorf("failing writer: error %v after %d calls", err, full.calls)
	}
}

// gateProfile is the allocation gate's subject: a 9,841-node heap tree
// (every path of eight calls with three callees each, over twelve
// functions) and a 2,000-window sidecar spread over it.
func gateProfile() *cct.Profile {
	p := cct.NewProfile(0, 0, "IBS@1")
	v := metric.Vector{metric.Samples: 3, metric.Latency: 900}
	for leaf := 0; leaf < 6561; leaf++ {
		path := make([]cct.Frame, 8)
		for d, k := 0, leaf; d < len(path); d, k = d+1, k/3 {
			path[d] = cct.Frame{Kind: cct.KindCall, Module: "exe",
				Name: fmt.Sprintf("fn%02d", k%3+3*(d%4)), File: "f.c", Line: 10 * d}
		}
		p.Trees[cct.ClassHeap].AddSample(path, &v)
	}
	nodes, classes := preOrder(p)
	ts := &cct.TimeSeries{Width: 65536}
	for w := 0; w < 2000; w++ {
		win := cct.TimeWindow{Index: uint64(3 * w)}
		for k := 0; k < 8; k++ {
			i := (w*131 + k*977) % len(nodes)
			win.Add(classes[i], nodes[i], &metric.Vector{metric.Samples: uint64(k + 1), metric.Latency: uint64(w)})
		}
		ts.Windows = append(ts.Windows, win)
	}
	p.Temporal = ts
	return p
}

// TestWarmEncodeAllocs is the allocation gate on the writer, as a count:
// encoding a 10k-node profile with a 2k-window sidecar into an encoder
// that has seen it before may make at most 2 allocations (it makes none
// today). An encoder that went back to per-section buffers, per-tree maps
// or per-window scratch would make thousands.
func TestWarmEncodeAllocs(t *testing.T) {
	p := gateProfile()
	if n := p.NumNodes(); n != 9841+3 {
		t.Fatalf("gate profile has %d nodes, want 9,844", n)
	}
	requireReferenceBytes(t, "gate profile", p)
	e := &encoder{strs: make(map[string]uint32)}
	run := func() {
		if err := e.encode(p); err != nil {
			t.Fatal(err)
		}
		e.reset()
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs > 2 {
		t.Errorf("warm encode made %.0f allocations, want <= 2", allocs)
	}
}

func BenchmarkEncodeSidecar(b *testing.B) {
	p := gateProfile()
	n, err := EncodedSize(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodedSize(p); err != nil {
			b.Fatal(err)
		}
	}
}

// profileFromBytes reads data as a program that builds a profile: samples
// at short paths over a small symbol set, then — when it asks for one — a
// sidecar whose windows may repeat, run backwards and name a node twice.
func profileFromBytes(data []byte) *cct.Profile {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	vector := func() (v metric.Vector) {
		for mask, m := next(), 0; m < len(v); m++ {
			if mask>>(m%8)&1 == 1 {
				v[m] = uint64(next()) << uint(next()%57)
			}
		}
		return v
	}
	names := [...]string{"main", "solve", "", "kernel_07", "α"}
	p := cct.NewProfile(next(), next(), fmt.Sprintf("IBS@%d", next()))
	var nodes []*cct.Node
	var classes []cct.Class
	for n := next() % 48; n > 0 && len(data) > 0; n-- {
		class := cct.Class(next() % cct.NumClasses)
		path := make([]cct.Frame, next()%5+1)
		for i := range path {
			b := next()
			path[i] = cct.Frame{Kind: cct.Kind(1 + b%5), Module: names[b>>3%5], Name: names[b>>5%5], File: "f.c", Line: next()}
		}
		v := vector()
		nodes = append(nodes, p.Trees[class].AddSample(path, &v))
		classes = append(classes, class)
	}
	if len(nodes) == 0 || next()%2 == 0 {
		return p
	}
	p.Temporal = &cct.TimeSeries{Width: uint64(next()) + 1}
	for w := next()%16 + 1; w > 0; w-- {
		win := cct.TimeWindow{Index: uint64(next() % 8)}
		for d := next() % 6; d > 0; d-- {
			i := next() % len(nodes)
			v := vector()
			win.Add(classes[i], nodes[i], &v)
		}
		p.Temporal.Windows = append(p.Temporal.Windows, win)
	}
	return p
}

// FuzzEncodeMatchesReference: whatever profile the input builds, the
// encoder and the reference encoder write the same bytes, and reading
// them back returns the profile's totals, per window too.
func FuzzEncodeMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 17, 64, 5, 1, 2, 0x4b, 10, 0xff, 9, 3, 200, 40, 2, 1, 0x93, 77, 3, 1, 0, 1, 8, 3, 7, 2, 0, 3, 1, 1, 0, 3, 5, 5})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 600)
		rng.Read(seed)
		seed[3] = 47 // a full complement of samples
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := profileFromBytes(data)
		requireReferenceBytes(t, "fuzz", p)
		got, err := ReadProfile(bytes.NewReader(encodeV3(t, p)))
		if err != nil {
			t.Fatalf("reading the encoding back: %v", err)
		}
		if got.Total() != p.Total() || got.NumNodes() != p.NumNodes() {
			t.Fatalf("round trip: %d nodes totalling %v, wrote %d totalling %v",
				got.NumNodes(), got.Total(), p.NumNodes(), p.Total())
		}
		perWindow := func(ts *cct.TimeSeries) map[uint64]metric.Vector {
			sums := map[uint64]metric.Vector{}
			if ts == nil {
				return sums
			}
			for _, w := range ts.Windows {
				v := sums[w.Index]
				for i := range w.Deltas {
					dv := w.Metrics(i)
					v.Add(&dv)
				}
				sums[w.Index] = v
			}
			return sums
		}
		want, have := perWindow(p.Temporal), perWindow(got.Temporal)
		if len(want) != len(have) {
			t.Fatalf("round trip: %d windows, wrote %d", len(have), len(want))
		}
		for index, v := range want {
			if have[index] != v {
				t.Fatalf("round trip: window %d totals %v, wrote %v", index, have[index], v)
			}
		}
	})
}
