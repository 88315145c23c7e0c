package profio

import (
	"bytes"
	"fmt"
	"testing"

	"dcprof/internal/cct"
)

func encode(t testing.TB, enc func(*bytes.Buffer, *cct.Profile) error, p *cct.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := enc(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeV3(t testing.TB, p *cct.Profile) []byte {
	return encode(t, func(b *bytes.Buffer, p *cct.Profile) error { return WriteProfile(b, p) }, p)
}

// TestStageApplyWarmAllocs is the allocation gate on the decoder, as a
// count: staging a dense file whose strings, frames and calling contexts
// the decoder and the accumulator have seen before, and applying it, may
// make at most 4 allocations (it makes none today). This is the
// steady state of a many-thousand-file load, where thread files repeat
// one another; a decoder that went back to per-section readers, per-file
// tables or per-file trees would allocate hundreds here.
func TestStageApplyWarmAllocs(t *testing.T) {
	img := encodeV3(t, denseProfile(1, 64))
	dec := NewDecoder(NewIntern())
	acc := cct.NewProfile(0, 0, "")
	rd := bytes.NewReader(img)
	step := func() {
		rd.Reset(img)
		st, err := dec.Stage(rd)
		if err != nil || !st.Intact() {
			t.Fatalf("stage: %v, verdict %+v", err, st)
		}
		dec.Apply(acc)
	}
	step() // warm: interns the frames, builds the contexts, sizes the scratch
	if allocs := testing.AllocsPerRun(200, step); allocs > 4 {
		t.Errorf("stage + apply of an already-seen dense file made %.0f allocations, want <= 4", allocs)
	}
	// The accumulator really did take every application.
	want := denseProfile(1, 64).Total()
	got := acc.Total()
	for m := range want {
		if got[m] != want[m]*202 {
			t.Fatalf("metric %d: accumulated %d over 202 applications, one file holds %d", m, got[m], want[m])
		}
	}
}

// TestValidateBuildsNoTrees: the upload path validates by staging alone,
// so it must not pay for a single CCT node. Every node is an allocation
// of its own, so a validation that made fewer allocations than the file
// has nodes cannot have built the trees.
func TestValidateBuildsNoTrees(t *testing.T) {
	p := denseProfile(1, 64)
	img := encodeV3(t, p)
	nodes := p.NumNodes()
	rd := bytes.NewReader(img)
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(img)
		info, err := ValidateProfile(rd)
		if err != nil || info.Nodes != nodes {
			t.Fatalf("validate: %v, %d nodes, want %d", err, info.Nodes, nodes)
		}
	})
	t.Logf("%d nodes, %.0f allocations per validation", nodes, allocs)
	if allocs >= float64(nodes)/2 {
		t.Errorf("validating a %d-node file made %.0f allocations; staging must not build nodes", nodes, allocs)
	}
}

// TestDecoderReuseIsHistoryFree: a decoder's scratch and caches carry over
// from file to file, its verdicts and output must not. One decoder is fed
// intact, truncated, bit-flipped, sidecar-carrying, footer-damaged and v2
// images in a row (and the first one again); after each, its verdict and
// what it materialises must equal a fresh decoder's.
func TestDecoderReuseIsHistoryFree(t *testing.T) {
	a := encodeV3(t, denseProfile(1, 64))
	b := encodeV3(t, sampleProfile(3, 17))
	c := encodeV3(t, temporalProfile(2, 5))
	v2 := encode(t, func(buf *bytes.Buffer, p *cct.Profile) error { return referenceWriteProfileV2(buf, p) }, temporalProfile(4, 1))
	flip := func(img []byte, at int) []byte {
		out := append([]byte{}, img...)
		out[at] ^= 0x20
		return out
	}
	bounds := sectionBoundaries(t, b)
	seq := []struct {
		name string
		img  []byte
	}{
		{"dense", a},
		{"sidecar", c},
		{"truncated mid-tree", a[:len(a)*2/3]},
		{"small", b},
		{"second tree flipped", flip(b, bounds[1]+3)},
		{"last tree flipped", flip(b, bounds[cct.NumClasses-1]+3)},
		{"footer count", flip(b, len(b)-5)},
		{"sidecar payload flipped", flip(c, len(c)-9)},
		{"header cut", a[:20]},
		{"v2 sidecar", v2},
		{"empty", nil},
		{"dense again", a},
		{"sidecar again", c},
	}
	describe := func(dec *Decoder, img []byte) string {
		st, err := dec.Stage(bytes.NewReader(img))
		if err != nil {
			return "unreadable: " + err.Error()
		}
		var errs []string
		for _, e := range st.Errs {
			errs = append(errs, e.Error())
		}
		p := dec.materialize()
		return fmt.Sprintf("r%d t%d %q v%d bytes=%d trees=%d lost=%d nodes=%d sidecarOnly=%v errs=%q image=%x",
			st.Rank, st.Thread, st.Event, st.Version, st.Bytes, st.Trees, st.Lost, st.NodesRead, st.SidecarOnly,
			errs, encodeV3(t, p))
	}
	reused := NewDecoder(nil)
	for _, s := range seq {
		got, want := describe(reused, s.img), describe(NewDecoder(nil), s.img)
		if got != want {
			t.Errorf("%s: reused decoder disagrees with a fresh one:\n got %s\nwant %s", s.name, got, want)
		}
	}
}
