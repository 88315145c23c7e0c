package profio

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"flag"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

var updateFixtures = flag.Bool("update", false, "rewrite the testdata fixtures")

// rowsFixture is a v3 image of temporalProfile(3, 17) with a "DCPT"
// sidecar, as the reference encoder writes it: the bytes every file
// written before the column block carries.
const rowsFixture = "testdata/v3-dcpt-sidecar.dcprof"

// TestRowSidecarFixture: the old sidecar encoding stays readable. The
// committed image decodes, through the row-agnostic reader and through
// Stage and Apply, to the series that was recorded.
func TestRowSidecarFixture(t *testing.T) {
	want := temporalProfile(3, 17)
	if *updateFixtures {
		img := encode(t, func(b *bytes.Buffer, p *cct.Profile) error { return referenceWriteProfile(b, p) }, want)
		if err := os.WriteFile(rowsFixture, img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	img, err := os.ReadFile(rowsFixture)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := IndexSections(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	if tr := ix.Trailers(); ix.Version != Version || len(tr) != 1 || tr[0].Magic != TemporalRowsMagic {
		t.Fatalf("fixture is v%d with trailers %+v, want v%d with one DCPT trailer", ix.Version, tr, Version)
	}

	got, err := ReadProfile(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	profilesEqual(t, want, got)
	if err := sameSeries(got, want); err != nil {
		t.Fatalf("ReadProfile: %v", err)
	}

	dec := NewDecoder(nil)
	st, err := dec.Stage(bytes.NewReader(img))
	if err != nil || !st.Intact() {
		t.Fatalf("stage: %v, verdict %+v", err, st)
	}
	acc := cct.NewProfile(st.Rank, st.Thread, st.Event)
	acc.Temporal = dec.Apply(acc)
	profilesEqual(t, want, acc)
	if err := sameSeries(acc, want); err != nil {
		t.Fatalf("Stage/Apply: %v", err)
	}
}

// sidecarBytes returns the length of an image's trailers.
func sidecarBytes(t testing.TB, img []byte) int {
	t.Helper()
	n, err := beforeTrailers(img)
	if err != nil {
		t.Fatal(err)
	}
	return len(img) - n
}

// TestSidecarCompact: the gate profile's sidecar, as deflated columns,
// takes at most a third of the bytes the "DCPT" rows took.
func TestSidecarCompact(t *testing.T) {
	p := gateProfile()
	cols := sidecarBytes(t, encodeV3(t, p))
	rows := sidecarBytes(t, encode(t, func(b *bytes.Buffer, p *cct.Profile) error { return referenceWriteProfile(b, p) }, p))
	t.Logf("sidecar: %d B as columns, %d B as rows (%.1fx)", cols, rows, float64(rows)/float64(cols))
	if 3*cols > rows {
		t.Errorf("sidecar takes %d B as columns, %d B as rows: want at most a third", cols, rows)
	}
}

// TestWarmStageAllocs is the allocation gate on the sidecar decoder, as a
// count: staging the gate profile's image — 16,000 sidecar entries — in a
// decoder that has staged it before allocates nothing per entry. The
// inflater, its source and the column scratch are all reused; what is
// left is compress/flate building the overflow tables of each dynamic
// Huffman block's longer codes (some 30 here, a few dozen per 64 KiB of
// column block), where a decoder that allocated per entry or per window
// would make thousands.
func TestWarmStageAllocs(t *testing.T) {
	img := encodeV3(t, gateProfile())
	dec := NewDecoder(NewIntern())
	rd := bytes.NewReader(img)
	step := func() {
		rd.Reset(img)
		st, err := dec.Stage(rd)
		if err != nil || !st.Intact() {
			t.Fatalf("stage: %v, verdict %+v", err, st)
		}
	}
	step()
	if !dec.haveTS || len(dec.series.refs) != 16000 {
		t.Fatalf("staged %d sidecar entries, want 16000", len(dec.series.refs))
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > 64 {
		t.Errorf("warm stage of a 16,000-entry sidecar made %.0f allocations, want <= 64", allocs)
	}
}

// deflateBomb returns a deflate stream of about size bytes that inflates
// to about a thousand times that: copies of one sync-flushed block of a
// MiB of zeros, then a final empty block.
func deflateBomb(size int) []byte {
	var b bytes.Buffer
	fw, _ := flate.NewWriter(&b, flate.BestCompression)
	fw.Write(make([]byte, 1<<20))
	fw.Flush()
	unit := append([]byte{}, b.Bytes()...)
	b.Reset()
	fw.Close()
	var out []byte
	for len(out)+len(unit)+b.Len() <= size {
		out = append(out, unit...)
	}
	return append(out, b.Bytes()...)
}

// TestSidecarDeflateBomb: a checksum-valid 64 KiB deflate bomb after a
// valid image fails validation having allocated no more than maxStage×
// the bomb plus 1 MiB — whether it claims the largest block the cap
// admits or the one it would really produce — and salvage keeps every
// tree, windowless.
func TestSidecarDeflateBomb(t *testing.T) {
	base := encodeV3(t, sampleProfile(3, 17))
	bomb := deflateBomb(64 << 10)
	budget := uint64(maxStage*len(bomb) + 1<<20)
	for _, claim := range []uint64{maxStage * uint64(len(bomb)), 1 << 29} {
		img := appendTrailer(base, TemporalMagic, append(binary.AppendUvarint(nil, claim), bomb...))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := ValidateProfile(bytes.NewReader(img))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("claim %d: a deflate bomb validated", claim)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("claim %d: a %d B bomb, %d B allocated, budget %d", claim, len(bomb), alloc, budget)
		if alloc > budget {
			t.Errorf("claim %d: rejecting a %d B bomb allocated %d B, want <= %d", claim, len(bomb), alloc, budget)
		}
		s, err := SalvageProfile(bytes.NewReader(img), nil)
		if err != nil {
			t.Fatal(err)
		}
		if s.Trees != cct.NumClasses || s.Lost != 0 || s.Profile.Temporal != nil || !s.SidecarOnly {
			t.Errorf("claim %d: salvage kept %d trees, lost %d, sidecar %v, sidecar-only %v",
				claim, s.Trees, s.Lost, s.Profile.Temporal != nil, s.SidecarOnly)
		}
		profilesEqual(t, sampleProfile(3, 17), s.Profile)
	}
}

// padDeflate deflates block as the encoder does, sync-flushing before it
// closes the stream until the stream holds at least least bytes.
func padDeflate(block []byte, least int) []byte {
	var z bytes.Buffer
	fw, _ := flate.NewWriter(&z, flate.BestSpeed)
	fw.Write(block)
	for z.Len() < least {
		fw.Flush()
	}
	fw.Close()
	return z.Bytes()
}

// hostileBlock returns a structurally valid column block for p's trees
// that is as small as staging it is dear — one run of windows, each with
// entries at the first per positions and, when valued, every metric of
// every entry set to 1 — and its window, entry and value counts.
func hostileBlock(p *cct.Profile, windows, per int, valued bool) ([]byte, [3]uint64) {
	b := binary.AppendUvarint(nil, 1)
	for _, t := range p.Trees {
		b = binary.AppendUvarint(b, uint64(t.NumNodes()))
	}
	b = append(b, 1, 0) // one run, from window 0
	b = binary.AppendUvarint(b, uint64(windows))
	for w := 0; w < windows; w++ {
		b = binary.AppendUvarint(b, uint64(per))
	}
	entries := windows * per
	for w := 0; w < windows; w++ {
		for k := 0; k < per; k++ {
			b = append(b, byte(min(k, 1))) // position 0, then steps of 1
		}
	}
	mask, values := uint64(0), 0
	if valued {
		mask, values = 1<<metric.NumMetrics-1, int(metric.NumMetrics)*entries
	}
	for i := 0; i < entries; i++ {
		b = binary.AppendUvarint(b, mask)
	}
	for i := 0; i < values; i++ {
		b = append(b, 1)
	}
	return b, [3]uint64{uint64(windows), uint64(entries), uint64(values)}
}

// TestSidecarStagingBudget: deflated sidecars whose blocks are valid but
// cost far more to stage than to store — empty windows, entries of two
// bytes, one-byte values — validate within maxStage× the sidecar plus
// 1 MiB. Padded to the stageCost of all but their dearest column they are
// refused before that column is allocated; padded to their whole
// stageCost they are accepted, and read back.
func TestSidecarStagingBudget(t *testing.T) {
	p := sampleProfile(3, 17)
	base := encodeV3(t, p)
	nodes := 0
	for _, tr := range p.Trees {
		nodes += tr.NumNodes()
	}
	for _, tc := range []struct {
		name   string
		per    int
		valued bool
		dear   int // the column the block is dear in: windows, entries, values
	}{{"empty windows", 0, false, 0}, {"bare entries", nodes, false, 1}, {"valued entries", nodes, true, 2}} {
		for _, accept := range []bool{false, true} {
			// Double the windows until the padded stream reaches 64 KiB.
			var block []byte
			var least int
			for windows := 1; least < 64<<10; windows *= 2 {
				var n [3]uint64
				block, n = hostileBlock(p, windows, tc.per, tc.valued)
				if !accept {
					clear(n[tc.dear:])
				}
				least = int((stageCost(uint64(len(block)), n[0], n[1], n[2]) + maxStage - 1) / maxStage)
			}
			payload := append(binary.AppendUvarint(nil, uint64(len(block))), padDeflate(block, least)...)
			img := appendTrailer(base, TemporalMagic, payload)

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			_, err := ValidateProfile(bytes.NewReader(img))
			runtime.ReadMemStats(&after)
			alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(maxStage*len(payload)+1<<20)
			t.Logf("%s, accept %v: %d B sidecar, %d B allocated, budget %d: %v",
				tc.name, accept, len(payload), alloc, budget, err)
			if alloc > budget {
				t.Errorf("%s, accept %v: validating a %d B sidecar allocated %d B, want <= %d",
					tc.name, accept, len(payload), alloc, budget)
			}
			if !accept {
				if err == nil || !strings.Contains(err.Error(), "staging cap") {
					t.Errorf("%s padded short of its stageCost: %v, want the staging cap", tc.name, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s padded to its stageCost: %v", tc.name, err)
			}
			got, err := ReadProfile(bytes.NewReader(img))
			if err != nil || got.Temporal == nil || len(got.Temporal.Windows[0].Deltas) != tc.per {
				t.Fatalf("%s padded to its stageCost: read back %v", tc.name, err)
			}
		}
	}
}

// TestSidecarRatioCapRoundTrip: 100,000 identical windows deflate far
// better than the decoder's staging cap admits. The encoder pads the
// stream to the cap instead, and the series comes back exactly.
func TestSidecarRatioCapRoundTrip(t *testing.T) {
	p := temporalProfile(1, 2)
	same := p.Temporal.Windows[0]
	p.Temporal.Windows = make([]cct.TimeWindow, 100000)
	for i := range p.Temporal.Windows {
		p.Temporal.Windows[i] = cct.TimeWindow{Index: uint64(i), Deltas: same.Deltas, Vals: same.Vals}
	}
	img := encodeV3(t, p)

	// Staging the trailer sits just under the cap, and a plain stream of
	// its block would have gone over.
	ix, err := IndexSections(bytes.NewReader(img), int64(len(img)))
	if err != nil {
		t.Fatal(err)
	}
	tr := ix.Trailers()[0]
	payload := img[tr.Offset : tr.Offset+tr.Len]
	rawLen, k := binary.Uvarint(payload)
	z := uint64(len(payload) - k)
	dec := NewDecoder(nil)
	if st, err := dec.Stage(bytes.NewReader(img)); err != nil || !st.Intact() {
		t.Fatalf("stage: %v, verdict %+v", err, st)
	}
	s := &dec.series
	cost := stageCost(rawLen, uint64(len(s.wins)), uint64(len(s.refs)), uint64(len(s.vals)))
	if cost > maxStage*z || cost <= (maxStage-1)*z {
		t.Errorf("%d B to stage from a %d B stream: want a ratio just under %d", cost, z, maxStage)
	}
	block, err := inflateAll(payload[k:])
	if err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	fw, _ := flate.NewWriter(&plain, flate.BestSpeed)
	fw.Write(block)
	fw.Close()
	if cost <= maxStage*uint64(plain.Len()) {
		t.Fatalf("the block deflates to %d B without padding, within the cap: the test does not reach it", plain.Len())
	}

	got, err := ReadProfile(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSeries(got, p); err != nil {
		t.Fatal(err)
	}
}

func inflateAll(z []byte) ([]byte, error) {
	var out bytes.Buffer
	_, err := out.ReadFrom(flate.NewReader(bytes.NewReader(z)))
	return out.Bytes(), err
}

// seriesFromBytes hangs a sidecar on p built from data: per window an
// index step (runs, gaps and repeats), a few nodes — repeats included —
// and sparse metric values of every magnitude.
func seriesFromBytes(p *cct.Profile, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	nodes, classes := preOrder(p)
	ts := &cct.TimeSeries{Width: uint64(next()<<8|next()) + 1}
	index := uint64(next()) << uint(next()%40)
	for len(data) > 0 {
		switch step := next(); {
		case step < 128:
			index++
		case step < 192:
			index += uint64(step - 126)
		case step < 224:
		default:
			index -= uint64(step-223) % (index + 1)
		}
		w := cct.TimeWindow{Index: index}
		for d := next() % 9; d > 0; d-- {
			i := (next()<<8 | next()) % len(nodes)
			var v metric.Vector
			for mask, m := next()|next()<<8, 0; m < int(metric.NumMetrics); m++ {
				if mask>>m&1 == 1 {
					v[m] = uint64(next()+1) << uint(next()%56)
				}
			}
			w.Add(classes[i], nodes[i], &v)
		}
		ts.Windows = append(ts.Windows, w)
	}
	if len(ts.Windows) > 0 {
		p.Temporal = ts
	}
}

// FuzzSidecarRoundTrip: whatever series the input builds, reading its
// encoding back returns it, after the encoder's sort and coalesce — in
// both formats.
func FuzzSidecarRoundTrip(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 16, 3, 8, 0, 4, 0, 0, 1, 3, 7, 200, 0, 9, 1, 0, 2, 5, 130, 2, 0, 1, 1, 0, 255, 3})
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 400<<i)
		rng.Read(seed)
		f.Add(int64(i), seed)
	}
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		p := randomProfile(seed)
		seriesFromBytes(p, data)
		for version, write := range map[string]func(*bytes.Buffer, *cct.Profile) error{
			"v3": func(b *bytes.Buffer, p *cct.Profile) error { return WriteProfile(b, p) },
			"v2": func(b *bytes.Buffer, p *cct.Profile) error { return referenceWriteProfileV2(b, p) },
		} {
			got, err := ReadProfile(bytes.NewReader(encode(t, write, p)))
			if err != nil {
				t.Fatalf("%s: %v", version, err)
			}
			if err := sameSeries(got, p); err != nil {
				t.Fatalf("%s: %v", version, err)
			}
		}
	})
}
