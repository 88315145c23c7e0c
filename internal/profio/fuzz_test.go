package profio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"dcprof/internal/cct"
)

// fuzzSeeds builds the shared seed corpus: intact v1, v2, and v3 images
// plus every corruption class we know about — truncation at interesting
// boundaries (including every section seam), flipped section and
// footer checksums, footer-magic and record-count damage, and the
// record-level attacks (bad string index, cyclic/forward parents).
func fuzzSeeds(f *testing.F) {
	var full bytes.Buffer
	if err := WriteProfile(&full, sampleProfile(3, 17)); err != nil {
		f.Fatal(err)
	}
	var fullV2 bytes.Buffer
	if err := referenceWriteProfileV2(&fullV2, sampleProfile(3, 17)); err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if err := WriteProfile(&empty, cct.NewProfile(0, 0, "IBS@4096")); err != nil {
		f.Fatal(err)
	}

	f.Add(full.Bytes())
	f.Add(fullV2.Bytes())
	f.Add(empty.Bytes())
	f.Add(full.Bytes()[:7])               // truncated inside the preamble
	f.Add(full.Bytes()[:full.Len()/2])    // truncated mid-tree
	f.Add(full.Bytes()[:full.Len()-1])    // truncated by one byte
	f.Add([]byte{})                       // empty input
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}) // bad magic
	f.Add(imageWithBadStringIndex())
	f.Add(imageWithCyclicParent())
	f.Add(imageWithForwardParent())

	// Framing mutations over both checksummed formats.
	addFramingSeeds(f, full.Bytes())
	addFramingSeeds(f, fullV2.Bytes())

	// A legacy v1 image keeps the fuzzer exercising the v1 decode path
	// (the v1/v2 record encoding is shared, so patching the v2 image's
	// version byte yields a plausibly-v1 byte stream).
	v1 := append([]byte{}, fullV2.Bytes()...)
	binary.LittleEndian.PutUint32(v1[4:], Version1)
	f.Add(v1)
}

// addFramingSeeds adds the section-framing corruption classes of one
// checksummed (v2/v3) image: cut at every section seam, flip each
// section's trailing CRC byte and a payload byte, and damage the footer
// three ways.
func addFramingSeeds(f *testing.F, img []byte) {
	pos := 8
	for s := 0; s < 1+cct.NumClasses; s++ {
		n, k := binary.Uvarint(img[pos:])
		if k <= 0 {
			f.Fatalf("seed image: bad section %d", s)
		}
		pos += k + int(n) + 4
		f.Add(append([]byte{}, img[:pos]...)) // truncated at section seam
		crcFlip := append([]byte{}, img...)
		crcFlip[pos-1] ^= 0x01 // section CRC byte
		f.Add(crcFlip)
		payloadFlip := append([]byte{}, img...)
		payloadFlip[pos-6] ^= 0x80 // inside section payload
		f.Add(payloadFlip)
	}
	footerMagic := append([]byte{}, img...)
	footerMagic[pos] ^= 0xff
	f.Add(footerMagic)
	footerCount := append([]byte{}, img...)
	footerCount[pos+4] ^= 0x07
	f.Add(footerCount)
	footerCRC := append([]byte{}, img...)
	footerCRC[len(footerCRC)-1] ^= 0x01
	f.Add(footerCRC)
	f.Add(append(append([]byte{}, img...), 0xaa)) // trailing garbage
}

// FuzzReadProfile requires the reader to reject arbitrary, truncated, and
// corrupted inputs with an error — never a panic, hang, or absurd
// allocation. Run `go test -fuzz=FuzzReadProfile ./internal/profio` to
// search beyond the corpus.
func FuzzReadProfile(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accidentally parseable inputs must yield structurally valid,
		// re-encodable profiles.
		_ = p.NumNodes()
		_ = p.Total()
		var out bytes.Buffer
		if err := WriteProfile(&out, p); err != nil {
			t.Fatalf("decoded profile failed to re-encode: %v", err)
		}
	})
}

// FuzzReadV3Profile focuses the fuzzer on the v3 surface — the header
// frame table and the columnar tree sections — and additionally requires
// that anything that decodes survives a full re-encode/re-decode round
// trip with its totals intact (v3 is the write format, so a decodable
// input that could not round-trip would corrupt a rewrite pipeline).
func FuzzReadV3Profile(f *testing.F) {
	var full bytes.Buffer
	if err := WriteProfile(&full, sampleProfile(3, 17)); err != nil {
		f.Fatal(err)
	}
	var dense bytes.Buffer
	if err := WriteProfile(&dense, denseProfile(1, 64)); err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if err := WriteProfile(&empty, cct.NewProfile(0, 0, "IBS@4096")); err != nil {
		f.Fatal(err)
	}
	f.Add(full.Bytes())
	f.Add(dense.Bytes())
	f.Add(empty.Bytes())
	addFramingSeeds(f, full.Bytes())
	addFramingSeeds(f, dense.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProfile(bytes.NewReader(data))
		// Staging alone and staging plus materialising must agree on every
		// input: a stream ValidateProfile accepts always loads, and one it
		// rejects never does — unless it is v1, which loads but never
		// validates.
		v1 := len(data) >= 8 && binary.LittleEndian.Uint32(data) == Magic && binary.LittleEndian.Uint32(data[4:]) == Version1
		if info, verr := ValidateProfile(bytes.NewReader(data)); (verr == nil) != (err == nil && !v1) {
			t.Fatalf("validate says %v, read says %v", verr, err)
		} else if err == nil && info.Nodes != p.NumNodes() {
			t.Fatalf("validate counted %d nodes, read built %d", info.Nodes, p.NumNodes())
		}
		if err != nil {
			return
		}
		_ = p.Total()
		var out bytes.Buffer
		if err := WriteProfile(&out, p); err != nil {
			t.Fatalf("decoded profile failed to re-encode: %v", err)
		}
		back, err := ReadProfile(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded profile failed to decode: %v", err)
		}
		if back.Total() != p.Total() || back.NumNodes() != p.NumNodes() {
			t.Fatalf("re-encode round trip drifted: %d/%v nodes/total vs %d/%v",
				back.NumNodes(), back.Total(), p.NumNodes(), p.Total())
		}
	})
}

// FuzzSalvageProfile holds the degraded path to the same bar as the happy
// path: whatever the input, salvage must not panic, must keep its
// tree accounting consistent, and anything it does recover must be a
// structurally valid, re-encodable profile.
func FuzzSalvageProfile(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := SalvageProfile(bytes.NewReader(data), nil)
		if err != nil {
			return // header unreadable — nothing salvageable
		}
		if s.Profile == nil {
			t.Fatal("nil profile without error")
		}
		if s.Trees+s.Lost != cct.NumClasses {
			t.Fatalf("tree accounting: %d salvaged + %d lost != %d", s.Trees, s.Lost, cct.NumClasses)
		}
		if s.Intact() != (s.Lost == 0 && len(s.Errs) == 0) {
			t.Fatal("Intact() disagrees with its definition")
		}
		_ = s.Profile.NumNodes()
		_ = s.Profile.Total()
		var out bytes.Buffer
		if err := WriteProfile(&out, s.Profile); err != nil {
			t.Fatalf("salvaged profile failed to re-encode: %v", err)
		}
	})
}

// FuzzRowStageMatchesReference holds the staged v1/v2 path to the row
// reader it replaced (reference_rowreader_test.go): on every input that is
// not v3 the two must agree on whether the header reads, on the verdict —
// version, trees recovered and lost, nodes read, intact, sidecar-only —
// and on what was recovered: the same re-encoded profile and the same
// sidecar. Error texts may differ.
func FuzzRowStageMatchesReference(f *testing.F) {
	fuzzSeeds(f)
	v2 := func(b *bytes.Buffer, p *cct.Profile) error { return referenceWriteProfileV2(b, p) }
	tp := temporalProfile(2, 5)
	rows := encode(f, v2, tp)
	// The same trees with the deflated sidecar a v3 writer appends: the
	// trailers are version-independent, so a v2 image may carry either.
	bare := *tp
	bare.Temporal = nil
	cols := encode(f, v2, &bare)
	v3 := encodeV3(f, tp)
	end, err := beforeTrailers(v3)
	if err != nil {
		f.Fatal(err)
	}
	cols = append(cols, v3[end:]...)
	for _, img := range [][]byte{rows, cols} {
		f.Add(img)
		addFramingSeeds(f, img)
		f.Add(img[:len(img)-3]) // cut inside the sidecar
	}
	v1 := encodeV1(f, sampleProfile(3, 17))
	f.Add(v1)
	f.Add(v1[:len(v1)/2])
	f.Add(append(append([]byte{}, v1...), 0xaa)) // v1 has no footer: trailing bytes go unread
	flipped := append([]byte{}, v1...)
	flipped[len(v1)/3] ^= 0x40 // damages the tree it lands in and every one after
	f.Add(flipped)
	f.Add(imageWithSecondRoot())
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) == Version {
			return // the reference reads rows only
		}
		want, werr := referenceSalvage(bytes.NewReader(data), nil)
		got, gerr := SalvageProfile(bytes.NewReader(data), nil)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("header: staged says %v, reference says %v", gerr, werr)
		}
		if werr != nil {
			return
		}
		if got.Version != want.Version || got.Trees != want.Trees || got.Lost != want.Lost ||
			got.NodesRead != want.NodesRead || got.Intact() != want.Intact() || got.SidecarOnly != want.SidecarOnly {
			t.Fatalf("verdicts differ:\n staged    %+v\n reference %+v", got.Staged, want.Staged)
		}
		var gb, wb bytes.Buffer
		gerr, werr = WriteProfile(&gb, got.Profile), WriteProfile(&wb, want.Profile)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) || !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("recovered profiles differ (re-encode errors %v, %v)", gerr, werr)
		}
		if err := sameSeries(got.Profile, want.Profile); err != nil {
			t.Fatal(err)
		}
	})
}
