package profio

import (
	"bytes"
	"encoding/binary"
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
	if err := WriteProfileV2(&fullV2, sampleProfile(3, 17)); err != nil {
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
		// rejects never does.
		if info, verr := ValidateProfile(bytes.NewReader(data)); (verr == nil) != (err == nil) {
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
