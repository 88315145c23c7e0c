package profio

// Section index: v2/v3 files are a sequence of independently framed,
// CRC'd sections, so their boundaries can be located by walking length
// prefixes alone — no payload is decoded, no checksum verified, no string
// touched. IndexSections is that walk over a random-access image; tools
// use it to look inside a file without decoding it.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"dcprof/internal/cct"
)

// SectionKind discriminates the entries of a SectionIndex.
type SectionKind uint8

const (
	// SectionHeader is the identification + string table (+ v3 frame
	// table) section.
	SectionHeader SectionKind = iota
	// SectionTree is one storage-class tree section.
	SectionTree
	// SectionTrailer is a tagged post-footer section (temporal sidecar or
	// a future/unknown magic).
	SectionTrailer
)

// SectionInfo locates one section's payload without decoding it.
type SectionInfo struct {
	// Kind tags the section.
	Kind SectionKind
	// Class is the storage class of a SectionTree entry.
	Class cct.Class
	// Magic is the tag of a SectionTrailer entry.
	Magic uint32
	// Offset is the absolute byte offset of the section payload.
	Offset int64
	// Len is the payload length in bytes.
	Len int64
	// CRC is the stored checksum. Indexing records it without verifying.
	CRC uint32
}

// SectionIndex is the section layout of one v2/v3 profile file.
type SectionIndex struct {
	// Version is the file's format version (Version2 or Version).
	Version uint32
	// FooterCount is the writer-recorded total node count from the footer
	// (whose own integrity is verified during indexing — it is a handful
	// of bytes).
	FooterCount uint64
	// Sections lists every section in file order: header, one tree per
	// storage class, then any trailers.
	Sections []SectionInfo
}

// Header returns the header section entry.
func (ix *SectionIndex) Header() SectionInfo { return ix.Sections[0] }

// Trees returns the storage-class tree section entries in class order.
func (ix *SectionIndex) Trees() []SectionInfo {
	return ix.Sections[1 : 1+cct.NumClasses]
}

// Trailers returns the post-footer trailer section entries.
func (ix *SectionIndex) Trailers() []SectionInfo {
	return ix.Sections[1+cct.NumClasses:]
}

// IndexSections walks a v2/v3 image's framing and returns the location of
// every section. Payloads are skipped, not read: indexing a file costs a
// few dozen bytes of I/O regardless of its size. v1 files have no framing
// and return an error.
func IndexSections(r io.ReaderAt, size int64) (*SectionIndex, error) {
	var pre [8]byte
	if _, err := r.ReadAt(pre[:], 0); err != nil {
		return nil, fmt.Errorf("profio: index: reading preamble: %w", wrapEOF(err))
	}
	if m := binary.LittleEndian.Uint32(pre[:4]); m != Magic {
		return nil, fmt.Errorf("profio: bad magic %#x", m)
	}
	v := binary.LittleEndian.Uint32(pre[4:])
	switch v {
	case Version2, Version:
	case Version1:
		return nil, fmt.Errorf("profio: v1 files have no section framing to index")
	default:
		return nil, fmt.Errorf("profio: unsupported version %d", v)
	}

	ix := &SectionIndex{Version: v}
	off := int64(8)
	uv := func(what string) (uint64, error) {
		var buf [binary.MaxVarintLen64]byte
		n, err := r.ReadAt(buf[:], off)
		if n == 0 {
			return 0, fmt.Errorf("profio: index: %s: %w (%v)", what, ErrTruncated, err)
		}
		u, k := binary.Uvarint(buf[:n])
		if k <= 0 {
			return 0, fmt.Errorf("profio: index: %s: %w (bad varint)", what, ErrTruncated)
		}
		off += int64(k)
		return u, nil
	}
	u32 := func(what string) (uint32, error) {
		var buf [4]byte
		if _, err := r.ReadAt(buf[:], off); err != nil {
			return 0, fmt.Errorf("profio: index: %s: %w", what, wrapEOF(err))
		}
		off += 4
		return binary.LittleEndian.Uint32(buf[:]), nil
	}

	for s := 0; s < 1+cct.NumClasses; s++ {
		what := "header"
		if s > 0 {
			what = fmt.Sprintf("tree %d", s-1)
		}
		n, err := uv(what + " length")
		if err != nil {
			return nil, err
		}
		if n > maxSection {
			return nil, fmt.Errorf("profio: index: %s: unreasonable section size %d", what, n)
		}
		info := SectionInfo{Kind: SectionHeader, Offset: off, Len: int64(n)}
		if s > 0 {
			info.Kind, info.Class = SectionTree, cct.Class(s-1)
		}
		off += int64(n)
		if off+4 > size {
			return nil, fmt.Errorf("profio: index: %s: %w (section exceeds file)", what, ErrTruncated)
		}
		crc, err := u32(what + " checksum")
		if err != nil {
			return nil, err
		}
		info.CRC = crc
		ix.Sections = append(ix.Sections, info)
	}

	// Footer. Its integrity metadata is a few bytes, so indexing verifies
	// it outright.
	fm, err := u32("footer magic")
	if err != nil {
		return nil, err
	}
	if fm != FooterMagic {
		return nil, fmt.Errorf("profio: index: footer: bad magic %#x", fm)
	}
	cntStart := off
	count, err := uv("footer count")
	if err != nil {
		return nil, err
	}
	raw := make([]byte, off-cntStart)
	if _, err := r.ReadAt(raw, cntStart); err != nil {
		return nil, fmt.Errorf("profio: index: footer: %w", wrapEOF(err))
	}
	stored, err := u32("footer checksum")
	if err != nil {
		return nil, err
	}
	if got := crc32.ChecksumIEEE(raw); got != stored {
		telCRCFailures.Inc()
		return nil, fmt.Errorf("profio: index: footer: %w: computed %08x, stored %08x", ErrChecksum, got, stored)
	}
	ix.FooterCount = count

	// Trailers until end of file.
	for off < size {
		m, err := u32("trailer magic")
		if err != nil {
			return nil, err
		}
		n, err := uv("trailer length")
		if err != nil {
			return nil, err
		}
		if n > maxSection {
			return nil, fmt.Errorf("profio: index: trailer %#x: unreasonable section size %d", m, n)
		}
		info := SectionInfo{Kind: SectionTrailer, Magic: m, Offset: off, Len: int64(n)}
		off += int64(n)
		if off+4 > size {
			return nil, fmt.Errorf("profio: index: trailer %#x: %w (section exceeds file)", m, ErrTruncated)
		}
		crc, err := u32("trailer checksum")
		if err != nil {
			return nil, err
		}
		info.CRC = crc
		ix.Sections = append(ix.Sections, info)
	}
	return ix, nil
}
