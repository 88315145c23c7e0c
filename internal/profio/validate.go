package profio

// Ingest validation: the continuous-profiling service accepts profile
// uploads from the network, where "trust the writer" — the assumption the
// CLI loaders make about dcprof's own output — does not hold. An upload is
// admitted into a collection only after a full decode under the same CRC
// and structural checks the reader applies, so everything under a final
// name in a collection directory is known readable before any query ever
// touches it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// ValidateInfo summarizes a profile stream that passed validation.
type ValidateInfo struct {
	// Rank, Thread, and Event identify the producer, from the header.
	Rank, Thread int
	Event        string
	// Version is the format version (Version2 or Version).
	Version uint32
	// Nodes counts the CCT node records decoded across all class trees.
	Nodes int
	// Bytes is the total stream length consumed.
	Bytes int64
}

// ValidateProfile stages one profile stream — every check the strict
// reader applies, no tree built — and reports what it found. It fails on
// anything the strict reader would fail on: bad magic or version, framing
// damage, checksum mismatches, truncation, record-level corruption, or
// trailing bytes — the exported seam the upload path of the profiling
// service rejects payloads through. It also fails a v1 stream, from its
// 8-byte preamble and before buffering the rest: without per-section CRCs
// the service could not tell at-rest damage from writer output later.
//
// Validation is the reader's own staging step rather than a cheaper frame
// walk: a stream that validates is guaranteed mergeable, so an accepted
// upload can never later poison a collection's queries.
func ValidateProfile(r io.Reader) (ValidateInfo, error) {
	var pre [8]byte
	n, err := io.ReadFull(r, pre[:])
	switch {
	case err == io.ErrUnexpectedEOF:
		r = errReader{io.EOF} // the stream ended inside the preamble
	case err != nil:
		r = errReader{err}
	case binary.LittleEndian.Uint32(pre[:]) == Magic && binary.LittleEndian.Uint32(pre[4:]) == Version1:
		return ValidateInfo{Version: Version1}, fmt.Errorf("profio: version %d uploads not accepted (no integrity checksums); re-encode as v%d", Version1, Version)
	}
	st, err := new(Decoder).Stage(io.MultiReader(bytes.NewReader(pre[:n]), r)) // one image: no cross-file caches
	if err != nil {
		return ValidateInfo{}, err
	}
	info := ValidateInfo{Rank: st.Rank, Thread: st.Thread, Event: st.Event, Version: st.Version}
	if !st.Intact() {
		return info, st.Errs[0]
	}
	info.Nodes, info.Bytes = st.NodesRead, st.Bytes
	return info, nil
}
