package profio

// Ingest validation: the continuous-profiling service accepts profile
// uploads from the network, where "trust the writer" — the assumption the
// CLI loaders make about dcprof's own output — does not hold. An upload is
// admitted into a collection only after a full decode under the same CRC
// and structural checks the reader applies, so everything under a final
// name in a collection directory is known readable before any query ever
// touches it.

import (
	"fmt"
	"io"
)

// ValidateInfo summarizes a profile stream that passed validation.
type ValidateInfo struct {
	// Rank, Thread, and Event identify the producer, from the header.
	Rank, Thread int
	Event        string
	// Version is the format version (Version1, Version2, or Version).
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
// service rejects payloads through.
//
// Validation is the reader's own staging step rather than a cheaper frame
// walk: a stream that validates is guaranteed mergeable, so an accepted
// upload can never later poison a collection's queries.
func ValidateProfile(r io.Reader) (ValidateInfo, error) {
	st, err := new(Decoder).Stage(r) // one image: no cross-file caches
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

// ValidateV2Profile is ValidateProfile restricted to the checksummed
// formats (v2 and v3): a structurally valid v1 stream is rejected, because
// without per-section CRCs the service could not distinguish at-rest
// damage from writer output later. This is the validator network ingest
// uses; the name predates v3, which it accepts on the same grounds.
func ValidateV2Profile(r io.Reader) (ValidateInfo, error) {
	info, err := ValidateProfile(r)
	if err != nil {
		return info, err
	}
	if info.Version == Version1 {
		return info, fmt.Errorf("profio: version %d uploads not accepted (no integrity checksums); re-encode as v%d", info.Version, Version)
	}
	return info, nil
}
