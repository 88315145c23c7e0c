package profio

// Salvage: best-effort decoding of damaged profile files. A killed rank or
// a full filesystem at Sequoia scale routinely leaves truncated or
// bit-damaged per-thread files; rather than discard such a file outright,
// the analyzer can recover every storage-class tree that is complete and
// checksum-valid and fold just those into the merge (the PolicySalvage
// ingest mode in internal/analysis).

import (
	"io"

	"dcprof/internal/cct"
)

// Salvage is the outcome of a best-effort decode of one profile file: the
// staged verdict (what was recovered, what was lost, why) plus the
// recovered data itself.
type Salvage struct {
	// Profile holds the recovered data: salvaged class trees in their
	// slots, empty trees for the lost classes. Identification fields come
	// from the header, which must be intact for any salvage to happen.
	Profile *cct.Profile
	Staged
}

// SalvageProfile decodes as much of a possibly damaged profile as the
// format's integrity metadata can vouch for. It returns an error only when
// the header (identification + string table) is unreadable — without the
// string table no tree can be decoded, so nothing is salvageable.
//
// For v2/v3 files each tree section is independently framed and
// checksummed, so a damaged section loses only its own class; later
// sections are still recovered. Truncation loses everything from the cut
// onward. For v1 files (no framing) the trees preceding the first failure
// are recovered and the rest counted lost; v1 trees carry no checksums, so
// "recovered" there means "decoded cleanly", a weaker guarantee.
func SalvageProfile(r io.Reader, in *Intern) (*Salvage, error) {
	d := &Decoder{in: in} // one image: no cross-file caches
	st, err := d.Stage(r)
	if err != nil {
		return nil, err
	}
	return &Salvage{Profile: d.materialize(), Staged: *st}, nil
}
