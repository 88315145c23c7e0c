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
	d, err := NewReaderInterned(r, in)
	if err != nil {
		return nil, err
	}
	return &Salvage{Profile: d.dec.materialize(), Staged: *d.st}, nil
}

// salvage drains the row reader's trees in best-effort mode.
func (d *rowReader) salvage() *Salvage {
	s := &Salvage{
		Profile: cct.NewProfile(d.rank, d.thread, d.event),
		Staged:  Staged{Rank: d.rank, Thread: d.thread, Event: d.event, Version: d.version},
	}
	for {
		before := d.next
		c, t, err := d.readTree()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.Errs = append(s.Errs, err)
			if d.terminal != nil {
				// The stream is unframed or cut: d.next still names the
				// tree the failure surfaced on, and every class from it
				// onward is gone.
				s.Lost += cct.NumClasses - d.next
				break
			}
			if d.next > before {
				// A tree section was present but damaged; the reader
				// resynced past it, so only that class is lost.
				s.Lost++
			}
			// Otherwise the error was footer validation — trees already
			// accounted for; the next call returns io.EOF.
			continue
		}
		s.Profile.Trees[c] = t
		s.Trees++
	}
	s.NodesRead = d.nodes
	// A salvaged profile keeps its sidecar only if the trailer decoded
	// cleanly; a damaged sidecar is already in Errs and the profile loads
	// windowless.
	s.Profile.Temporal = d.temporal
	s.SidecarOnly = s.Lost == 0 && len(s.Errs) > 0 && d.trailerDamaged
	return s
}
