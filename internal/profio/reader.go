package profio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"dcprof/internal/cct"
)

// ErrChecksum reports a section whose payload does not match its stored
// CRC32 — the file is the right shape but its bytes were damaged (bit rot,
// torn write, transport corruption). The section's length prefix still
// locates the next one, so later sections remain readable.
var ErrChecksum = errors.New("checksum mismatch")

// ErrTruncated reports input that ended before a complete record — the
// classic killed-writer artifact. Nothing after the truncation point is
// recoverable.
var ErrTruncated = errors.New("truncated")

// wrapEOF converts the io-level end-of-input errors into ErrTruncated so
// callers can classify failures with errors.Is.
func wrapEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		telTruncations.Inc()
		return fmt.Errorf("%w (%v)", ErrTruncated, err)
	}
	return err
}

// Intern is a concurrency-safe string cache shared across decoders. Thread
// profiles of one execution repeat the same module/function/file names in
// every file; interning makes all decoded profiles share one backing copy
// per distinct string instead of len(files) copies, which is what keeps a
// many-thousand-file ingest within memory budget.
type Intern struct {
	mu sync.Mutex
	m  map[string]string
}

// NewIntern creates an empty cache.
func NewIntern() *Intern { return &Intern{m: make(map[string]string)} }

// Intern returns the canonical copy of s, storing s itself on first sight.
func (in *Intern) Intern(s string) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	if c, ok := in.m[s]; ok {
		return c
	}
	in.m[s] = s
	return s
}

// Len reports the number of distinct strings cached.
func (in *Intern) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.m)
}

// ReadProfile decodes one thread profile, strictly: any damage fails the
// read.
func ReadProfile(r io.Reader) (*cct.Profile, error) {
	return ReadProfileInterned(r, nil)
}

// ReadProfileInterned is ReadProfile with strings canonicalized through the
// shared cache (nil skips canonicalization).
func ReadProfileInterned(r io.Reader, in *Intern) (*cct.Profile, error) {
	p, _, err := readCounted(r, in)
	return p, err
}

// ReadFileParallel is ReadProfileInterned over a file path, also returning
// the number of node records decoded. The last argument was the per-file
// section fan-out; a staged file decodes faster than the goroutines it
// took to fan its sections out, so it is ignored.
func ReadFileParallel(path string, in *Intern, _ int) (*cct.Profile, int, error) {
	f, err := OpenFile(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return readCounted(f, in)
}

// readCounted stages one image and, when it is intact, applies it into a
// profile of its own.
func readCounted(r io.Reader, in *Intern) (*cct.Profile, int, error) {
	d := &Decoder{in: in} // one image: no cross-file caches
	st, err := d.Stage(r)
	if err != nil {
		return nil, 0, err
	}
	if !st.Intact() {
		return nil, 0, st.Errs[0]
	}
	telReadProfiles.Inc()
	return d.materialize(), st.NodesRead, nil
}

// Files returns the profile file paths in dir sorted by name (the canonical
// zero-padded names sort by rank, then thread). In-flight temp files from a
// killed writer carry TmpSuffix as their extension, so they are never
// listed. The entries are read unsorted and the joined paths sorted once:
// a path is its directory plus its name, so they sort as the names would.
func Files(dir string) ([]string, error) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, err
	}
	entries, err := d.ReadDir(-1)
	d.Close()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".dcprof" {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	slices.Sort(out)
	return out, nil
}

// ReadDir loads every profile file in dir, sorted by (rank, thread). All
// profiles share one interning cache, so duplicate symbol strings across
// files are stored once.
func ReadDir(dir string) ([]*cct.Profile, error) {
	files, err := Files(dir)
	if err != nil {
		return nil, err
	}
	in := NewIntern()
	var out []*cct.Profile
	for _, path := range files {
		f, err := OpenFile(path)
		if err != nil {
			return nil, err
		}
		p, err := ReadProfileInterned(f, in)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Thread < out[j].Thread
	})
	return out, nil
}
