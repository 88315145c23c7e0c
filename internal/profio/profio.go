// Package profio implements the compact binary profile format the profiler
// writes per thread and the post-mortem analyzer reads back. Only format
// v3 is written; v1 and v2 files are still read, by the same decoder
// (stage.go).
//
// Compactness is a scalability requirement (§2.2): with millions of threads,
// per-thread measurement data must stay in megabytes. The format therefore
// stores each CCT as a flat pre-order array of nodes with parent indices, a
// deduplicated string table for symbols, and sparse varint-encoded metric
// vectors (most nodes carry no metrics; leaves carry few distinct ones).
//
// Integrity is a scalability requirement too: at Sequoia-class scale (one
// file per thread per rank) killed ranks, full filesystems, and torn writes
// are routine, so since version 2 the format carries per-section CRC32
// checksums and a record-counting footer. Every section — the header
// (identification + string table) and each storage-class tree — is
// length-prefixed and checksummed independently, which lets the reader
// detect corruption at section granularity and salvage the intact trees of
// a damaged file (see SalvageProfile in salvage.go).
//
// Format v3 (see v3.go for the payloads) is framed as:
//
//	u32 magic "DCPF"            u32 version
//	section: header             — rank, thread, string table, event index, frame table
//	section: tree ×NumClasses   — pre-order columns
//	u32 footer magic "DCPE"     uvarint total node records   u32 CRC32(count)
//	trailer ×N (optional)       — u32 section magic · section
//
// where every section is `uvarint payloadLen · payload · u32 CRC32(payload)`.
// Trailer sections after the footer are tagged by a magic ("DCPC" = the
// temporal sidecar as deflated columns, see temporal.go; "DCPT" = the row
// encoding it replaced, read but no longer written); unknown magics are
// checksum-verified and skipped, so older data survives newer writers and
// vice versa.
//
// The formats it replaced are read only. v2 has the same framing, footer
// and trailers, no frame table, and a self-contained record per node in
// each tree section (stageRows in stage.go). v1 is v2's header fields and
// tree records back to back, with no sections, checksums, footer or
// trailers.
package profio

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"dcprof/internal/cct"
)

// Magic identifies profile files ("DCPF" = data-centric profile).
const Magic = 0x44435046

// FooterMagic identifies the end-of-file footer ("DCPE" = end).
const FooterMagic = 0x44435045

// Version is the current format version: v2's checksummed section framing
// with the compact columnar tree encoding and header frame table (v3.go).
const Version = 3

// Version2 is the row-oriented checksummed format: same section framing,
// footer, and trailers as v3, with self-contained per-node records. Still
// readable, never written.
const Version2 = 2

// Version1 is the original format: same record encoding as v2, but no
// section framing, checksums, or footer. Still readable, never written.
const Version1 = 1

// TmpSuffix is appended to a profile's final name while it is being
// written; the rename to the final name happens only after a successful
// fsync, so a file under a final name is always complete. Files carrying
// the suffix are ignored by Files and ReadDir.
const TmpSuffix = ".tmp"

const noParent = ^uint32(0)

// maxSection bounds a claimed section payload length; anything larger is
// rejected as corrupt before any proportional allocation happens.
const maxSection = 1 << 30

// WriteProfile encodes one thread profile in the current format (v3) and
// hands it to w in a single Write.
func WriteProfile(w io.Writer, p *cct.Profile) error {
	_, err := writeProfile(w, p)
	return err
}

// EncodedSize returns the number of bytes WriteProfile would produce.
func EncodedSize(p *cct.Profile) (int64, error) {
	return writeProfile(nil, p)
}

// FileName returns the canonical per-thread profile file name.
func FileName(rank, thread int) string {
	return fmt.Sprintf("rank%05d-thread%05d.dcprof", rank, thread)
}

// FS abstracts the handful of filesystem operations the durable writer
// performs. Production code uses OSFS; fault-injection tests (see
// internal/faultio) interpose a wrapper that simulates crashes and full
// disks at scripted points.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	Create(path string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir fsyncs the directory itself, making completed renames
	// durable against power loss.
	SyncDir(path string) error
}

// File is the writable-file surface the durable writer needs.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS.
func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Create implements FS.
func (OSFS) Create(path string) (File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename implements FS.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// SyncDir implements FS.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteDir writes one file per profile into dir (created if needed) and
// returns the total bytes written — the measurement's space overhead.
//
// Writes are durable and atomic per file: each profile is written to a
// TmpSuffix-named temp file, fsynced, then renamed to its final name, and
// the directory is fsynced once at the end. A writer killed at any point
// (including mid-write: full filesystem, dead rank) can therefore never
// leave a partial file under a final profile name — readers see either the
// complete file or nothing.
//
// The temp files are encoded, written and fsynced on up to GOMAXPROCS
// workers, one pooled encoder each; the renames publish them in input
// order. When profile i fails, exactly profiles 0..i-1 are published, the
// error is profile i's, and every later temp file is removed.
func WriteDir(dir string, profiles []*cct.Profile) (int64, error) {
	return WriteDirFS(OSFS{}, dir, profiles)
}

// WriteDirFS is WriteDir over an explicit filesystem, which must allow
// concurrent use.
func WriteDirFS(fsys FS, dir string, profiles []*cct.Profile) (int64, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	temps := make([]tempFile, len(profiles))
	done := make(chan int, len(profiles))
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(profiles)); w > 0; w-- {
		wg.Add(1)
		go func(keep bool) {
			defer wg.Done()
			// One encoder per worker, for all of its files. Only one goes
			// back to the pool, as a sequential write would leave it: the
			// others' scratch (MiBs on a dense profile) is not pinned
			// after a one-off burst.
			e := encoderPool.Get().(*encoder)
			if keep {
				defer encoderPool.Put(e)
			}
			for !stop.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(profiles) {
					return
				}
				temps[i] = writeTemp(fsys, dir, e, profiles[i])
				done <- i
			}
		}(w == 1)
	}

	// Publish in input order as the temp files complete.
	var total int64
	var err error
	ready := make([]bool, len(profiles))
	published := 0
	for published < len(profiles) && err == nil {
		ready[<-done] = true
		for ; published < len(profiles) && ready[published]; published++ {
			if err = temps[published].publish(fsys); err != nil {
				break
			}
			total += temps[published].n
		}
	}
	if err != nil {
		stop.Store(true)
		wg.Wait()
		for _, t := range temps[published+1:] {
			if t.err == nil && t.tmp != "" {
				fsys.Remove(t.tmp)
			}
		}
		return total, err
	}
	wg.Wait()
	if err := fsys.SyncDir(dir); err != nil {
		return total, fmt.Errorf("profio: syncing %s: %w", dir, err)
	}
	return total, nil
}

// tempFile is one profile's completed (or failed) temp file, awaiting
// publication.
type tempFile struct {
	tmp, final string
	n          int64
	err        error
}

// writeTemp encodes p into its temp file, fsyncs and closes it. On failure
// the temp file is already removed.
func writeTemp(fsys FS, dir string, e *encoder, p *cct.Profile) tempFile {
	t := tempFile{final: filepath.Join(dir, FileName(p.Rank, p.Thread))}
	tmp := t.final + TmpSuffix
	f, err := fsys.Create(tmp)
	if err != nil {
		t.err = err
		return t
	}
	n, err := e.write(f, p)
	if err != nil {
		f.Close()
		fsys.Remove(tmp)
		t.err = fmt.Errorf("profio: writing %s: %w", tmp, err)
		return t
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		t.err = fmt.Errorf("profio: syncing %s: %w", tmp, err)
		return t
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		t.err = fmt.Errorf("profio: closing %s: %w", tmp, err)
		return t
	}
	t.tmp, t.n = tmp, n
	return t
}

// publish renames a completed temp file to its final name.
func (t *tempFile) publish(fsys FS) error {
	if t.err != nil {
		return t.err
	}
	if err := fsys.Rename(t.tmp, t.final); err != nil {
		fsys.Remove(t.tmp)
		return fmt.Errorf("profio: publishing %s: %w", t.final, err)
	}
	telWriteProfiles.Inc()
	telWriteBytes.Add(uint64(t.n))
	return nil
}
