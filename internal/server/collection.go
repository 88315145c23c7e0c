package server

// Collection storage: the durable side of the continuous-profiling
// service. A collection is a directory of validated profile files (v2 or
// v3, the checksummed formats) plus a small metadata document; every
// mutation goes through the profio FS seam with the same
// temp+fsync+rename discipline the profiler's own writer uses, so a
// service killed at any point — including mid-upload — never leaves a
// partial profile under a final name, and a restart serves exactly the
// intact subset.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcprof/internal/profio"
	"dcprof/internal/telemetry"
)

// metaFile is the per-collection metadata document's name. It is not a
// .dcprof file, so profio.Files never lists it as a profile.
const metaFile = "collection.json"

// nameRE bounds collection names to one safe path segment: no separators,
// no dot-prefixed names, nothing the filesystem or URL layer could
// reinterpret.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9_][a-zA-Z0-9._-]{0,127}$`)

// uploadRE matches the file names the store assigns to accepted uploads:
// a monotone sequence number, then the producer identity from the
// validated header. The sequence prefix makes names collision-free even
// when many runs upload the same (rank, thread).
var uploadRE = regexp.MustCompile(`^u([0-9]{8})-rank[0-9]+-thread[0-9]+\.dcprof$`)

// ValidateName reports whether name is an acceptable collection name.
func ValidateName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("invalid collection name %q (want [a-zA-Z0-9._-]{1,128}, not starting with . or -)", name)
	}
	return nil
}

// Metadata is a collection's queryable description.
type Metadata struct {
	Name    string    `json:"name"`
	Created time.Time `json:"created"`
	// Profiles and Bytes describe the durable content; Generation counts
	// content mutations since the collection was created and is what the
	// merged-view cache keys on (it also advances across restarts, because
	// it is derived from the highest assigned upload sequence number).
	Profiles   int    `json:"profiles"`
	Bytes      int64  `json:"bytes"`
	Generation uint64 `json:"generation"`
}

// collection is the in-memory state for one collection directory.
type collection struct {
	name string
	dir  string

	// attempt numbers upload attempts (accepted or not) within this
	// process, so concurrent uploads never share a temp file name.
	attempt atomic.Uint64
	// listings is the store's server.store.listings: it counts every
	// listing of a collection directory — adoption, the start of a merge;
	// a cache hit makes none.
	listings *telemetry.Counter

	mu       sync.Mutex
	created  time.Time
	seq      uint64 // next upload sequence number; also the generation
	profiles int
	bytes    int64
	// digests maps the SHA-256 of each published file's bytes to its
	// base name — the idempotency index. Rebuilt from the files at adopt
	// time, so a retried upload is a no-op across restarts too.
	digests map[string]string
}

// persistedMeta is what lands in collection.json: only what a directory
// scan cannot recover. Counts and generation are derived from the profile
// files themselves at startup, so the metadata file can never disagree
// with the durable content.
type persistedMeta struct {
	Name    string    `json:"name"`
	Created time.Time `json:"created"`
}

// store manages the collection directories under one data root.
type store struct {
	root string
	fs   profio.FS

	// total is the byte total of every published profile across all
	// collections — what the total disk quota is enforced against.
	total atomic.Int64

	tmpSwept, listings *telemetry.Counter

	mu   sync.Mutex
	cols map[string]*collection
}

// openStore scans the data root, adopting every existing collection
// directory. The root is created if missing.
func openStore(root string, fsys profio.FS, reg *telemetry.Registry) (*store, error) {
	if fsys == nil {
		fsys = profio.OSFS{}
	}
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating data root: %w", err)
	}
	s := &store{
		root: root, fs: fsys, cols: map[string]*collection{},
		tmpSwept: reg.Counter("server.tmp.swept"), listings: reg.Counter("server.store.listings"),
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("server: scanning data root: %w", err)
	}
	s.sweepTmp(root)
	for _, e := range entries {
		if !e.IsDir() || ValidateName(e.Name()) != nil {
			continue
		}
		col, err := s.adopt(e.Name())
		if err != nil {
			return nil, err
		}
		s.cols[e.Name()] = col
		s.total.Add(col.bytes)
	}
	return s, nil
}

// sweepTmp removes orphaned temp files from dir — the litter a process
// killed mid-upload (or mid-metadata-write) leaves behind. Temp files
// are invisible to readers, but they hold disk the quota accounting
// cannot see, so startup reclaims them. Failures are ignored: a file
// that cannot be removed now stays invisible and is retried next start.
func (s *store) sweepTmp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), profio.TmpSuffix) {
			continue
		}
		if s.fs.Remove(filepath.Join(dir, e.Name())) == nil {
			s.tmpSwept.Inc()
		}
	}
}

// adopt rebuilds one collection's in-memory state from its directory: the
// creation time from collection.json (or the present, for a bare
// directory of profiles), counts and byte totals from the intact profile
// files, the next sequence number from the highest assigned one — so
// names never collide across restarts and the generation keeps advancing —
// and the content-digest index that makes retried uploads no-ops. Orphaned
// temp files from a crash mid-upload are swept first.
func (s *store) adopt(name string) (*collection, error) {
	col := s.newCollection(name)
	s.sweepTmp(col.dir)
	if raw, err := os.ReadFile(filepath.Join(col.dir, metaFile)); err == nil {
		var m persistedMeta
		if jerr := json.Unmarshal(raw, &m); jerr == nil && !m.Created.IsZero() {
			col.created = m.Created
		}
	}
	_, files, err := col.snapshot()
	if err != nil {
		return nil, fmt.Errorf("server: scanning collection %s: %w", name, err)
	}
	for _, f := range files {
		col.profiles++
		if fi, err := os.Stat(f); err == nil {
			col.bytes += fi.Size()
		}
		if m := uploadRE.FindStringSubmatch(filepath.Base(f)); m != nil {
			if n, err := strconv.ParseUint(m[1], 10, 64); err == nil && n >= col.seq {
				col.seq = n + 1
			}
		}
		if d, err := fileDigest(f); err == nil {
			col.digests[d] = filepath.Base(f)
		}
	}
	return col, nil
}

// fileDigest hashes a published file's bytes — the same digest the
// upload path computes over the streamed body, since accepted bytes land
// verbatim.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func (s *store) newCollection(name string) *collection {
	return &collection{
		name: name, dir: filepath.Join(s.root, name), listings: s.listings,
		created: time.Now().UTC(), digests: map[string]string{},
	}
}

// get returns the named collection, or nil.
func (s *store) get(name string) *collection {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cols[name]
}

// getOrCreate returns the named collection, creating its directory and
// metadata document on first use.
func (s *store) getOrCreate(name string) (*collection, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if col, ok := s.cols[name]; ok {
		return col, nil
	}
	col := s.newCollection(name)
	if err := s.fs.MkdirAll(col.dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating collection %s: %w", name, err)
	}
	if err := s.writeMeta(col); err != nil {
		return nil, err
	}
	s.cols[name] = col
	return col, nil
}

// list returns every collection's metadata, sorted by name.
func (s *store) list() []Metadata {
	s.mu.Lock()
	cols := make([]*collection, 0, len(s.cols))
	for _, c := range s.cols {
		cols = append(cols, c)
	}
	s.mu.Unlock()
	out := make([]Metadata, 0, len(cols))
	for _, c := range cols {
		out = append(out, c.metadata())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// writeMeta persists the collection's metadata document durably (temp +
// fsync + rename + dir sync), like every other file the service writes.
func (s *store) writeMeta(col *collection) error {
	raw, err := json.MarshalIndent(persistedMeta{Name: col.name, Created: col.created}, "", "  ")
	if err != nil {
		return err
	}
	final := filepath.Join(col.dir, metaFile)
	tmp := final + profio.TmpSuffix
	f, err := s.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("server: writing %s: %w", tmp, err)
	}
	cleanup := func(err error) error {
		f.Close()
		s.fs.Remove(tmp)
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		return cleanup(fmt.Errorf("server: writing %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("server: syncing %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("server: closing %s: %w", tmp, err)
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		s.fs.Remove(tmp)
		return fmt.Errorf("server: publishing %s: %w", final, err)
	}
	return s.fs.SyncDir(col.dir)
}

// metadata snapshots the collection's current description.
func (c *collection) metadata() Metadata {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metadata{
		Name:       c.name,
		Created:    c.created,
		Profiles:   c.profiles,
		Bytes:      c.bytes,
		Generation: c.seq,
	}
}

// snapshot pins the collection's durable content for a merge: its current
// generation and the profile files present at that generation. The pair
// is taken under the collection lock, so a concurrent upload either lands
// before the snapshot (and is in both) or after (and bumps the generation
// the cache will key on next time). It lists the directory, which is why
// only a starting merge calls it: a query that may hit the cache reads
// metadata() instead.
func (c *collection) snapshot() (uint64, []string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listings.Inc()
	files, err := profio.Files(c.dir)
	if err != nil {
		return 0, nil, err
	}
	return c.seq, files, nil
}

// UploadResult describes one accepted upload.
type UploadResult struct {
	Collection string `json:"collection"`
	File       string `json:"file"`
	Rank       int    `json:"rank"`
	Thread     int    `json:"thread"`
	Event      string `json:"event"`
	Nodes      int    `json:"nodes"`
	Bytes      int64  `json:"bytes"`
	Generation uint64 `json:"generation"`
	// Digest is the SHA-256 of the payload bytes — the idempotency key a
	// client can use to resume an interrupted batch.
	Digest string `json:"digest"`
	// Duplicate marks an upload whose bytes the collection already holds:
	// File names the existing file, nothing landed, and the generation
	// did not advance. The HTTP layer answers 200 instead of 201.
	Duplicate bool `json:"duplicate,omitempty"`
}

// errOverQuota marks an upload rejected because it would push the
// collection (or the server) past its configured disk quota. The HTTP
// layer maps it to 507 Insufficient Storage.
var errOverQuota = errors.New("server: disk quota exceeded")

// quotaReader delivers at most remaining bytes, then fails the read with
// errOverQuota and remembers it tripped — so the upload path can tell "a
// payload too big for the remaining quota" from a genuinely damaged one.
// A negative remaining means unlimited.
type quotaReader struct {
	r         io.Reader
	remaining int64
	exceeded  bool
}

func (q *quotaReader) Read(p []byte) (int, error) {
	if q.remaining < 0 {
		return q.r.Read(p)
	}
	if q.remaining == 0 {
		// Distinguish a payload that ends exactly at the quota (EOF here)
		// from one that crosses it (bytes remain).
		var probe [1]byte
		if n, _ := q.r.Read(probe[:]); n > 0 {
			q.exceeded = true
			return 0, errOverQuota
		}
		return 0, io.EOF
	}
	if int64(len(p)) > q.remaining {
		p = p[:q.remaining]
	}
	n, err := q.r.Read(p)
	q.remaining -= int64(n)
	return n, err
}

// errReject marks upload failures that are the client's fault (damaged or
// v1 payload) — the HTTP layer maps them to 400, everything else
// to 500.
type errReject struct{ err error }

func (e errReject) Error() string { return e.err.Error() }
func (e errReject) Unwrap() error { return e.err }

// trackingFile counts bytes written to the underlying file and remembers
// the first write error, so the upload path can tell a bad payload
// (validator failed, writes fine) from bad storage (writes failed).
type trackingFile struct {
	f       profio.File
	written int64
	err     error
}

func (t *trackingFile) Write(p []byte) (int, error) {
	n, err := t.f.Write(p)
	t.written += int64(n)
	if err != nil && t.err == nil {
		t.err = err
	}
	return n, err
}

// upload streams one profile payload into the collection. The body is
// validated (fully staged, every CRC checked) while it streams into a
// temp file and a SHA-256; only a payload that validates end-to-end is
// fsynced and renamed to a final .dcprof name, and only then does the
// collection's generation advance. A payload whose digest the collection
// already holds is a duplicate — the temp file is discarded and the
// existing file's identity returned, so a client retrying a lost
// response can never land the same samples twice. quotaRemaining bounds
// the accepted payload size (negative = unlimited); crossing it fails
// with errOverQuota. Rejections and storage failures leave at most a
// .tmp file behind, which readers ignore and startup sweeps.
func (c *collection) upload(fsys profio.FS, body io.Reader, quotaRemaining int64) (UploadResult, error) {
	// Reserve a distinct temp name per attempt: sequence numbers are only
	// claimed at publish time (a rejected upload must not consume one), so
	// the attempt counter is what keeps concurrent uploads' temp files
	// apart. The final name is chosen after validation, when the producer
	// identity is known.
	tmp := filepath.Join(c.dir, fmt.Sprintf("in%08d%s", c.attempt.Add(1), profio.TmpSuffix))
	f, err := fsys.Create(tmp)
	if err != nil {
		return UploadResult{}, fmt.Errorf("server: creating %s: %w", tmp, err)
	}
	qr := &quotaReader{r: body, remaining: quotaRemaining}
	tf := &trackingFile{f: f}
	hash := sha256.New()
	info, verr := profio.ValidateProfile(io.TeeReader(qr, io.MultiWriter(tf, hash)))
	if verr != nil || tf.err != nil {
		f.Close()
		fsys.Remove(tmp)
		switch {
		case tf.err != nil:
			// Storage, not payload: surface as an internal failure.
			return UploadResult{}, fmt.Errorf("server: writing %s: %w", tmp, tf.err)
		case qr.exceeded:
			return UploadResult{}, fmt.Errorf("%w (collection %s)", errOverQuota, c.name)
		default:
			return UploadResult{}, errReject{verr}
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return UploadResult{}, fmt.Errorf("server: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return UploadResult{}, fmt.Errorf("server: closing %s: %w", tmp, err)
	}
	digest := hex.EncodeToString(hash.Sum(nil))

	// Claim the sequence number and publish. The rename is the commit
	// point: once it succeeds the collection's content has changed, so the
	// generation must advance even if the directory sync afterwards fails —
	// a cached view keyed on the old generation would otherwise be served
	// against the new content. The digest check shares the same critical
	// section, so two racing identical uploads serialize: the first
	// publishes, the second observes the digest and discards its temp.
	c.mu.Lock()
	if existing, ok := c.digests[digest]; ok {
		gen := c.seq
		c.mu.Unlock()
		fsys.Remove(tmp)
		return UploadResult{
			Collection: c.name,
			File:       existing,
			Rank:       info.Rank,
			Thread:     info.Thread,
			Event:      info.Event,
			Nodes:      info.Nodes,
			Bytes:      tf.written,
			Generation: gen,
			Digest:     digest,
			Duplicate:  true,
		}, nil
	}
	seq := c.seq
	final := filepath.Join(c.dir, fmt.Sprintf("u%08d-rank%05d-thread%05d.dcprof", seq, info.Rank, info.Thread))
	if err := fsys.Rename(tmp, final); err != nil {
		c.mu.Unlock()
		fsys.Remove(tmp)
		return UploadResult{}, fmt.Errorf("server: publishing %s: %w", final, err)
	}
	c.seq = seq + 1
	c.profiles++
	c.bytes += tf.written
	c.digests[digest] = filepath.Base(final)
	gen := c.seq
	c.mu.Unlock()
	if err := fsys.SyncDir(c.dir); err != nil {
		return UploadResult{}, fmt.Errorf("server: syncing %s: %w", c.dir, err)
	}

	return UploadResult{
		Collection: c.name,
		File:       filepath.Base(final),
		Rank:       info.Rank,
		Thread:     info.Thread,
		Event:      info.Event,
		Nodes:      info.Nodes,
		Bytes:      tf.written,
		Generation: gen,
		Digest:     digest,
	}, nil
}

// digestList returns the collection's content digests, sorted — the
// resume surface dcpush asks before re-sending a measurement directory.
func (c *collection) digestList() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.digests))
	for d := range c.digests {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// isReject reports whether err is a payload rejection (client fault).
func isReject(err error) bool {
	var r errReject
	return errors.As(err, &r)
}
