package server

// Robustness suite: drives the service through overload, slow and
// disconnecting clients, duplicate uploads, disk exhaustion, and quota
// pressure, and checks the degradation contract — bounded shed with
// Retry-After, read-only mode with automatic recovery, idempotent
// retries, and a merge cache that cancellation cannot poison.

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/faultio"
	"dcprof/internal/profio"
	"dcprof/internal/view"
)

// TestUploadAdmissionShed saturates the one-slot upload admission with a
// stalled body, then checks the next upload is shed with 429 and a
// Retry-After hint instead of queueing.
func TestUploadAdmissionShed(t *testing.T) {
	srv, ts := newTestServer(t, func(cfg *Config) { cfg.MaxInflightUploads = 1 })

	// A body that trickles: the handler accepts the request and blocks
	// reading, holding the admission token.
	pr, pw := io.Pipe()
	inflight := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/collections/slow/profiles", "application/octet-stream", pr)
		if err != nil {
			t.Error(err)
			inflight <- nil
			return
		}
		inflight <- resp
	}()
	// Wait until the stalled upload holds the token.
	waitFor(t, func() bool {
		return srv.Registry().Snapshot().Gauges["server.admission.uploads.inflight"].Value == 1
	})

	resp := post(t, ts, "other", encodeProfile(t, synthProfile(0, 0, 1)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second upload while saturated: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	if counter(srv, "server.shed") != 1 || counter(srv, "server.shed.uploads") != 1 {
		t.Errorf("shed counters = %d/%d, want 1/1",
			counter(srv, "server.shed"), counter(srv, "server.shed.uploads"))
	}

	// Release the stalled upload (clean EOF: the truncated body is simply
	// rejected); the token frees and service resumes.
	pw.Close()
	if r := <-inflight; r != nil {
		r.Body.Close()
	}
	mustUpload(t, ts, "other", encodeProfile(t, synthProfile(0, 0, 1)))
}

// gatedOpen is an OpenProfile seam whose reads block until released —
// the controllable slow merge.
type gatedOpen struct {
	started chan struct{} // closed... no: signaled once per open
	release chan struct{}
}

func (g *gatedOpen) open(path string) (io.ReadCloser, error) {
	select {
	case g.started <- struct{}{}:
	default:
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return faultio.WithCloser(&gatedReader{f: f, release: g.release}, f), nil
}

type gatedReader struct {
	f       *os.File
	release chan struct{}
}

func (r *gatedReader) Read(p []byte) (int, error) {
	<-r.release
	return r.f.Read(p)
}

// TestMergeAdmissionShed holds the single merge slot with a gated merge
// of one collection, then checks a query needing a second merge is shed
// with 503 + Retry-After while a query joining the in-flight merge is
// not.
func TestMergeAdmissionShed(t *testing.T) {
	gate := &gatedOpen{started: make(chan struct{}, 16), release: make(chan struct{})}
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxConcurrentMerges = 1
		cfg.OpenProfile = gate.open
	})
	mustUpload(t, ts, "a", encodeProfile(t, synthProfile(0, 0, 100)))
	mustUpload(t, ts, "b", encodeProfile(t, synthProfile(0, 0, 200)))

	leader := make(chan []byte, 1)
	go func() { leader <- mustGet(t, ts, "/collections/a/topdown") }()
	<-gate.started // the merge of "a" is running, holding the only slot

	// A different collection needs a fresh merge: shed.
	status, _ := get(t, ts, "/collections/b/topdown")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("query needing second merge: status %d, want 503", status)
	}
	if counter(srv, "server.shed.merges") != 1 {
		t.Errorf("shed.merges = %d, want 1", counter(srv, "server.shed.merges"))
	}

	// The same collection joins the in-flight merge: NOT shed.
	joiner := make(chan []byte, 1)
	go func() { joiner <- mustGet(t, ts, "/collections/a/topdown") }()

	close(gate.release)
	a1, a2 := <-leader, <-joiner
	if !bytes.Equal(a1, a2) {
		t.Error("joiner saw different bytes than leader")
	}
	if got := counter(srv, "server.merges"); got != 1 {
		t.Errorf("merges = %d after leader+joiner, want 1 (singleflight)", got)
	}
	// Capacity freed: "b" now merges fine.
	mustGet(t, ts, "/collections/b/topdown")
}

// TestRequestDeadlineCancelsMerge sets a short per-request deadline over
// a merge slowed by the open seam: the query must fail with 504, the
// abandoned merge must be canceled (not left running or cached), and
// once the slowness clears the same query must succeed with a fresh
// merge — the cache unpoisoned by the timeout.
func TestRequestDeadlineCancelsMerge(t *testing.T) {
	gate := &gatedOpen{started: make(chan struct{}, 16), release: make(chan struct{})}
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.RequestTimeout = 100 * time.Millisecond
		cfg.OpenProfile = gate.open
	})
	mustUpload(t, ts, "col", encodeProfile(t, synthProfile(0, 0, 100)))

	// The gate stays shut through the first query: its merge cannot make
	// progress, the request deadline expires.
	status, _ := get(t, ts, "/collections/col/topdown")
	if status != http.StatusGatewayTimeout {
		t.Fatalf("deadline query: status %d, want 504", status)
	}
	// Open the gate: the abandoned merge can now observe its canceled
	// context and must be torn down, not cached.
	close(gate.release)
	waitFor(t, func() bool { return counter(srv, "server.merges.canceled") == 1 })
	if srv.cache.len() != 0 {
		t.Fatal("canceled merge left a cache entry")
	}

	// Service recovers without restart: the next query merges fresh
	// (reads now flow) and serves the correct view.
	body := mustGet(t, ts, "/collections/col/topdown")
	db := offlineMerge(t, []*cct.Profile{synthProfile(0, 0, 100)})
	var offline bytes.Buffer
	if err := view.WriteTopDownJSON(&offline, db.Merged, defaultOptions(db.Event)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, offline.Bytes()) {
		t.Error("post-timeout view differs from offline merge")
	}
}

// TestENOSPCReadOnlyDegradeRecover fills the injected disk mid-service:
// the failing upload answers 507 and flips the server read-only; further
// uploads shed with 503 + Retry-After while queries keep serving;
// /readyz goes not-ready; clearing the disk recovers automatically —
// no restart — via the probe on the next writability check.
func TestENOSPCReadOnlyDegradeRecover(t *testing.T) {
	full := faultio.NewENOSPCFS(nil)
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.FS = full
		cfg.ReadonlyProbeInterval = -1 // probe on every check
	})
	mustUpload(t, ts, "col", encodeProfile(t, synthProfile(0, 0, 100)))
	healthyView := mustGet(t, ts, "/collections/col/topdown")

	if status, _ := get(t, ts, "/readyz"); status != http.StatusOK {
		t.Fatalf("healthy /readyz: status %d, want 200", status)
	}

	full.SetFull(true)
	// The write fails with ENOSPC: storage's fault, not the payload's.
	resp := post(t, ts, "col", encodeProfile(t, synthProfile(0, 1, 200)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("upload onto full disk: status %d, want 507", resp.StatusCode)
	}
	if counter(srv, "server.readonly.entered") != 1 {
		t.Fatalf("readonly.entered = %d, want 1", counter(srv, "server.readonly.entered"))
	}

	// Read-only mode: uploads shed with Retry-After, queries still serve.
	resp = post(t, ts, "col", encodeProfile(t, synthProfile(0, 2, 300)))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("upload while read-only: status %d Retry-After %q, want 503 + hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if counter(srv, "server.shed.readonly") == 0 {
		t.Error("shed.readonly not counted")
	}
	if got := mustGet(t, ts, "/collections/col/topdown"); !bytes.Equal(got, healthyView) {
		t.Error("read-only mode changed the served view")
	}
	status, body := get(t, ts, "/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while read-only: status %d, want 503", status)
	}
	if !strings.Contains(string(body), "read-only") {
		t.Errorf("/readyz reasons missing read-only: %s", body)
	}
	// Liveness is unaffected.
	if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Errorf("/healthz while read-only: status %d, want 200", status)
	}

	// Space frees: the next writability check probes and recovers.
	full.SetFull(false)
	if status, _ := get(t, ts, "/readyz"); status != http.StatusOK {
		t.Fatalf("/readyz after space freed: status %d, want 200 (probe should recover)", status)
	}
	if counter(srv, "server.readonly.recovered") != 1 {
		t.Fatalf("readonly.recovered = %d, want 1", counter(srv, "server.readonly.recovered"))
	}
	mustUpload(t, ts, "col", encodeProfile(t, synthProfile(0, 3, 400)))
}

// TestDiskQuota507 bounds a collection's bytes: an upload that would
// cross the quota is rejected with 507 and nothing lands; one that fits
// exactly is accepted. The total quota spans collections.
func TestDiskQuota507(t *testing.T) {
	payload := encodeProfile(t, synthProfile(0, 0, 100))
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.MaxCollectionBytes = int64(len(payload)) // exactly one profile
	})

	// Exact fit: accepted.
	mustUpload(t, ts, "col", payload)

	// The collection is at quota: the next upload (different bytes, so
	// not a duplicate) is rejected before it can land.
	resp := post(t, ts, "col", encodeProfile(t, synthProfile(0, 1, 200)))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("upload past quota: status %d, want 507", resp.StatusCode)
	}
	if got := fileCount(t, srv, "col"); got != 1 {
		t.Fatalf("quota-rejected upload landed: %d files, want 1", got)
	}
	if counter(srv, "server.uploads.quota_rejected") == 0 {
		t.Error("quota_rejected not counted")
	}
	// Another collection is unaffected by the per-collection quota.
	mustUpload(t, ts, "col2", payload)

	// Total quota: a fresh server bounded to one profile across ALL
	// collections rejects the second collection's upload.
	_, ts2 := newTestServer(t, func(cfg *Config) {
		cfg.MaxTotalBytes = int64(len(payload))
	})
	mustUpload(t, ts2, "a", payload)
	resp2 := post(t, ts2, "b", encodeProfile(t, synthProfile(0, 1, 200)))
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("upload past total quota: status %d, want 507", resp2.StatusCode)
	}
}

// TestDuplicateUploadIdempotent is the double-count regression: an
// identical re-POST answers 200 against the existing file, advances
// nothing, and the merged view stays byte-identical — including when the
// retry happens against a restarted server that rebuilt its digest index
// from disk.
func TestDuplicateUploadIdempotent(t *testing.T) {
	dataDir := t.TempDir()
	payload := encodeProfile(t, synthProfile(0, 0, 100))

	srv1, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	first := mustUpload(t, ts1, "col", payload)
	cleanView := mustGet(t, ts1, "/collections/col/topdown")

	// Same bytes again: 200, same file, no new file, generation frozen.
	resp := post(t, ts1, "col", payload)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate upload: status %d, want 200: %s", resp.StatusCode, raw)
	}
	var dup UploadResult
	if err := json.Unmarshal(raw, &dup); err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate || dup.File != first.File || dup.Digest != first.Digest || dup.Generation != first.Generation {
		t.Fatalf("duplicate identity mismatch: first %+v, dup %+v", first, dup)
	}
	if got := fileCount(t, srv1, "col"); got != 1 {
		t.Fatalf("duplicate landed a file: %d files, want 1", got)
	}
	// Generation unchanged → the cached view still serves; and the bytes
	// are the single-upload bytes, not double-counted.
	if got := mustGet(t, ts1, "/collections/col/topdown"); !bytes.Equal(got, cleanView) {
		t.Error("view changed after duplicate upload (samples double-counted?)")
	}
	if counter(srv1, "server.uploads.duplicates") != 1 {
		t.Errorf("uploads.duplicates = %d, want 1", counter(srv1, "server.uploads.duplicates"))
	}
	ts1.Close()

	// Restart: the digest index is rebuilt from the files, so the retry
	// is still a no-op.
	srv2, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	resp2 := post(t, ts2, "col", payload)
	raw2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate upload after restart: status %d, want 200: %s", resp2.StatusCode, raw2)
	}
	if got := fileCount(t, srv2, "col"); got != 1 {
		t.Fatalf("post-restart duplicate landed a file: %d files, want 1", got)
	}
	if got := mustGet(t, ts2, "/collections/col/topdown"); !bytes.Equal(got, cleanView) {
		t.Error("post-restart view differs after duplicate upload")
	}
}

// TestTmpSweepAtStartup crashes the filesystem mid-upload so an orphaned
// temp file stays behind (the dead "process" cannot clean up), then
// checks a restart sweeps it, counts the sweep, and leaves the published
// profiles untouched.
func TestTmpSweepAtStartup(t *testing.T) {
	dataDir := t.TempDir()
	srv1, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	mustUpload(t, ts1, "col", encodeProfile(t, synthProfile(0, 0, 100)))
	ts1.Close()

	// Crash a few bytes into the next upload: the temp file lands, the
	// cleanup Remove fails (the process is "dead").
	crash := faultio.NewCrashFS(profio.OSFS{}, 16)
	srv2, err := New(Config{DataDir: dataDir, FS: crash})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	resp := post(t, ts2, "col", encodeProfile(t, synthProfile(0, 1, 200)))
	resp.Body.Close()
	ts2.Close()
	orphans := tmpCount(t, filepath.Join(dataDir, "col"))
	if orphans == 0 {
		t.Fatal("crash left no orphaned tmp file; the sweep has nothing to prove")
	}

	// Restart: orphans swept, counted, published content intact.
	srv3, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts3 := httptest.NewServer(srv3.Handler())
	defer ts3.Close()
	if got := tmpCount(t, filepath.Join(dataDir, "col")); got != 0 {
		t.Errorf("%d orphaned tmp files survived the sweep", got)
	}
	if got := counter(srv3, "server.tmp.swept"); got != uint64(orphans) {
		t.Errorf("tmp.swept = %d, want %d", got, orphans)
	}
	if got := fileCount(t, srv3, "col"); got != 1 {
		t.Errorf("published profiles after sweep = %d, want 1", got)
	}
	mustGet(t, ts3, "/collections/col/topdown")
}

// tmpCount counts TmpSuffix files in dir.
func tmpCount(t testing.TB, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), profio.TmpSuffix) {
			n++
		}
	}
	return n
}

// TestDigestsEndpoint checks the resume surface: digests of everything
// uploaded, 404 for unknown collections.
func TestDigestsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, nil)
	a := mustUpload(t, ts, "col", encodeProfile(t, synthProfile(0, 0, 100)))
	b := mustUpload(t, ts, "col", encodeProfile(t, synthProfile(0, 1, 200)))

	var got struct {
		Collection string   `json:"collection"`
		Digests    []string `json:"digests"`
	}
	if err := json.Unmarshal(mustGet(t, ts, "/collections/col/digests"), &got); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{a.Digest: true, b.Digest: true}
	if got.Collection != "col" || len(got.Digests) != 2 || !want[got.Digests[0]] || !want[got.Digests[1]] {
		t.Fatalf("digests = %+v, want both of %v", got, want)
	}
	if status, _ := get(t, ts, "/collections/nope/digests"); status != http.StatusNotFound {
		t.Errorf("digests of unknown collection: status %d, want 404", status)
	}
}

// TestUploadClientDisconnect cancels an upload mid-body: the server must
// answer the (unseen) 408/400 class, land nothing, and keep the
// collection serviceable.
func TestUploadClientDisconnect(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	mustUpload(t, ts, "col", encodeProfile(t, synthProfile(0, 0, 100)))

	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/collections/col/profiles", pr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		close(done)
	}()
	pw.Write([]byte("partial"))
	cancel()
	pw.Close()
	<-done

	waitFor(t, func() bool { return fileCount(t, srv, "col") == 1 })
	mustUpload(t, ts, "col", encodeProfile(t, synthProfile(0, 1, 200)))
	mustGet(t, ts, "/collections/col/topdown")
}

// hostileBody yields n zero bytes.
type hostileBody struct{ n int64 }

func (z *hostileBody) Read(p []byte) (int, error) {
	if z.n <= 0 {
		return 0, io.EOF
	}
	k := min(int64(len(p)), z.n)
	clear(p[:k])
	z.n -= k
	return int(k), nil
}

// TestUploadRejectsHostileBodyEarly posts 64 MiB bodies straight into
// the upload handler — zeros, and zeros behind a v1 preamble: the 8-byte
// header alone condemns each, so the answer is 400, nothing but the
// collection's metadata is left in its directory (no profile, no temp
// file), and the handler allocates far less than the body.
func TestUploadRejectsHostileBodyEarly(t *testing.T) {
	srv, err := New(Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	v1 := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, profio.Magic), profio.Version1)
	for _, c := range []struct {
		name, want string
		hdr        []byte
	}{
		{"zeros", "bad magic", nil},
		{"v1", "version 1 uploads not accepted", v1},
	} {
		body := io.MultiReader(bytes.NewReader(c.hdr), &hostileBody{n: 64 << 20})
		req := httptest.NewRequest(http.MethodPost, "/collections/hostile/profiles", body)
		req.SetPathValue("name", "hostile")
		rr := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv.handleUpload(rr, req)
		runtime.ReadMemStats(&after)
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), c.want) {
			t.Fatalf("%s: status %d: %s, want 400 naming %q", c.name, rr.Code, rr.Body.String(), c.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s: rejecting a 64 MiB body allocated %d B, want <= 1 MiB", c.name, alloc)
		}
	}
	if col := srv.store.get("hostile"); col != nil {
		ents, err := os.ReadDir(col.dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.Name() != metaFile {
				t.Errorf("rejected upload left %s in the collection", e.Name())
			}
		}
	}
}

// deflateBomb returns a deflate stream of about size bytes that inflates
// to about a thousand times that: copies of one sync-flushed block of a
// MiB of zeros, then a final empty block.
func deflateBomb(size int) []byte {
	var b bytes.Buffer
	fw, _ := flate.NewWriter(&b, flate.BestCompression)
	fw.Write(make([]byte, 1<<20))
	fw.Flush()
	unit := append([]byte{}, b.Bytes()...)
	b.Reset()
	fw.Close()
	var out []byte
	for len(out)+len(unit)+b.Len() <= size {
		out = append(out, unit...)
	}
	return append(out, b.Bytes()...)
}

// emptyWindows returns a deflated "DCPC" payload for p: a column block
// of n empty windows, padded with empty stored blocks to a sixteenth of
// the block — small and valid, but staging its windows costs 16 B each.
func emptyWindows(p *cct.Profile, n int) []byte {
	block := binary.AppendUvarint(nil, 1) // window width
	for _, t := range p.Trees {
		block = binary.AppendUvarint(block, uint64(t.NumNodes()))
	}
	block = append(block, 1, 0) // one run, from window 0
	block = binary.AppendUvarint(block, uint64(n))
	block = append(block, make([]byte, n)...) // no entries in any window
	var z bytes.Buffer
	fw, _ := flate.NewWriter(&z, flate.BestSpeed)
	fw.Write(block)
	for z.Len() < len(block)/16 {
		fw.Flush()
	}
	fw.Close()
	return append(binary.AppendUvarint(nil, uint64(len(block))), z.Bytes()...)
}

// TestUploadRejectsDeflateBomb posts a valid profile followed by a
// checksum-valid temporal sidecar that is cheap to send and dear to
// stage: a 64 KiB deflate stream that claims the largest column block
// the decoder's 16× cap admits and inflates to far more, and a valid
// block of a million empty windows deflated to 64 KiB. Each upload is
// refused with 400, leaves no file in the collection, and costs at most
// 16× the sidecar plus 1 MiB.
func TestUploadRejectsDeflateBomb(t *testing.T) {
	p := synthProfile(0, 0, 100)
	var img bytes.Buffer
	if err := profio.WriteProfile(&img, p); err != nil {
		t.Fatal(err)
	}
	bomb := deflateBomb(64 << 10)
	for name, payload := range map[string][]byte{
		"deflate bomb":  append(binary.AppendUvarint(nil, uint64(16*len(bomb))), bomb...),
		"empty windows": emptyWindows(p, 1<<20),
	} {
		body := binary.LittleEndian.AppendUint32(bytes.Clone(img.Bytes()), profio.TemporalMagic)
		body = binary.AppendUvarint(body, uint64(len(payload)))
		body = append(body, payload...)
		body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(payload))

		srv, err := New(Config{DataDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		req := httptest.NewRequest(http.MethodPost, "/collections/bomb/profiles", bytes.NewReader(body))
		req.SetPathValue("name", "bomb")
		rr := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		srv.handleUpload(rr, req)
		runtime.ReadMemStats(&after)
		if rr.Code != http.StatusBadRequest || !strings.Contains(rr.Body.String(), "temporal sidecar") {
			t.Fatalf("%s: status %d: %s, want 400 naming the temporal sidecar", name, rr.Code, rr.Body.String())
		}
		alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(16*len(payload)+1<<20)
		t.Logf("%s: a %d B sidecar, %d B allocated, budget %d", name, len(payload), alloc, budget)
		if alloc > budget {
			t.Errorf("%s: rejecting a %d B sidecar allocated %d B, want <= %d", name, len(payload), alloc, budget)
		}
		if col := srv.store.get("bomb"); col != nil {
			ents, err := os.ReadDir(col.dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				if e.Name() != metaFile {
					t.Errorf("%s: rejected upload left %s in the collection", name, e.Name())
				}
			}
		}
	}
}
