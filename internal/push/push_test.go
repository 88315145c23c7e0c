package push

// The push suite drives the client through the retry matrix with a
// scripted faulty transport and fake servers, and — the chaos smoke —
// through a real dcprofd instance behind faultio.FlakyTransport,
// checking the end-to-end contract: every profile lands exactly once
// and the served view is byte-identical to a cleanly-fed server's.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/faultio"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/server"
	"dcprof/internal/telemetry"
)

// writeMeasurement fills dir with n synthetic thread profiles and
// returns their encoded bytes by file name. Odd-numbered threads carry a
// temporal sidecar, so every multi-file scenario (clean, chaos, resume)
// pushes a mix of plain and sidecar-bearing v2 files through the digest
// machinery.
func writeMeasurement(t testing.TB, dir string, n int) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for i := 0; i < n; i++ {
		p := cct.NewProfile(0, i, "IBS@4096")
		var v metric.Vector
		v[metric.Samples] = 2
		v[metric.Latency] = uint64(100 + 10*i)
		p.Trees[cct.ClassHeap].AddSample([]cct.Frame{
			{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
			{Kind: cct.KindHeapData, Name: "grid"},
			{Kind: cct.KindStmt, Module: "exe", Name: "smooth", File: "sm.c", Line: 42 + i},
		}, &v)
		if i%2 == 1 {
			attachSidecar(p)
		}
		var buf bytes.Buffer
		if err := profio.WriteProfile(&buf, p); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("rank00000-thread%05d.dcprof", i)
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// attachSidecar gives the profile a small two-window temporal sidecar
// anchored at its heap leaf.
func attachSidecar(p *cct.Profile) {
	var leaf *cct.Node
	p.Trees[cct.ClassHeap].Walk(func(n *cct.Node, _ int) bool {
		if n.NumChildren() == 0 {
			leaf = n
		}
		return true
	})
	var v metric.Vector
	v[metric.Samples] = 1
	v[metric.Latency] = 50
	w0, w2 := cct.TimeWindow{Index: 0}, cct.TimeWindow{Index: 2}
	w0.Add(cct.ClassHeap, leaf, &v)
	w2.Add(cct.ClassHeap, leaf, &v)
	p.Temporal = &cct.TimeSeries{Width: 4096, Windows: []cct.TimeWindow{w0, w2}}
}

// newDcprofd starts a real server over a temp data dir.
func newDcprofd(t testing.TB) (*server.Server, *httptest.Server, string) {
	t.Helper()
	dataDir := t.TempDir()
	srv, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, dataDir
}

// sleepRecorder is the Sleep seam: records requested delays, never
// actually sleeps.
type sleepRecorder struct {
	mu     sync.Mutex
	delays []time.Duration
}

func (s *sleepRecorder) sleep(ctx context.Context, d time.Duration) error {
	s.mu.Lock()
	s.delays = append(s.delays, d)
	s.mu.Unlock()
	return ctx.Err()
}

// fastOptions are deterministic test options: identity jitter, recorded
// instant sleeps.
func fastOptions(serverURL, collection string, rec *sleepRecorder) Options {
	return Options{
		Server:     serverURL,
		Collection: collection,
		Registry:   telemetry.New(),
		Jitter:     func(d time.Duration) time.Duration { return d },
		Sleep:      rec.sleep,
	}
}

func countStatus(sum Summary, status string) int {
	n := 0
	for _, r := range sum.Results {
		if r.Status == status {
			n++
		}
	}
	return n
}

// TestPushCleanUpload is the no-fault baseline: every file uploads on
// its first attempt.
func TestPushCleanUpload(t *testing.T) {
	_, ts, dataDir := newDcprofd(t)
	dir := t.TempDir()
	writeMeasurement(t, dir, 3)

	rec := &sleepRecorder{}
	sum, err := Push(context.Background(), dir, fastOptions(ts.URL, "clean", rec))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Files != 3 || sum.Uploaded != 3 || sum.Failed != 0 || sum.Retries != 0 {
		t.Fatalf("summary %+v, want 3 files all uploaded first try", sum)
	}
	files, err := profio.Files(filepath.Join(dataDir, "clean"))
	if err != nil || len(files) != 3 {
		t.Fatalf("server holds %d files (err %v), want 3", len(files), err)
	}
}

// TestChaosPushSmoke runs the batch through a scripted gauntlet — dropped
// connections, shed 503s, client timeouts, a reset mid-body, and the
// critical dropped-response (server processed, client never heard) —
// and checks exactly-once delivery: the real server ends with exactly
// one file per profile and serves a view byte-identical to a server fed
// the same measurement without faults.
func TestChaosPushSmoke(t *testing.T) {
	_, chaosTS, chaosData := newDcprofd(t)
	_, cleanTS, _ := newDcprofd(t)

	dir := t.TempDir()
	profiles := writeMeasurement(t, dir, 4)

	// Feed the control server directly.
	for _, data := range profiles {
		resp, err := http.Post(cleanTS.URL+"/collections/run/profiles", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("control upload: status %d", resp.StatusCode)
		}
	}

	// Script, in request order (1 GET digests + the file POSTs):
	flaky := faultio.NewFlakyTransport(nil,
		faultio.FaultDrop,         // GET digests: connection drops → retried
		faultio.FaultPass,         // GET digests: ok (empty collection)
		faultio.Fault5xx,          // file 1: shed with Retry-After
		faultio.FaultDropResponse, // file 1: server lands it, response lost
		faultio.FaultPass,         // file 1: retry answers 200 duplicate
		faultio.FaultTimeout,      // file 2: client-side timeout
		faultio.FaultResetMidBody, // file 2: reset after the (tiny) body
		faultio.FaultPass,         // file 2: retry answers 200 duplicate
		// files 3 and 4: clean.
	)

	rec := &sleepRecorder{}
	opt := fastOptions(chaosTS.URL, "run", rec)
	opt.Client = &http.Client{Transport: flaky}
	sum, err := Push(context.Background(), dir, opt)
	if err != nil {
		t.Fatalf("push through chaos: %v\nsummary: %+v", err, sum)
	}

	// Exactly-once: 4 profiles, 4 files on disk, whichever attempt each
	// one landed on. File 1 deterministically lands on the attempt whose
	// response was dropped, so at least one retry must have answered
	// duplicate — never a second copy. (File 2's mid-body reset may or
	// may not deliver the tiny payload before tripping, so its outcome
	// is uploaded or duplicate, both correct.)
	if sum.Failed != 0 || sum.Uploaded+sum.Duplicates != 4 {
		t.Fatalf("summary %+v, want all 4 delivered (uploaded or duplicate)", sum)
	}
	files, err := profio.Files(filepath.Join(chaosData, "run"))
	if err != nil || len(files) != 4 {
		t.Fatalf("chaos server holds %d files (err %v), want exactly 4", len(files), err)
	}
	if got := countStatus(sum, "duplicate"); got < 1 {
		t.Errorf("%d files report duplicate, want >=1 (the dropped response)", got)
	}
	if sum.Retries != 4 {
		t.Errorf("retries = %d, want 4 (two extra attempts for each of two files)", sum.Retries)
	}
	if got := opt.Registry.Snapshot().Counters["push.retries"]; got != 4 {
		t.Errorf("push.retries = %d, want 4", got)
	}

	// The shed 503 advertised Retry-After: 1 — that exact delay must
	// appear in the sleep schedule, preempting computed backoff.
	found := false
	for _, d := range rec.delays {
		if d == time.Second {
			found = true
		}
	}
	if !found {
		t.Errorf("Retry-After(1s) not honored; slept %v", rec.delays)
	}

	// The served analysis is byte-identical to the cleanly-fed server's.
	chaosView := getBody(t, chaosTS.URL+"/collections/run/topdown")
	cleanView := getBody(t, cleanTS.URL+"/collections/run/topdown")
	if !bytes.Equal(chaosView, cleanView) {
		t.Fatalf("chaos-fed view differs from clean view:\n%s\nvs\n%s", chaosView, cleanView)
	}
}

func getBody(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.Bytes()
}

// TestPushResume interrupts a batch after two files, then re-runs it:
// the second run must skip what the server holds (via the digest list)
// and deliver only the remainder.
func TestPushResume(t *testing.T) {
	_, ts, dataDir := newDcprofd(t)
	dir := t.TempDir()
	profiles := writeMeasurement(t, dir, 4)

	// "First run": two files made it before the interruption.
	sent := 0
	for _, data := range profiles {
		resp, err := http.Post(ts.URL+"/collections/resume/profiles", "application/octet-stream", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sent++; sent == 2 {
			break
		}
	}

	rec := &sleepRecorder{}
	opt := fastOptions(ts.URL, "resume", rec)
	sum, err := Push(context.Background(), dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Resumed != 2 || sum.Uploaded != 2 || sum.Failed != 0 {
		t.Fatalf("summary %+v, want resumed=2 uploaded=2", sum)
	}
	if got := opt.Registry.Snapshot().Counters["push.resumed"]; got != 2 {
		t.Errorf("push.resumed = %d, want 2", got)
	}
	files, err := profio.Files(filepath.Join(dataDir, "resume"))
	if err != nil || len(files) != 4 {
		t.Fatalf("server holds %d files (err %v), want 4", len(files), err)
	}
}

// TestPushRetryAfterHonored pins the backoff override: a 429 carrying
// Retry-After must set the exact wait, not the exponential schedule.
func TestPushRetryAfterHonored(t *testing.T) {
	var posts int
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			http.NotFound(w, r) // no digest list: empty resume set
			return
		}
		if posts++; posts == 1 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusCreated)
		json.NewEncoder(w).Encode(map[string]any{"file": "x", "digest": "d"})
	}))
	defer fake.Close()

	dir := t.TempDir()
	writeMeasurement(t, dir, 1)
	rec := &sleepRecorder{}
	sum, err := Push(context.Background(), dir, fastOptions(fake.URL, "x", rec))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Uploaded != 1 || sum.Retries != 1 {
		t.Fatalf("summary %+v, want one upload after one retry", sum)
	}
	if len(rec.delays) != 1 || rec.delays[0] != 7*time.Second {
		t.Fatalf("slept %v, want exactly [7s] from Retry-After", rec.delays)
	}
}

// TestPermanentFailuresNotRetried: 400 (bad payload) and 507 (quota)
// must fail the file on the first attempt — retrying identical bytes
// cannot change either answer.
func TestPermanentFailuresNotRetried(t *testing.T) {
	for _, status := range []int{http.StatusBadRequest, http.StatusInsufficientStorage} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			var posts int
			fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodGet {
					http.NotFound(w, r)
					return
				}
				posts++
				http.Error(w, "no", status)
			}))
			defer fake.Close()

			dir := t.TempDir()
			writeMeasurement(t, dir, 1)
			rec := &sleepRecorder{}
			opt := fastOptions(fake.URL, "x", rec)
			sum, err := Push(context.Background(), dir, opt)
			if err == nil {
				t.Fatal("push succeeded against a permanently failing server")
			}
			if posts != 1 {
				t.Fatalf("server saw %d POSTs, want 1 (no retry on %d)", posts, status)
			}
			if sum.Failed != 1 || sum.Results[0].Attempts != 1 {
				t.Fatalf("summary %+v, want one single-attempt failure", sum)
			}
			if got := opt.Registry.Snapshot().Counters["push.failed"]; got != 1 {
				t.Errorf("push.failed = %d, want 1", got)
			}
		})
	}
}

// TestPushAttemptsExhausted: a persistently shedding server fails the
// file after MaxAttempts, not before and not forever.
func TestPushAttemptsExhausted(t *testing.T) {
	var posts int
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			http.NotFound(w, r)
			return
		}
		posts++
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer fake.Close()

	dir := t.TempDir()
	writeMeasurement(t, dir, 1)
	rec := &sleepRecorder{}
	opt := fastOptions(fake.URL, "x", rec)
	opt.MaxAttempts = 3
	sum, err := Push(context.Background(), dir, opt)
	if err == nil {
		t.Fatal("push succeeded against a permanently shedding server")
	}
	if posts != 3 || sum.Results[0].Attempts != 3 {
		t.Fatalf("posts=%d attempts=%d, want exactly MaxAttempts=3", posts, sum.Results[0].Attempts)
	}
	// Backoff doubles from base and is capped.
	opt2 := fastOptions(fake.URL, "x", rec)
	opt2 = opt2.withDefaults()
	if d := backoff(opt2, 1); d != opt2.BaseBackoff {
		t.Errorf("backoff(1) = %v, want base %v", d, opt2.BaseBackoff)
	}
	if d := backoff(opt2, 2); d != 2*opt2.BaseBackoff {
		t.Errorf("backoff(2) = %v, want doubled", d)
	}
	if d := backoff(opt2, 100); d != opt2.MaxBackoff {
		t.Errorf("backoff(100) = %v, want cap %v", d, opt2.MaxBackoff)
	}
}

// TestPushTotalDeadline: the batch deadline cuts off retries and is
// reported, with the summary reflecting how far the batch got.
func TestPushTotalDeadline(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet {
			http.NotFound(w, r)
			return
		}
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer fake.Close()

	dir := t.TempDir()
	writeMeasurement(t, dir, 2)
	opt := Options{
		Server:       fake.URL,
		Collection:   "x",
		Registry:     telemetry.New(),
		Jitter:       func(d time.Duration) time.Duration { return d },
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   2 * time.Millisecond,
		TotalTimeout: 150 * time.Millisecond,
	}
	sum, err := Push(context.Background(), dir, opt)
	if err == nil {
		t.Fatal("push met no deadline against a permanently shedding server")
	}
	if sum.Failed == 0 {
		t.Fatalf("summary %+v, want at least one failure at the deadline", sum)
	}
}

// TestPushUnknownTrailerRoundTrip uploads a v2 file carrying both a
// temporal sidecar and an unknown trailing section: ingest validation
// must accept it (unknown sections are CRC-verified and skipped, the
// forward-compatibility contract), the stored bytes must be identical to
// the source — no re-encoding, no trailer stripping — and a re-push must
// recognize the stored copy by digest and resume past it.
func TestPushUnknownTrailerRoundTrip(t *testing.T) {
	_, ts, dataDir := newDcprofd(t)
	dir := t.TempDir()
	profiles := writeMeasurement(t, dir, 2) // thread 1 carries a sidecar

	// Append a future section to the sidecar-bearing file.
	name := "rank00000-thread00001.dcprof"
	img := appendUnknownTrailer(profiles[name], []byte("section from the future"))
	if err := os.WriteFile(filepath.Join(dir, name), img, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := &sleepRecorder{}
	sum, err := Push(context.Background(), dir, fastOptions(ts.URL, "fwd", rec))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Uploaded != 2 || sum.Failed != 0 {
		t.Fatalf("summary %+v, want both files uploaded", sum)
	}

	// The stored copy is byte-identical to what was sent.
	files, err := profio.Files(filepath.Join(dataDir, "fwd"))
	if err != nil || len(files) != 2 {
		t.Fatalf("server holds %d files (err %v), want 2", len(files), err)
	}
	found := false
	for _, f := range files {
		stored, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(stored, img) {
			found = true
		}
	}
	if !found {
		t.Fatal("no stored file matches the unknown-trailer upload byte for byte")
	}

	// The collection still merges and serves.
	getBody(t, ts.URL+"/collections/fwd/topdown")

	// A second push resumes both files off the digest list — the digest
	// of the stored bytes matches the source exactly.
	sum2, err := Push(context.Background(), dir, fastOptions(ts.URL, "fwd", rec))
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Resumed != 2 || sum2.Uploaded != 0 {
		t.Fatalf("re-push summary %+v, want both files resumed by digest", sum2)
	}
}

// appendUnknownTrailer frames payload as a correctly-checksummed trailer
// section under a magic no reader knows.
func appendUnknownTrailer(img, payload []byte) []byte {
	out := append([]byte{}, img...)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], 0x58545241 /* "XTRA" */)
	out = append(out, u32[:]...)
	var n [binary.MaxVarintLen64]byte
	out = append(out, n[:binary.PutUvarint(n[:], uint64(len(payload)))]...)
	out = append(out, payload...)
	binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(payload))
	return append(out, u32[:]...)
}

// TestParseRetryAfter covers both header forms.
func TestParseRetryAfter(t *testing.T) {
	if d := parseRetryAfter("3"); d != 3*time.Second {
		t.Errorf("seconds form: %v", d)
	}
	if d := parseRetryAfter(""); d != 0 {
		t.Errorf("absent: %v", d)
	}
	if d := parseRetryAfter("garbage"); d != 0 {
		t.Errorf("garbage: %v", d)
	}
	if d := parseRetryAfter("-5"); d != 0 {
		t.Errorf("negative: %v", d)
	}
	when := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(when); d <= 0 || d > 10*time.Second {
		t.Errorf("HTTP-date form: %v", d)
	}
	past := time.Now().Add(-time.Minute).UTC().Format(http.TimeFormat)
	if d := parseRetryAfter(past); d != 0 {
		t.Errorf("past HTTP-date: %v", d)
	}
}
