package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"dcprof/internal/cct"
	"dcprof/internal/profio"
	"dcprof/internal/view"
)

// FuzzHandleUpload throws arbitrary bodies at the ingest path. The
// invariants: the handler never panics, answers only 201 (valid v2
// payload) or 400 (rejected), and a rejected upload never lands a
// profile file in the collection.
func FuzzHandleUpload(f *testing.F) {
	valid := encodeProfile(f, synthProfile(0, 0, 100))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x20
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte("definitely not a profile"))

	srv, err := New(Config{DataDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		before := fileCount(t, srv, "fuzz")
		req := httptest.NewRequest(http.MethodPost, "/collections/fuzz/profiles", bytes.NewReader(data))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)

		after := fileCount(t, srv, "fuzz")
		// Ingest validates by staging alone; a query materialises. The two
		// must agree: whatever is admitted loads, and nothing that loads as
		// a checksummed profile is turned away.
		loaded, loadErr := profio.ReadProfile(bytes.NewReader(data))
		switch rr.Code {
		case http.StatusCreated:
			if after != before+1 {
				t.Fatalf("201 but file count %d -> %d", before, after)
			}
			if loadErr != nil {
				t.Fatalf("admitted upload does not load: %v", loadErr)
			}
		case http.StatusOK:
			// Idempotent replay: the engine re-sent bytes the collection
			// already holds. Nothing may land.
			if after != before {
				t.Fatalf("duplicate upload landed a file: %d -> %d", before, after)
			}
			var res UploadResult
			if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil || !res.Duplicate {
				t.Fatalf("200 without duplicate marker: %s", rr.Body.String())
			}
		case http.StatusBadRequest:
			if after != before {
				t.Fatalf("rejected upload landed a file: %d -> %d", before, after)
			}
			// v1 streams load but carry no checksums, so ingest refuses them.
			if loadErr == nil && !isV1(data) {
				t.Fatalf("rejected upload loads cleanly (%d nodes): %s", loaded.NumNodes(), rr.Body.String())
			}
		default:
			t.Fatalf("status %d for fuzzed upload: %s", rr.Code, rr.Body.String())
		}
	})
}

// isV1 reports whether data carries the version-1 preamble.
func isV1(data []byte) bool {
	return len(data) >= 8 && binary.LittleEndian.Uint32(data[4:]) == profio.Version1
}

// FuzzUploadIdempotency is the digest-lookup fuzz: whatever bytes arrive,
// sending them twice must behave like sending them once. A valid payload
// answers 201 then 200-duplicate against the same file; an invalid one
// answers 400 twice; in neither case may the second POST land a file or
// advance the generation.
func FuzzUploadIdempotency(f *testing.F) {
	valid := encodeProfile(f, synthProfile(0, 0, 100))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("not a profile"))
	f.Add([]byte{})

	srv, err := New(Config{DataDir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	post := func(data []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/collections/idem/profiles", bytes.NewReader(data))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		first := post(data)
		mid := fileCount(t, srv, "idem")
		second := post(data)
		after := fileCount(t, srv, "idem")
		if after != mid {
			t.Fatalf("re-POST of identical bytes landed a file: %d -> %d", mid, after)
		}
		switch first.Code {
		case http.StatusCreated, http.StatusOK:
			// Valid bytes (201 fresh, or 200 if a previous iteration already
			// uploaded them): the retry must answer 200 against the same file.
			if second.Code != http.StatusOK {
				t.Fatalf("retry of accepted upload: status %d, want 200", second.Code)
			}
			var a, b UploadResult
			if err := json.Unmarshal(first.Body.Bytes(), &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(second.Body.Bytes(), &b); err != nil {
				t.Fatal(err)
			}
			if !b.Duplicate || b.File != a.File || b.Digest != a.Digest {
				t.Fatalf("retry answered a different identity: first %+v, second %+v", a, b)
			}
			if b.Generation != a.Generation {
				t.Fatalf("duplicate advanced the generation: %d -> %d", a.Generation, b.Generation)
			}
		case http.StatusBadRequest:
			if second.Code != http.StatusBadRequest {
				t.Fatalf("rejected payload re-POST: status %d, want 400", second.Code)
			}
		default:
			t.Fatalf("status %d for fuzzed upload: %s", first.Code, first.Body.String())
		}
	})
}

// FuzzViewHandoff drives the merged-view cache through a fuzz-chosen
// interleaving of five steps: upload a new profile, hold the current view
// as a request does, release a held view, a query whose client is already
// gone (it may start a build, take the cached tree, and be cancelled), and
// a cold query of every view route. Every body served is compared with
// view.Write*JSON over an offline merge of the accepted set, and after
// every step each held view must still render what it rendered when it
// was taken: an entry never changes while held.
func FuzzViewHandoff(f *testing.F) {
	f.Add([]byte{0, 0, 4, 1, 0, 4, 2, 0, 4})       // held across a build, then released
	f.Add([]byte{0, 0, 4, 0, 3, 4, 0, 4})          // a cancelled build after an upload
	f.Add([]byte{0, 1, 0, 1, 0, 3, 1, 4, 2, 7, 4}) // several holds across cancelled and cold builds
	f.Add([]byte{0, 4, 0, 4, 0, 4, 0, 3, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 16 {
			ops = ops[:16]
		}
		srv, ts := newTestServer(t, nil)
		h := srv.Handler()
		refSet := []*cct.Profile{synthProfile(9, 0, 300)}
		mustUpload(t, ts, "ref", encodeProfile(t, refSet[0]))
		ref := offlineMerge(t, refSet)
		rng := rand.New(rand.NewSource(int64(len(ops))))

		type heldView struct {
			e    *viewEntry
			body []byte
		}
		var (
			accepted []*cct.Profile
			held     []heldView
		)
		// topDown renders the entry's tree afresh: its snapshot caches the
		// columns it has built, so only the tree shows a fold into it.
		topDown := func(e *viewEntry) []byte {
			var b bytes.Buffer
			if err := view.WriteTopDownJSON(&b, e.db.Merged, defaultOptions(e.event)); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
		for step, op := range ops {
			switch op % 5 {
			case 0:
				p := variedProfile(rng, len(accepted), true)
				accepted = append(accepted, p)
				mustUpload(t, ts, "live", encodeProfile(t, p))
			case 1:
				if len(accepted) == 0 {
					continue
				}
				e, _, err := srv.view(context.Background(), "live")
				if err != nil {
					t.Fatalf("step %d: hold: %v", step, err)
				}
				v := heldView{e, topDown(e)}
				if want := renders(t, "live", accepted, ref)["/collections/live/topdown"]; !bytes.Equal(v.body, want) {
					t.Fatalf("step %d: a held view renders other than the offline merge of the %d accepted uploads", step, len(accepted))
				}
				held = append(held, v)
			case 2:
				if len(held) == 0 {
					continue
				}
				k := int(op/5) % len(held)
				srv.cache.release(held[k].e)
				held = append(held[:k], held[k+1:]...)
			case 3:
				if len(accepted) == 0 {
					continue
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if e, _, err := srv.view(ctx, "live"); err == nil {
					srv.cache.release(e) // a hit: the entry was already built
				}
				waitFor(t, func() bool {
					srv.cache.mu.Lock()
					defer srv.cache.mu.Unlock()
					return len(srv.cache.inflight) == 0
				})
			case 4:
				if len(accepted) == 0 {
					continue
				}
				for path, want := range renders(t, "live", accepted, ref) {
					rr := httptest.NewRecorder()
					h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
					if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), want) {
						t.Fatalf("step %d: GET %s (status %d) differs from the offline merge of the %d accepted uploads", step, path, rr.Code, len(accepted))
					}
				}
			}
			for _, v := range held {
				if !bytes.Equal(topDown(v.e), v.body) {
					t.Fatalf("step %d: a held view changed", step)
				}
			}
		}
		for _, v := range held {
			srv.cache.release(v.e)
		}
		checkNoHolds(t, srv.cache)
	})
}
