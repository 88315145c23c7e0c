package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dcprof/internal/profio"
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
