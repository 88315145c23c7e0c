package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"dcprof/internal/analysis"
	"dcprof/internal/cct"
	"dcprof/internal/push"
	"dcprof/internal/server"
	"dcprof/internal/view"
)

const liveCollection = "live"

// The three queries of a trickle round. The first follows an upload, so
// it is a cache miss: decode every file, fold, reduce, render. The other
// two hit the view the first one built; the last renders the whole tree,
// which is what makes comparing it with an offline merge a strong check.
var liveQueries = [3]string{
	"/collections/" + liveCollection + "/topdown",
	"/collections/" + liveCollection + "/bottomup",
	"/collections/" + liveCollection + "/topdown?min=0&depth=3",
}

// liveInst is the serve_live workload. Every repetition starts a fresh
// daemon on an empty data directory, so each one does the same work: a
// bulk push.Push of the corpus, then rounds of {upload one new profile,
// query}. One client, one connection, closed loop.
type liveInst struct {
	seed      int64
	sz        sizes
	root      string
	corpus    string   // directory push.Push uploads
	trickle   [][]byte // one new encoded profile per round
	uploaded  []string // digests of corpus + trickle: what /digests must list
	transport *http.Transport
	client    *http.Client

	d    *daemon // the last repetition's daemon, kept up so its cache counts as live heap
	reps int

	sums       [][][3][sha256.Size]byte // [rep][round][query]
	uploads    []time.Duration          // every POST, bulk and trickle, as the client saw it
	clientPer  []float64                // push.Push wall minus round trips, per file, ms
	preflights []time.Duration          // push's GET /digests before uploading
	retries    int
}

func setupLive(e *env) (instance, error) {
	l := &liveInst{seed: e.seed, sz: e.sz, root: e.dir, corpus: filepath.Join(e.dir, "corpus")}
	if _, err := writePlain(l.corpus, denseProfiles(e.seed, 0, e.sz.liveFiles, e.sz.liveSamples)); err != nil {
		return nil, err
	}
	var err error
	if l.trickle, err = encodeProfiles(denseProfiles(e.seed, e.sz.liveFiles, e.sz.liveRounds, e.sz.liveSamples)); err != nil {
		return nil, err
	}
	if l.uploaded, err = dirDigests(l.corpus); err != nil {
		return nil, err
	}
	for _, b := range l.trickle {
		l.uploaded = append(l.uploaded, digestOf(b))
	}
	l.transport = &http.Transport{MaxIdleConnsPerHost: 1}
	l.client = &http.Client{Transport: l.transport}
	return l, nil
}

// retire stops the previous repetition's daemon. Its data directory stays
// until close: deleting a few hundred files between repetitions would
// leave journal work behind for the next repetition's fsyncs to wait on.
func (l *liveInst) retire() error {
	if l.d == nil {
		return nil
	}
	err := l.d.stop()
	l.d = nil
	l.transport.CloseIdleConnections()
	return err
}

func (l *liveInst) rep(tr *tracer) (repResult, error) {
	if err := l.retire(); err != nil {
		return repResult{}, err
	}
	l.reps++
	d, err := startDaemon(filepath.Join(l.root, fmt.Sprintf("data-%d", l.reps)))
	if err != nil {
		return repResult{}, err
	}
	l.d = d
	d.tr.Store(tr)
	var r repResult
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "serve_live: "+format+"\n", args...)
		r.failed++
	}

	root := tr.begin(0, layerHarness, "live.rep", 1)
	defer tr.end(root)

	// Bulk ingest through the real upload client.
	ps := tr.begin(root, layerPush, "push.Push", 1)
	tt := &timingTransport{base: l.transport, tr: tr, parent: ps}
	t0 := time.Now()
	sum, err := push.Push(context.Background(), l.corpus, push.Options{
		Server: d.url, Collection: liveCollection, Client: &http.Client{Transport: tt},
	})
	r.wall = time.Since(t0)
	tr.end(ps)
	r.units = l.sz.liveFiles
	r.attempted += l.sz.liveFiles
	if err != nil {
		fail("push: %v", err)
	}
	if missing := l.sz.liveFiles - sum.Uploaded; missing != 0 {
		fmt.Fprintf(os.Stderr, "serve_live: push uploaded %d of %d files (%d failed, %d duplicates)\n", sum.Uploaded, l.sz.liveFiles, sum.Failed, sum.Duplicates)
		r.failed += missing
	}
	l.retries += sum.Retries
	l.uploads = append(l.uploads, tt.posts...)
	l.preflights = append(l.preflights, tt.gets...)
	l.clientPer = append(l.clientPer, 1e3*(r.wall-tt.elapsed).Seconds()/float64(l.sz.liveFiles))

	// Trickle: writes beside reads.
	rounds := make([][3][sha256.Size]byte, len(l.trickle))
	for i, prof := range l.trickle {
		up, err := do(l.client, tr, root, 1, http.MethodPost, d.url+"/collections/"+liveCollection+"/profiles", prof)
		if err != nil {
			return r, err
		}
		r.attempted++
		if up.status != http.StatusCreated {
			fail("round %d upload: status %d: %s", i, up.status, up.body)
		}
		l.uploads = append(l.uploads, up.latency)
		for q, path := range liveQueries {
			rep, err := do(l.client, tr, root, 1, http.MethodGet, d.url+path, nil)
			if err != nil {
				return r, err
			}
			r.attempted++
			if rep.status != http.StatusOK {
				fail("round %d GET %s: status %d: %s", i, path, rep.status, rep.body)
			}
			rounds[i][q] = sha256.Sum256(rep.body)
			r.outputBytes += int64(len(rep.body))
			if q == 0 {
				r.ops = append(r.ops, rep.latency)
			}
		}
	}
	l.sums = append(l.sums, rounds)

	dg, err := do(l.client, tr, root, 1, http.MethodGet, d.url+"/collections/"+liveCollection+"/digests", nil)
	if err != nil {
		return r, err
	}
	r.attempted++
	if dg.status != http.StatusOK {
		fail("GET /digests: status %d", dg.status)
	} else if err := sameDigests(dg.body, l.uploaded); err != nil {
		fail("%v", err)
	}

	// Exactly one merge per round (the post-upload query), none shed.
	r.attempted++
	if merges, shed := d.counter("server.merges"), d.counter("server.shed"); merges != uint64(len(l.trickle)) || shed != 0 {
		fail("%d merges for %d rounds, %d requests shed", merges, len(l.trickle), shed)
	}
	return r, nil
}

// liveOptions are the view options each of liveQueries selects.
func liveOptions(event string) [3]view.Options {
	full := viewOptions(event)
	full.MinShare, full.MaxDepth = 0, 3
	return [3]view.Options{viewOptions(event), viewOptions(event), full}
}

// verify renders, for every round's generation, the three views over an
// offline single-worker merge of exactly the profiles the daemon held at
// that point, and compares them with what every repetition was served.
func (l *liveInst) verify() (attempted, failed int, err error) {
	held := denseProfiles(l.seed, 0, l.sz.liveFiles, l.sz.liveSamples)
	for i := 0; i < l.sz.liveRounds; i++ {
		held = append(held, denseProfile(l.seed, l.sz.liveFiles+i, l.sz.liveSamples))
		db := analysis.MergePreserving(held, 1)
		want, err := renderJSON(db.Merged, liveOptions(db.Event))
		if err != nil {
			return attempted, failed, err
		}
		for rep, rounds := range l.sums {
			for q := range want {
				attempted++
				if rounds[i][q] != want[q] {
					fmt.Fprintf(os.Stderr, "serve_live: repetition %d round %d: %s differs from the offline merge\n", rep, i, liveQueries[q])
					failed++
				}
			}
		}
	}
	l.sums = nil
	return attempted, failed, nil
}

// renderJSON renders top-down, bottom-up, top-down with the given options
// and returns the digests of the three documents.
func renderJSON(p *cct.Profile, o [3]view.Options) (sums [3][sha256.Size]byte, err error) {
	writers := [3]func(io.Writer, *cct.Profile, view.Options) error{
		view.WriteTopDownJSON, view.WriteBottomUpJSON, view.WriteTopDownJSON,
	}
	for i, write := range writers {
		var b bytes.Buffer
		if err := write(&b, p, o[i]); err != nil {
			return sums, err
		}
		sums[i] = sha256.Sum256(b.Bytes())
	}
	return sums, nil
}

func (l *liveInst) close() error {
	err := l.retire()
	if rerr := os.RemoveAll(l.root); err == nil {
		err = rerr
	}
	return err
}

func (l *liveInst) layers(lc *layerCtx) error {
	m := lc.m
	up := ms(l.uploads)
	m["server.upload_ms_p50"] = quantile(up, 0.50)
	m["server.upload_ms_p95"] = quantile(up, 0.95)
	m["push.client_ms_per_file"] = median(l.clientPer)
	m["push.preflight_ms"] = median(ms(l.preflights))
	m["push.retries"] = float64(l.retries)
	l.d.serverCounters(m)

	// The daemon's handler called directly, no sockets: uploads into a
	// growing collection, and the first query after a generation bump at
	// two collection sizes. Their ratio is how cold-query cost grows with
	// the number of uploads.
	dir := filepath.Join(l.root, "direct")
	srv, err := server.New(server.Config{DataDir: dir})
	if err != nil {
		return err
	}
	defer srv.Close()
	defer os.RemoveAll(dir)
	h := srv.Handler()
	call := func(method, path string, body []byte) (time.Duration, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code/100 != 2 {
			return d, fmt.Errorf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.Bytes())
		}
		return d, nil
	}
	var uploads []time.Duration
	next := 0
	upload := func() error {
		// Ids past anything a repetition uploads; contents differ, so the
		// daemon never answers "duplicate".
		enc, err := encodeProfiles([]*cct.Profile{denseProfile(l.seed, 1<<20+next, l.sz.liveSamples)})
		if err != nil {
			return err
		}
		next++
		d, err := call(http.MethodPost, "/collections/direct/profiles", enc[0])
		uploads = append(uploads, d)
		return err
	}
	for _, size := range []struct {
		files int
		name  string
	}{{l.sz.liveFiles, "server.cold_view_ms.n250"}, {l.sz.liveColdBig, "server.cold_view_ms.n1000"}} {
		for next < size.files {
			if err := upload(); err != nil {
				return err
			}
		}
		var cold []time.Duration
		for i := 0; i < 3; i++ {
			if err := upload(); err != nil {
				return err
			}
			d, err := call(http.MethodGet, "/collections/direct/topdown", nil)
			if err != nil {
				return err
			}
			cold = append(cold, d)
		}
		m[size.name] = median(ms(cold))
	}
	m["server.upload_handler_ms"] = median(ms(uploads))
	return nil
}
