package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"dcprof/internal/cct"
	"dcprof/internal/profio"
	"dcprof/internal/server"
)

// spanHeader carries the client span's id to the daemon side, so the
// handler span can name the request that caused it.
const spanHeader = "X-Bench-Span"

// daemon is an in-process dcprofd: server.New with its defaults (real
// fsync on the upload path) behind an http.Server on a loopback port.
type daemon struct {
	srv     *server.Server
	handler http.Handler // srv.Handler(): what the layer measurements call directly
	url     string
	hs      *http.Server
	done    chan error

	// tr is the tracer handler spans go to; nil while tracing is off.
	tr atomic.Pointer[tracer]
}

func startDaemon(dataDir string) (*daemon, error) {
	srv, err := server.New(server.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, handler: srv.Handler(), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.hs = &http.Server{Handler: d}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// ServeHTTP passes the request to the daemon's handler, inside a span
// when a tracer is set.
func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := d.tr.Load()
	if tr == nil {
		d.handler.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader)) // 0 (a root) when absent
	s := tr.begin(parent, layerServer, "handler "+r.Method+" "+r.URL.Path, 100)
	d.handler.ServeHTTP(w, r)
	tr.end(s)
}

// stop shuts the listener down and waits for the serving goroutine.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	d.srv.Close()
	return err
}

// counter reads one of the daemon's own counters.
func (d *daemon) counter(name string) uint64 { return d.srv.Registry().Snapshot().Counters[name] }

// serverCounters fills the metrics both serve_* workloads read from
// Server.Registry().
func (d *daemon) serverCounters(m map[string]float64) {
	c := d.srv.Registry().Snapshot().Counters
	if lookups := c["server.cache.hits"] + c["server.cache.misses"]; lookups > 0 {
		m["server.cache_hit_ratio"] = float64(c["server.cache.hits"]) / float64(lookups)
	}
	m["server.merges"] = float64(c["server.merges"])
	m["server.shed_total"] = float64(c["server.shed"])
}

// newClient returns a keep-alive client of its own, so that each client
// goroutine holds exactly one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

// reply is what one request came back with.
type reply struct {
	status  int
	body    []byte
	latency time.Duration
}

// do issues one request and reads the whole body; the latency covers
// both. The span, when tracing, is the client's view of the request:
// its self time is the HTTP stack and the loopback, its child is the
// handler.
func do(c *http.Client, tr *tracer, parent, tid int, method, url string, body []byte) (reply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	s := tr.begin(parent, layerNetHTTP, method+" "+req.URL.Path, tid)
	if tr != nil {
		req.Header.Set(spanHeader, strconv.Itoa(s))
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		tr.end(s)
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	tr.end(s)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: b, latency: lat}, nil
}

// timingTransport is the RoundTripper handed to push.Options.Client: it
// records each POST's latency as the push client sees it, and opens the
// client span the handler span hangs under.
type timingTransport struct {
	base    http.RoundTripper
	tr      *tracer
	parent  int
	posts   []time.Duration // push.Push is sequential, so no lock
	gets    []time.Duration
	elapsed time.Duration
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := t.tr.begin(t.parent, layerNetHTTP, req.Method+" "+req.URL.Path, 1)
	if t.tr != nil {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(s))
	}
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	d := time.Since(t0)
	t.tr.end(s)
	t.elapsed += d
	if req.Method == http.MethodPost {
		t.posts = append(t.posts, d)
	} else {
		t.gets = append(t.gets, d)
	}
	return resp, err
}

// encodeProfiles returns each profile's v3 bytes.
func encodeProfiles(profiles []*cct.Profile) ([][]byte, error) {
	out := make([][]byte, len(profiles))
	for i, p := range profiles {
		var b bytes.Buffer
		if err := profio.WriteProfile(&b, p); err != nil {
			return nil, err
		}
		out[i] = b.Bytes()
	}
	return out, nil
}

func digestOf(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

// dirDigests returns the SHA-256 of every profile file in dir.
func dirDigests(dir string) ([]string, error) {
	files, err := profio.Files(dir)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(files))
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		out[i] = digestOf(b)
	}
	return out, nil
}

// sameDigests reports whether the daemon's /digests answer lists exactly
// the wanted set.
func sameDigests(body []byte, want []string) error {
	var doc struct {
		Digests []string `json:"digests"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("decoding /digests: %w", err)
	}
	got := append([]string(nil), doc.Digests...)
	want = append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		return fmt.Errorf("/digests lists %d profiles, uploaded %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("/digests entry %s was never uploaded", got[i])
		}
	}
	return nil
}
