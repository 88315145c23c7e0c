package server

// A miss continues from the collection's cached generation: served bytes
// and statistics must equal a fresh full merge of the accepted set after
// every upload, a build after an upload must read only that upload, the
// entry it continued from must not change, and a restart's full build is
// what notices files damaged after they were folded.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"dcprof/internal/analysis"
	"dcprof/internal/cct"
	"dcprof/internal/faultio"
	"dcprof/internal/metric"
	"dcprof/internal/profio"
	"dcprof/internal/view"
)

// variedProfile is upload number i of a random sequence: synthProfile with
// a random latency, plus a statement on a random line — so some uploads add
// calling contexts and some only add to existing ones — and, with
// sidecars, a few windows of deltas on that statement.
func variedProfile(rng *rand.Rand, i int, sidecars bool) *cct.Profile {
	p := synthProfile(i/4, i%4, uint64(50+rng.Intn(400)))
	var v metric.Vector
	v[metric.Samples] = uint64(1 + rng.Intn(3))
	v[metric.Latency] = uint64(rng.Intn(500))
	leaf := p.Trees[cct.ClassUnknown].AddSample([]cct.Frame{
		{Kind: cct.KindCall, Module: "exe", Name: "main", File: "main.c"},
		{Kind: cct.KindStmt, Module: "exe", Name: "main", File: "main.c", Line: 20 + rng.Intn(6)},
	}, &v)
	if sidecars {
		ts := &cct.TimeSeries{Width: testWindowWidth}
		w := uint64(rng.Intn(3))
		for k := 0; k <= rng.Intn(3); k++ {
			var d metric.Vector
			d[metric.Samples] = 1
			d[metric.Latency] = uint64(1 + rng.Intn(90))
			win := cct.TimeWindow{Index: w}
			win.Add(cct.ClassUnknown, leaf, &d)
			ts.Windows = append(ts.Windows, win)
			w += uint64(1 + rng.Intn(4))
		}
		p.Temporal = ts
	}
	return p
}

// renders returns, path by path, what the server must answer for a
// collection holding exactly accepted (diffed against ref): the offline
// renders of a fresh full merge.
func renders(t *testing.T, name string, accepted []*cct.Profile, ref *analysis.Database) map[string][]byte {
	t.Helper()
	db := offlineMerge(t, accepted)
	o := defaultOptions(db.Event)
	full := o
	full.MinShare, full.MaxDepth = 0, 0
	out := map[string][]byte{}
	add := func(path string, write func(io.Writer) error) {
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		out["/collections/"+name+path] = b.Bytes()
	}
	add("/topdown", func(w io.Writer) error { return view.WriteTopDownJSON(w, db.Merged, o) })
	add("/topdown?min=0&depth=0", func(w io.Writer) error { return view.WriteTopDownJSON(w, db.Merged, full) })
	add("/bottomup", func(w io.Writer) error { return view.WriteBottomUpJSON(w, db.Merged, o) })
	add("/diff?base=ref", func(w io.Writer) error { return view.WriteDiffJSON(w, ref.Merged, db.Merged, o.Metric, o.MaxRows) })
	if db.Temporal != nil {
		clipped, err := analysis.Clip(db, 0, 2*testWindowWidth)
		if err != nil {
			t.Fatal(err)
		}
		add("/topdown?window=0:8192", func(w io.Writer) error { return view.WriteTopDownJSON(w, clipped, o) })
		ph, err := analysis.Phases(db)
		if err != nil {
			t.Fatal(err)
		}
		add("/phases", func(w io.Writer) error { return view.WritePhasesJSON(w, db.Event, db.Temporal.Width(), ph) })
	}
	return out
}

// cumulativeStats is the part of a stats report that describes what the
// view was built from, as opposed to how long this build took.
type cumulativeStats struct {
	Inputs, InputNodes, MergedNodes int
	BytesRead                       int64
	Quarantined                     []analysis.QuarantinedReport
}

func cumulativeOf(r analysis.StatsReport) cumulativeStats {
	return cumulativeStats{r.Inputs, r.InputNodes, r.MergedNodes, r.BytesRead, r.Quarantined}
}

// rebuildStats is what a full build of the collection's files reports.
func rebuildStats(t *testing.T, srv *Server, name string) cumulativeStats {
	t.Helper()
	_, files, err := srv.store.get(name).snapshot()
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := analysis.LoadFilesStreamingCtx(context.Background(), "rebuild", nil, files, analysis.LoadOptions{Policy: analysis.PolicyQuarantine})
	if err != nil {
		t.Fatal(err)
	}
	return cumulativeOf(st.Report())
}

// checkServed requires every query route to answer what a fresh full merge
// of accepted renders, and /stats to count what a full build counts.
func checkServed(t *testing.T, srv *Server, ts *httptest.Server, name string, accepted []*cct.Profile, ref *analysis.Database, step string) {
	t.Helper()
	for path, want := range renders(t, name, accepted, ref) {
		if got := mustGet(t, ts, path); !bytes.Equal(got, want) {
			t.Fatalf("%s: GET %s differs from the fresh full merge of the %d accepted uploads", step, path, len(accepted))
		}
	}
	var rep analysis.StatsReport
	if err := json.Unmarshal(mustGet(t, ts, "/collections/"+name+"/stats"), &rep); err != nil {
		t.Fatal(err)
	}
	if got, want := cumulativeOf(rep), rebuildStats(t, srv, name); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: /stats %+v, a full rebuild %+v", step, got, want)
	}
}

// TestExtendedBuildMatchesRebuild uploads random sequences — new profiles
// and re-sent duplicates, with and without sidecars — and after every
// upload compares every query route with a fresh full merge of the
// accepted set. It ends with uploads racing queries of every route (run
// under -race: a request reading a tree a build is folding into is a data
// race): each answer must be the render of some whole prefix of the upload
// sequence, once the uploads are done the routes must match again, and no
// entry may still be held.
func TestExtendedBuildMatchesRebuild(t *testing.T) {
	for _, sidecars := range []bool{false, true} {
		t.Run(fmt.Sprintf("sidecars=%v", sidecars), func(t *testing.T) {
			srv, ts := newTestServer(t, nil)
			rng := rand.New(rand.NewSource(7))
			refSet := []*cct.Profile{synthProfile(9, 0, 300), synthProfile(9, 1, 30)}
			for _, p := range refSet {
				mustUpload(t, ts, "ref", encodeProfile(t, p))
			}
			ref := offlineMerge(t, refSet)

			var accepted []*cct.Profile
			var payloads [][]byte
			damaged := false
			for step := 0; step < 12; step++ {
				if len(payloads) > 0 && rng.Intn(4) == 0 {
					resp := post(t, ts, "live", payloads[rng.Intn(len(payloads))])
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("step %d: duplicate upload answered %d, want 200", step, resp.StatusCode)
					}
				} else {
					p := variedProfile(rng, len(payloads), sidecars)
					payloads = append(payloads, encodeProfile(t, p))
					res := mustUpload(t, ts, "live", payloads[len(payloads)-1])
					if step >= 5 && !damaged {
						damaged = true
						// Damaged at rest before any build read it: quarantined
						// by the build that first reads it, and in every /stats
						// after that.
						if err := faultio.FlipBit(filepath.Join(srv.store.get("live").dir, res.File), res.Bytes/2, 1); err != nil {
							t.Fatal(err)
						}
					} else {
						accepted = append(accepted, p)
					}
				}
				checkServed(t, srv, ts, "live", accepted, ref, fmt.Sprintf("step %d", step))
			}
			if got, merges := counter(srv, "server.merges.extended"), counter(srv, "server.merges"); got == 0 || got >= merges {
				t.Fatalf("%d of %d merges extended, want all but the first build of each collection", got, merges)
			}
			if q := rebuildStats(t, srv, "live").Quarantined; len(q) != 1 {
				t.Fatalf("quarantine %+v, want the one file damaged at rest", q)
			}

			// Uploads racing queries.
			racing := make([]*cct.Profile, 4)
			for i := range racing {
				racing[i] = variedProfile(rng, len(payloads)+i, sidecars)
			}
			// Every route's render of each upload prefix; /stats is checked
			// for its status alone.
			prefixes := map[string]map[string]bool{"/collections/live/stats": nil}
			for k := 0; k <= len(racing); k++ {
				for path, body := range renders(t, "live", append(accepted[:len(accepted):len(accepted)], racing[:k]...), ref) {
					if prefixes[path] == nil {
						prefixes[path] = map[string]bool{}
					}
					prefixes[path][string(body)] = true
				}
			}
			var paths []string
			for path := range prefixes {
				paths = append(paths, path)
			}
			fetch := func(path string) (int, []byte, error) {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					return 0, nil, err
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				return resp.StatusCode, body, err
			}
			var wg sync.WaitGroup
			var done atomic.Bool
			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := c; !done.Load(); i++ {
						path := paths[i%len(paths)]
						status, body, err := fetch(path)
						if want := prefixes[path]; err != nil || status != http.StatusOK || want != nil && !want[string(body)] {
							t.Errorf("racing GET %s: status %d, err %v; the body is the render of no upload prefix", path, status, err)
							return
						}
					}
				}()
			}
			for _, p := range racing {
				mustUpload(t, ts, "live", encodeProfile(t, p))
			}
			done.Store(true)
			wg.Wait()
			accepted = append(accepted, racing...)
			checkServed(t, srv, ts, "live", accepted, ref, "after the race")
			checkNoHolds(t, srv.cache)
		})
	}
}

// TestExtendedBuildOpensOnlyNewFiles is the count gate, through the
// OpenProfile seam: after the first build, each upload + queries round
// opens exactly one profile file — the upload.
func TestExtendedBuildOpensOnlyNewFiles(t *testing.T) {
	var opens atomic.Int64
	srv, ts := newTestServer(t, func(cfg *Config) {
		cfg.OpenProfile = func(path string) (io.ReadCloser, error) {
			opens.Add(1)
			return os.Open(path)
		}
	})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		mustUpload(t, ts, "gate", encodeProfile(t, variedProfile(rng, i, false)))
	}
	mustGet(t, ts, "/collections/gate/topdown")
	if got := opens.Load(); got != 6 {
		t.Fatalf("first build opened %d files, want 6", got)
	}
	for round := 0; round < 5; round++ {
		opens.Store(0)
		mustUpload(t, ts, "gate", encodeProfile(t, variedProfile(rng, 6+round, false)))
		for _, q := range []string{"topdown", "bottomup", "stats"} {
			mustGet(t, ts, "/collections/gate/"+q)
		}
		if got := opens.Load(); got != 1 {
			t.Errorf("round %d: upload + queries opened %d profile files, want 1", round, got)
		}
	}
	if merges, ext := counter(srv, "server.merges"), counter(srv, "server.merges.extended"); merges != 6 || ext != 5 {
		t.Errorf("merges = %d, extended = %d; want 6 and 5", merges, ext)
	}
}

// TestHeldEntryUnchangedByExtension holds a cached entry the way a request
// does, lets the next generation's build continue from it, and requires
// the held entry to render the same bytes afterwards: its snapshot, its
// tree, its window clip, its phases and its statistics.
func TestHeldEntryUnchangedByExtension(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		mustUpload(t, ts, "held", encodeProfile(t, variedProfile(rng, i, true)))
	}
	mustGet(t, ts, "/collections/held/topdown")
	held, _, err := srv.view(context.Background(), "held")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.cache.release(held)
	render := func(e *viewEntry) string {
		var b bytes.Buffer
		o := defaultOptions(e.db.Event)
		e.snap.WriteTopDownJSON(&b, o)
		e.snap.WriteBottomUpJSON(&b, o)
		b.Write(encodeProfile(t, e.db.Merged))
		clipped, err := analysis.Clip(e.db, 0, 4*testWindowWidth)
		if err != nil {
			t.Fatal(err)
		}
		b.Write(encodeProfile(t, clipped))
		ph, err := analysis.Phases(e.db)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%+v %+v", ph, e.stats.Report())
		return b.String()
	}
	before := render(held)

	mustUpload(t, ts, "held", encodeProfile(t, variedProfile(rng, 3, true)))
	mustGet(t, ts, "/collections/held/topdown")
	if counter(srv, "server.merges.extended") != 1 || srv.cache.peek("held") == held {
		t.Fatal("the post-upload query did not build a new entry from the held one")
	}
	if render(held) != before {
		t.Error("the held entry renders differently after a build continued from it")
	}
}

// TestAtRestDamageAfterFold damages a file on disk after a build already
// folded it. Extended builds keep its contribution — its bytes were read
// intact once — and report no quarantine. After a restart the first build
// is a full one: it quarantines the file, serves the offline merge of the
// healthy subset, and lists the file in the collection metadata.
func TestAtRestDamageAfterFold(t *testing.T) {
	dataDir := t.TempDir()
	srv1, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	defer ts1.Close()
	good := []*cct.Profile{synthProfile(0, 0, 100), synthProfile(0, 1, 200)}
	victimProfile := synthProfile(1, 0, 300)
	mustUpload(t, ts1, "run", encodeProfile(t, good[0]))
	victim := mustUpload(t, ts1, "run", encodeProfile(t, victimProfile))
	mustGet(t, ts1, "/collections/run/topdown")

	path := filepath.Join(srv1.store.get("run").dir, victim.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	topdown := func(db *analysis.Database) []byte {
		var b bytes.Buffer
		if err := view.WriteTopDownJSON(&b, db.Merged, defaultOptions(db.Event)); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	quarantined := func(ts *httptest.Server) []analysis.QuarantinedReport {
		var meta metadataResponse
		if err := json.Unmarshal(mustGet(t, ts, "/collections/run"), &meta); err != nil {
			t.Fatal(err)
		}
		return meta.Quarantined
	}

	mustUpload(t, ts1, "run", encodeProfile(t, good[1]))
	if got, want := mustGet(t, ts1, "/collections/run/topdown"), topdown(offlineMerge(t, append(good, victimProfile))); !bytes.Equal(got, want) {
		t.Error("extended build: the file damaged after it was folded no longer contributes")
	}
	if q := quarantined(ts1); len(q) != 0 {
		t.Errorf("extended build quarantined %+v; it never re-read the damaged file", q)
	}

	srv2, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	if got, want := mustGet(t, ts2, "/collections/run/topdown"), topdown(offlineMerge(t, good)); !bytes.Equal(got, want) {
		t.Error("after a restart: served view differs from the offline merge of the healthy subset")
	}
	if q := quarantined(ts2); len(q) != 1 || filepath.Base(q[0].Path) != victim.File {
		t.Errorf("after a restart: metadata quarantine = %+v, want the damaged file %s", q, victim.File)
	}
	if got := counter(srv2, "server.merges.extended"); got != 0 {
		t.Errorf("the first build after a restart extended %d times; it has nothing cached to continue from", got)
	}
}

// TestRemovedFileForcesFullBuild: when a file the cached entry was built
// from has left the directory, the entry is no partial sum of what is
// there, so the next build reads every file instead of continuing.
func TestRemovedFileForcesFullBuild(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	ps := []*cct.Profile{synthProfile(0, 0, 100), synthProfile(0, 1, 200), synthProfile(0, 2, 300)}
	var gone UploadResult
	for i, p := range ps[:2] {
		res := mustUpload(t, ts, "rm", encodeProfile(t, p))
		if i == 0 {
			gone = res
		}
	}
	mustGet(t, ts, "/collections/rm/topdown")
	if err := os.Remove(filepath.Join(srv.store.get("rm").dir, gone.File)); err != nil {
		t.Fatal(err)
	}
	mustUpload(t, ts, "rm", encodeProfile(t, ps[2]))

	db := offlineMerge(t, ps[1:])
	var want bytes.Buffer
	if err := view.WriteTopDownJSON(&want, db.Merged, defaultOptions(db.Event)); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, ts, "/collections/rm/topdown"); !bytes.Equal(got, want.Bytes()) {
		t.Error("served view still counts the removed file")
	}
	if merges, ext := counter(srv, "server.merges"), counter(srv, "server.merges.extended"); merges != 2 || ext != 0 {
		t.Errorf("merges = %d, extended = %d; want 2 full builds", merges, ext)
	}
}

// withFrameToken returns a copy of a v3 image whose header strings have
// every "@@@@@@@@" replaced by token (eight bytes) and its checksum fixed:
// the same profile over frames nobody has interned.
func withFrameToken(t *testing.T, img []byte, token string) []byte {
	t.Helper()
	out := bytes.Clone(img)
	n, k := binary.Uvarint(out[8:])
	start := 8 + k
	payload := out[start : start+int(n)]
	copy(payload, bytes.ReplaceAll(payload, []byte("@@@@@@@@"), []byte(token)))
	binary.LittleEndian.PutUint32(out[start+int(n):], crc32.ChecksumIEEE(payload))
	return out
}

// rowImage encodes p in the row layout of format v1 or v2, which profio
// reads but no longer writes: the header fields, then per class tree one
// record per node in pre-order. v2 frames the header and each tree as a
// checksummed section and ends with the counting footer; v1 has neither.
func rowImage(p *cct.Profile, version uint32) []byte {
	var strs []string
	idx := map[string]uint64{}
	str := func(s string) uint64 {
		i, ok := idx[s]
		if !ok {
			i = uint64(len(strs))
			idx[s] = i
			strs = append(strs, s)
		}
		return i
	}
	event := str(p.Event)
	var trees [cct.NumClasses][]byte
	total := 0
	for c, tr := range p.Trees {
		var rows []byte
		pos := map[*cct.Node]uint32{}
		tr.Walk(func(n *cct.Node, _ int) bool {
			parent := ^uint32(0)
			if n.Parent() != nil {
				parent = pos[n.Parent()]
			}
			pos[n] = uint32(len(pos))
			f := n.Frame()
			rows = binary.LittleEndian.AppendUint32(rows, parent)
			rows = append(rows, byte(f.Kind))
			for _, u := range []uint64{str(f.Module), str(f.Name), str(f.File), uint64(f.Line)} {
				rows = binary.AppendUvarint(rows, u)
			}
			nz := len(rows)
			rows = append(rows, 0)
			for m, v := range n.Metrics() {
				if v != 0 {
					rows[nz]++
					rows = binary.AppendUvarint(append(rows, byte(m)), v)
				}
			}
			return true
		})
		trees[c] = append(binary.AppendUvarint(nil, uint64(len(pos))), rows...)
		total += len(pos)
	}
	hdr := binary.AppendUvarint(binary.AppendUvarint(nil, uint64(p.Rank)), uint64(p.Thread))
	hdr = binary.AppendUvarint(hdr, uint64(len(strs)))
	for _, s := range strs {
		hdr = append(binary.AppendUvarint(hdr, uint64(len(s))), s...)
	}
	hdr = binary.AppendUvarint(hdr, event)

	out := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, profio.Magic), version)
	if version == profio.Version1 {
		out = append(out, hdr...)
		for _, tr := range trees {
			out = append(out, tr...)
		}
		return out
	}
	for _, sec := range append([][]byte{hdr}, trees[:]...) {
		out = append(binary.AppendUvarint(out, uint64(len(sec))), sec...)
		out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(sec))
	}
	out = binary.LittleEndian.AppendUint32(out, profio.FooterMagic)
	count := binary.AppendUvarint(nil, uint64(total))
	return binary.LittleEndian.AppendUint32(append(out, count...), crc32.ChecksumIEEE(count))
}

// TestUploadsInternNothing: validating an upload interns none of its
// frames, whether the upload is rejected or accepted and never queried,
// and whatever its version. An upload may declare millions of frame names,
// and the interner is process-wide and append-only, so a validator that
// interned would let every rejected payload pin its names for the daemon's
// lifetime.
func TestUploadsInternNothing(t *testing.T) {
	_, ts := newTestServer(t, nil)
	probe := func(token string) *cct.Profile {
		p := cct.NewProfile(0, 0, "IBS@4096")
		var v metric.Vector
		v[metric.Samples] = 1
		p.Trees[cct.ClassHeap].AddSample([]cct.Frame{
			{Kind: cct.KindCall, Module: "exe", Name: "probe_a_" + token, File: "probe_" + token + ".c"},
			{Kind: cct.KindStmt, Module: "exe", Name: "probe_b_" + token, File: "probe_" + token + ".c", Line: 3},
		}, &v)
		return p
	}
	template := encodeProfile(t, probe("@@@@@@@@"))
	rows := rowImage(probe("@@@@@@@@"), profio.Version2)
	unframed := rowImage(probe("@@@@@@@@"), profio.Version1)

	const n = 8
	var accepted, rejected [][]byte
	for i := 0; i < n; i++ {
		accepted = append(accepted, withFrameToken(t, template, fmt.Sprintf("a%07d", i)))
		img := withFrameToken(t, template, fmt.Sprintf("r%07d", i))
		rejected = append(rejected, img[:len(img)-6]) // cut inside the footer: the header is intact
		// Fresh frames in the checksummed row format are accepted; in the
		// unchecksummed one they are refused.
		accepted = append(accepted, withFrameToken(t, rows, fmt.Sprintf("b%07d", i)))
		rejected = append(rejected, bytes.ReplaceAll(unframed, []byte("@@@@@@@@"), []byte(fmt.Sprintf("s%07d", i))))
	}
	before := cct.DefaultInterner().Len()
	for i := range accepted {
		mustUpload(t, ts, "probe", accepted[i])
		resp := post(t, ts, "probe", rejected[i])
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("damaged upload %d answered %d, want 400", i, resp.StatusCode)
		}
	}
	if after := cct.DefaultInterner().Len(); after != before {
		t.Errorf("%d accepted and %d rejected uploads interned %d frames; validation must intern none", len(accepted), len(rejected), after-before)
	}
}
