package view

// Machine-readable forms of the data-centric views. These are the single
// JSON serialization for each view: `dcview -json -view topdown` and the
// profiling service's GET /collections/{name}/topdown both render through
// WriteTopDownJSON (likewise bottomup, diff and phases), so the offline and
// served surfaces are byte-identical by construction and cannot drift.
// Field names are stable snake_case; values that are durations or counts
// stay integers so consumers never parse formatted strings.
//
// The writers stream a body straight from the Snapshot: no report tree is
// built and nothing goes through reflection. The bytes are exactly what
// encoding/json's Encoder with SetIndent("", "  ") writes for the report
// structs the tests keep (reference_test.go), which stay the oracle.

import (
	"encoding/json"
	"io"
	"math"
	"strconv"

	"dcprof/internal/cct"
	"dcprof/internal/metric"
)

// Default rendering bounds, shared by the dcview flag defaults and the
// serving layer's query-parameter defaults so the two surfaces agree when
// the caller does not say otherwise.
const (
	DefaultMaxRows  = 20
	DefaultMaxDepth = 12
	DefaultMinShare = 0.005
)

// WriteTopDownJSON writes the top-down view as indented JSON: the event,
// metric and profile-wide total, then each storage class with a non-zero
// total, in class order, with its context tree beneath, pruned by the same
// MaxDepth and MinShare rules RenderTopDown applies. Node order is the
// deterministic frame order of cct.Children, so two merges of the same
// inputs — in any arrival order — serialize identically. A node's value is
// inclusive and its share is that value over the profile-wide total; a
// class's "children" is always an array, a node's is left out when empty.
func WriteTopDownJSON(w io.Writer, p *cct.Profile, o Options) error {
	return Freeze(p).WriteTopDownJSON(w, o)
}

// WriteTopDownJSON is WriteTopDownJSON of the frozen profile.
func (s *Snapshot) WriteTopDownJSON(w io.Writer, o Options) error {
	t := topDown{column: s.column(o.Metric), o: o}
	grand := t.total()
	j := newJSONWriter(w)
	j.str("event", s.event)
	j.str("metric", o.Metric.Name())
	j.uint("total", grand)
	j.open("classes", '[')
	for c, root := range s.root {
		if t.inc(root) == 0 {
			continue
		}
		j.open("", '{')
		j.str("class", cct.Class(c).String())
		j.uint("value", t.inc(root))
		j.float("share", t.share(root))
		j.open("children", '[')
		t.writeNodes(j, t.push(root, 1), 1)
		j.close(']')
		j.close('}')
	}
	j.close(']')
	return j.end()
}

// writeNodes writes a sibling run at the given depth, each node with its
// surviving subtree, and pops the run.
func (t *topDown) writeNodes(j *jsonWriter, run []int32, depth int) {
	for _, i := range run {
		f := t.nodes[i].Frame()
		j.open("", '{')
		j.str("kind", f.Kind.String())
		if f.Name != "" {
			j.str("name", f.Name)
		}
		if f.Module != "" {
			j.str("module", f.Module)
		}
		if f.File != "" {
			j.str("file", f.File)
		}
		if f.Line != 0 {
			j.int("line", f.Line)
		}
		j.uint("value", t.inc(i))
		j.float("share", t.share(i))
		if sub := t.push(i, depth+1); len(sub) > 0 {
			j.open("children", '[')
			t.writeNodes(j, sub, depth+1)
			j.close(']')
		}
		j.close('}')
	}
	t.pop(run)
}

// WriteBottomUpJSON writes the bottom-up (allocation-site) view as indented
// JSON: the aggregation BottomUp computes, skipping zero-valued sites like
// the text renderer does and bounded by Options.MaxRows (0 = unlimited);
// "sites" is always an array.
func WriteBottomUpJSON(w io.Writer, p *cct.Profile, o Options) error {
	return Freeze(p).WriteBottomUpJSON(w, o)
}

// WriteBottomUpJSON is WriteBottomUpJSON of the frozen profile.
func (s *Snapshot) WriteBottomUpJSON(w io.Writer, o Options) error {
	j := newJSONWriter(w)
	j.str("event", s.event)
	j.str("metric", o.Metric.Name())
	j.uint("total", s.MetricTotal(o.Metric))
	j.open("sites", '[')
	rows := 0
	for _, site := range s.BottomUp(o.Metric) {
		if site.Value == 0 {
			continue
		}
		if o.MaxRows > 0 && rows >= o.MaxRows {
			break
		}
		rows++
		j.open("", '{')
		if site.Func != "" {
			j.str("func", site.Func)
		}
		if site.File != "" {
			j.str("file", site.File)
		}
		if site.Line != 0 {
			j.int("line", site.Line)
		}
		j.str("allocator", site.Allocator)
		j.int("variables", site.Variables)
		j.uint("value", site.Value)
		j.float("share", site.Share)
		j.close('}')
	}
	j.close(']')
	return j.end()
}

// WriteDiffJSON writes the per-variable comparison (before -> after) as
// indented JSON: both totals, then DiffVariables' rows bounded by maxRows
// (0 = unlimited); "rows" is always an array.
func WriteDiffJSON(w io.Writer, before, after *cct.Profile, m metric.ID, maxRows int) error {
	return Freeze(before).WriteDiffJSON(w, Freeze(after), m, maxRows)
}

// WriteDiffJSON is WriteDiffJSON of the frozen profile (before) and after.
func (s *Snapshot) WriteDiffJSON(w io.Writer, after *Snapshot, m metric.ID, maxRows int) error {
	j := newJSONWriter(w)
	j.str("metric", m.Name())
	j.uint("before_total", s.MetricTotal(m))
	j.uint("after_total", after.MetricTotal(m))
	j.open("rows", '[')
	for k, d := range s.DiffVariables(after, m) {
		if maxRows > 0 && k >= maxRows {
			break
		}
		j.open("", '{')
		j.str("variable", d.Variable)
		j.str("class", d.Class.String())
		j.uint("before_value", d.BeforeValue)
		j.uint("after_value", d.AfterValue)
		j.float("before_share", d.BeforeShare)
		j.float("after_share", d.AfterShare)
		j.float("delta_share", d.DeltaShare())
		j.close('}')
	}
	j.close(']')
	return j.end()
}

const (
	// jsonStartBuf is a writer's first buffer: most served bodies fit.
	jsonStartBuf = 1 << 10
	// jsonFlushAt is the size past which a writer hands its buffer on.
	jsonFlushAt = 8 << 10
)

// jsonWriter appends one top-level JSON object in encoding/json's indented
// form — two-space indent, ": " after a key, [] or {} for an empty
// container — and hands the bytes on in pieces of about jsonFlushAt. The
// first write error sticks; later writes are dropped.
type jsonWriter struct {
	w     io.Writer
	buf   []byte
	err   error
	depth int
	// empty says the innermost open container has no member yet.
	empty bool
}

// newJSONWriter opens the top-level object.
func newJSONWriter(w io.Writer) *jsonWriter {
	j := &jsonWriter{w: w, buf: make([]byte, 0, jsonStartBuf)}
	j.buf = append(j.buf, '{')
	j.depth, j.empty = 1, true
	return j
}

const jsonIndent = "                                "

// member starts the next member of the open container: the separator, a
// new indented line, and the key when there is one (objects only).
func (j *jsonWriter) member(key string) {
	if !j.empty {
		j.buf = append(j.buf, ',')
	}
	j.empty = false
	j.newline()
	if key != "" {
		j.buf = append(j.buf, '"')
		j.buf = append(j.buf, key...)
		j.buf = append(j.buf, '"', ':', ' ')
	}
}

func (j *jsonWriter) newline() {
	j.buf = append(j.buf, '\n')
	for n := 2 * j.depth; n > 0; n -= len(jsonIndent) {
		j.buf = append(j.buf, jsonIndent[:min(n, len(jsonIndent))]...)
	}
}

// open starts a container member: c is '{' or '['; key is "" for an array
// element.
func (j *jsonWriter) open(key string, c byte) {
	j.member(key)
	j.buf = append(j.buf, c)
	j.depth++
	j.empty = true
}

// close ends the innermost container with c, '}' or ']'.
func (j *jsonWriter) close(c byte) {
	j.depth--
	if !j.empty {
		j.newline()
	}
	j.buf = append(j.buf, c)
	j.empty = false
	if len(j.buf) >= jsonFlushAt {
		j.flush()
	}
}

func (j *jsonWriter) flush() {
	if j.err == nil {
		_, j.err = j.w.Write(j.buf)
	}
	j.buf = j.buf[:0]
}

// end closes the top-level object, ends the line as Encoder.Encode does,
// and writes what is left.
func (j *jsonWriter) end() error {
	j.close('}')
	j.buf = append(j.buf, '\n')
	j.flush()
	return j.err
}

func (j *jsonWriter) str(key, v string) {
	j.member(key)
	j.buf = appendJSONString(j.buf, v)
}

func (j *jsonWriter) uint(key string, v uint64) {
	j.member(key)
	j.buf = strconv.AppendUint(j.buf, v, 10)
}

func (j *jsonWriter) int(key string, v int) {
	j.member(key)
	j.buf = strconv.AppendInt(j.buf, int64(v), 10)
}

func (j *jsonWriter) float(key string, v float64) {
	j.member(key)
	var err error
	if j.buf, err = appendJSONFloat(j.buf, v); err != nil && j.err == nil {
		j.err = err
	}
}

// appendJSONString appends s quoted as encoding/json quotes it, HTML
// escaping included (the Encoder default). Printable ASCII with nothing to
// escape is copied; anything else is quoted by encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest form that reads back exactly, in exponent form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent not zero-padded.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 -> e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
