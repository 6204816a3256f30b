// decode.go reads POST /allocate bodies. decodeCanonical reads the
// canonical form that json.Marshal and stream.JSONWriter emit, which is
// what this repo's own clients send, in one pass over a pooled buffer;
// serve_decode_fallback_total counts the bodies that are not in it.
// Anything else goes to encoding/json, which stays the reference: the
// fast path either declines a body or returns exactly what
// json.Decoder with DisallowUnknownFields returns for it
// (FuzzDecodeAllocateRequest checks both halves of that rule).
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// bodyPool recycles the buffers request bodies are read into.
var bodyPool sync.Pool // of *[]byte

const (
	// minBodyBuf is the first buffer a body read allocates when the
	// pool has none, the size of a connection's own read buffer.
	minBodyBuf = 4 << 10
	// maxPooledBody bounds the buffers bodyPool keeps. Compact medium
	// and large bodies (18–201 KB) fit; a buffer grown for an outlier
	// body, up to maxRequestBytes, is dropped after its request instead
	// of pinned.
	maxPooledBody = 256 << 10
)

// readBody reads the n bytes a body declares into a buffer from
// bodyPool. The buffer doubles only when full, so its size follows the
// bytes that arrived, never the declared length: a client that declares
// maxRequestBytes and stalls holds a pooled buffer or a fresh one of at
// most minBodyBuf bytes. Below maxPooledBody capacities stay powers of
// two, so bodies of similar sizes share buffers; a body that outgrows
// maxPooledBody continues in a fresh buffer of at most n bytes and
// hands the largest poolable one back. Like io.ReadFull, it stops at n
// bytes or at the first error, but it returns the body's own error, so
// a replay hands the decoder the error it would have seen reading the
// body directly.
func readBody(r io.Reader, n int) (*[]byte, error) {
	bp, _ := bodyPool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	buf := (*bp)[:0]
	var err error
	for len(buf) < n && err == nil {
		if len(buf) == cap(buf) {
			c := max(2*cap(buf), minBodyBuf)
			if c > maxPooledBody {
				c = min(c, n)
			}
			grown := append(make([]byte, 0, c), buf...)
			if c > maxPooledBody && cap(buf) <= maxPooledBody {
				*bp = buf
				bodyPool.Put(bp)
				bp = new([]byte)
			}
			buf = grown
		}
		var k int
		k, err = r.Read(buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+k]
	}
	*bp = buf
	return bp, err
}

func putBody(bp *[]byte) {
	if cap(*bp) <= maxPooledBody {
		bodyPool.Put(bp)
	}
}

// decodeRequest decodes the /allocate body into req, which must be zero,
// and reports whether the fast path decoded it. The error is the one
// json.Decoder returns for the body, or errTrailingData.
//
// A body whose Content-Length is declared and within maxRequestBytes is
// read by readBody and handed to decodeCanonical. Every other body
// (unknown length, over the cap, or declined by the fast path) goes to
// json.Decoder with DisallowUnknownFields over an http.MaxBytesReader,
// reading the bytes already consumed and then the rest of the body, into
// a zeroed req, and must end there. So a body over the cap gets its
// answer from encoding/json's path.
func decodeRequest(w http.ResponseWriter, r *http.Request, req *AllocateRequest) (fast bool, err error) {
	var src io.ReadCloser = r.Body
	if n := r.ContentLength; n > 0 && n <= maxRequestBytes {
		bp, rerr := readBody(r.Body, int(n))
		defer putBody(bp)
		buf := *bp
		if len(buf) == int(n) && decodeCanonical(buf, req) {
			return true, nil
		}
		*req = AllocateRequest{}
		// Replay what was read, then whatever the body still holds, or
		// the error the body failed with.
		var rest io.Reader = r.Body
		if rerr != nil {
			rest = errReader{rerr}
		}
		src = io.NopCloser(io.MultiReader(bytes.NewReader(buf), rest))
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, src, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return false, err
	}
	// Nothing but whitespace may follow the request. A failed read (a body
	// over the cap, a stalled client) keeps its own error.
	_, err = dec.Token()
	var syntax *json.SyntaxError
	switch {
	case err == io.EOF:
		return false, nil
	case err == nil, err == io.ErrUnexpectedEOF, errors.As(err, &syntax):
		return false, errTrailingData
	}
	return false, err
}

// errTrailingData answers a body that holds more than whitespace after
// the request.
var errTrailingData = errors.New("unexpected data after the request object")

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// decodeCanonical decodes b into req if b is in the canonical request
// form, and reports whether it did. On false, req may hold part of the
// body and must be zeroed before another decode.
//
// The canonical form is the subset of JSON that json.Marshal and
// stream.JSONWriter emit for an AllocateRequest:
//   - objects whose keys are the exact lowercase field names of
//     AllocateRequest, GraphSpec, NodeSpec, EdgeSpec and ClusterSpec,
//     each at most once per object;
//   - numbers in JSON grammar, parsed with the strconv.ParseFloat and
//     strconv.ParseInt calls encoding/json makes;
//   - strings with no escapes, no control bytes and no bytes outside
//     ASCII;
//   - JSON whitespace around tokens, and nothing else after the
//     top-level object.
//
// Everything else declines: null, case-folded or unknown keys, repeated
// keys (which encoding/json merges into the earlier value), escapes,
// non-ASCII and trailing bytes. On those encoding/json decides.
func decodeCanonical(b []byte, req *AllocateRequest) bool {
	d := wireDecoder{b: b}
	if !d.request(req) {
		return false
	}
	d.ws()
	return d.i == len(d.b)
}

// wireDecoder is decodeCanonical's cursor over the body.
type wireDecoder struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (d *wireDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat skips whitespace and consumes c if it comes next.
func (d *wireDecoder) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str reads a string with no escapes, no control bytes and no bytes
// outside ASCII, and returns its bytes.
func (d *wireDecoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// object reads one object. field decodes the value of each key and
// returns the key's bit in the object's key set, or 0 for an unknown
// key or a value it declines; a repeated bit declines too.
func (d *wireDecoder) object(field func(key []byte) uint) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen uint
	for {
		key, ok := d.str()
		if !ok || !d.eat(':') {
			return false
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// array reads one array, calling elem once per element.
func (d *wireDecoder) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if d.eat(']') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// Shortest elements json.Marshal writes for a node and an edge:
// {"ipt":0,"payload":0} and {"src":0,"dst":0}.
const (
	minNodeBytes = 21
	minEdgeBytes = 17
)

// elemsHint estimates the element count of the array of objects that
// starts at the cursor, to size its slice once: the '{' bytes before the
// first ']', but no more elements of minBytes each than those bytes can
// hold, and no more than limit. So a body that opens thousands of
// objects and then declines costs at most a few times its own length;
// the hint never changes what is decoded.
func (d *wireDecoder) elemsHint(minBytes, limit int) int {
	rest := d.b[d.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return min(bytes.Count(rest, []byte{'{'}), len(rest)/minBytes, limit)
}

// number reads one number in JSON grammar and returns its bytes.
func (d *wireDecoder) number() ([]byte, bool) {
	d.ws()
	b, start := d.b, d.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch j := digitsEnd(b, i); {
	case j == i:
		return nil, false
	case b[i] == '0': // a leading zero stands alone
		i++
	default:
		i = j
	}
	if i < len(b) && b[i] == '.' {
		j := digitsEnd(b, i+1)
		if j == i+1 {
			return nil, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digitsEnd(b, i)
		if j == i {
			return nil, false
		}
		i = j
	}
	d.i = i
	return b[start:i], true
}

// digitsEnd returns the index of the first non-digit at or after i.
func digitsEnd(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// parseFloat reads a number as encoding/json decodes a float64.
func (d *wireDecoder) parseFloat() (float64, bool) {
	s, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(s), 64)
	return f, err == nil
}

// floatField reads a number into *dst and returns bit, or 0 when it
// declines.
func (d *wireDecoder) floatField(dst *float64, bit uint) uint {
	f, ok := d.parseFloat()
	if !ok {
		return 0
	}
	*dst = f
	return bit
}

// intField reads a number into *dst, as encoding/json decodes an int,
// and returns bit, or 0 when it declines.
func (d *wireDecoder) intField(dst *int, bit uint) uint {
	s, ok := d.number()
	if !ok {
		return 0
	}
	v, err := strconv.ParseInt(string(s), 10, 64)
	if err != nil || int64(int(v)) != v {
		return 0
	}
	*dst = int(v)
	return bit
}

// stringField reads a string into *dst and returns bit, or 0 when it
// declines.
func (d *wireDecoder) stringField(dst *string, bit uint) uint {
	s, ok := d.str()
	if !ok {
		return 0
	}
	*dst = string(s)
	return bit
}

func (d *wireDecoder) request(req *AllocateRequest) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "graph":
			return okBit(1, d.graph(&req.Graph))
		case "cluster":
			req.Cluster = new(ClusterSpec)
			return okBit(2, d.cluster(req.Cluster))
		}
		return 0
	})
}

func (d *wireDecoder) graph(gs *GraphSpec) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "source_rate":
			return d.floatField(&gs.SourceRate, 1)
		case "nodes":
			// Like encoding/json, "[]" decodes to an empty, non-nil slice.
			gs.Nodes = make([]NodeSpec, 0, d.elemsHint(minNodeBytes, maxRequestNodes+1))
			return okBit(2, d.array(func() bool {
				gs.Nodes = append(gs.Nodes, NodeSpec{})
				return d.node(&gs.Nodes[len(gs.Nodes)-1])
			}))
		case "edges":
			gs.Edges = make([]EdgeSpec, 0, d.elemsHint(minEdgeBytes, maxRequestEdges+1))
			return okBit(4, d.array(func() bool {
				gs.Edges = append(gs.Edges, EdgeSpec{})
				return d.edge(&gs.Edges[len(gs.Edges)-1])
			}))
		}
		return 0
	})
}

func (d *wireDecoder) node(n *NodeSpec) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "ipt":
			return d.floatField(&n.IPT, 1)
		case "payload":
			return d.floatField(&n.Payload, 2)
		case "selectivity":
			return d.floatField(&n.Selectivity, 4)
		case "state":
			return d.floatField(&n.State, 8)
		case "name":
			return d.stringField(&n.Name, 16)
		}
		return 0
	})
}

func (d *wireDecoder) edge(e *EdgeSpec) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "src":
			return d.intField(&e.Src, 1)
		case "dst":
			return d.intField(&e.Dst, 2)
		case "payload":
			return d.floatField(&e.Payload, 4)
		}
		return 0
	})
}

func (d *wireDecoder) cluster(cs *ClusterSpec) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "devices":
			return d.intField(&cs.Devices, 1)
		case "mips":
			return d.floatField(&cs.MIPS, 2)
		case "bandwidth_mbps":
			return d.floatField(&cs.BandwidthMbps, 4)
		case "links":
			return d.stringField(&cs.Links, 8)
		case "device_mips":
			cs.DeviceMIPS = []float64{}
			return okBit(16, d.array(func() bool {
				m, ok := d.parseFloat()
				cs.DeviceMIPS = append(cs.DeviceMIPS, m)
				return ok
			}))
		}
		return 0
	})
}

// okBit returns bit when ok, else 0.
func okBit(bit uint, ok bool) uint {
	if ok {
		return bit
	}
	return 0
}
