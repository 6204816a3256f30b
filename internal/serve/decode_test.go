package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

// referenceDecode is the decoder /allocate has always run, over the
// whole body: json.Decoder with unknown fields refused, and nothing but
// whitespace after the request.
func referenceDecode(data []byte) (AllocateRequest, error) {
	var req AllocateRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, errTrailingData
	}
	return req, nil
}

// requestFloats lists the bits of every float in req, in field order.
// reflect.DeepEqual treats -0 and 0 as equal; these bits do not.
func requestFloats(req AllocateRequest) []uint64 {
	var bits []uint64
	add := func(fs ...float64) {
		for _, f := range fs {
			bits = append(bits, math.Float64bits(f))
		}
	}
	add(req.Graph.SourceRate)
	for _, n := range req.Graph.Nodes {
		add(n.IPT, n.Payload, n.Selectivity, n.State)
	}
	for _, e := range req.Graph.Edges {
		add(e.Payload)
	}
	if c := req.Cluster; c != nil {
		add(c.MIPS, c.BandwidthMbps)
		add(c.DeviceMIPS...)
	}
	return bits
}

// sameRequest fails unless got and want are deeply equal (nil and empty
// slices told apart) with bit-identical floats.
func sameRequest(t *testing.T, label string, got, want AllocateRequest) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded %+v, encoding/json %+v", label, got, want)
	}
	if g, w := requestFloats(got), requestFloats(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: float bits %x, encoding/json %x", label, g, w)
	}
}

// decodeBody runs the handler's decode step on a POST of data.
func decodeBody(data []byte) (AllocateRequest, bool, error) {
	var req AllocateRequest
	r := httptest.NewRequest(http.MethodPost, "/allocate", bytes.NewReader(data))
	fast, err := decodeRequest(httptest.NewRecorder(), r, &req)
	return req, fast, err
}

// mediumClusterBody is a JSONWriter-written Medium graph with a named
// operator, sent with a cluster object.
func mediumClusterBody(t testing.TB) []byte {
	g := gen.Medium().Generate().Test[1]
	g.Nodes[0].Name = "source"
	arr := writeGraphs(t, g)
	elem := bytes.TrimSuffix(bytes.TrimPrefix(arr, []byte("[")), []byte("]\n"))
	body := append([]byte(`{"graph":`), elem...)
	return append(body, `,"cluster":{"devices":4,"mips":1250,"bandwidth_mbps":1000,"links":"pair","device_mips":[5000,1250,1250,1250]}}`...)
}

// nonCanonicalBodies are bodies encoding/json reads differently from the
// canonical form, or not at all. The fast path declines each of them.
var nonCanonicalBodies = map[string]string{
	"case-folded key":    `{"graph":{"source_rate":1,"nodes":[{"IPT":1,"payload":2}],"edges":[]}}`,
	"unicode-folded key": `{"graph":{"nodes":[{"ipt":1,"ſtate":3}]}}`,
	// encoding/json merges the second array into the first: ipt 3,
	// payload 2.
	"duplicate key":   `{"graph":{"nodes":[{"ipt":1,"payload":2}],"nodes":[{"ipt":3}]}}`,
	"null":            `{"graph":{"source_rate":null,"nodes":null},"cluster":null}`,
	"escaped name":    `{"graph":{"nodes":[{"ipt":1,"name":"a\"bé"}]}}`,
	"non-ASCII name":  `{"graph":{"nodes":[{"ipt":1,"name":"é"}]}}`,
	"trailing bytes":  `{"graph":{"source_rate":1}} trailing {`,
	"out of range":    `{"graph":{"source_rate":1e400}}`,
	"leading zero":    `{"graph":{"source_rate":01}}`,
	"form feed":       "{\f\"graph\":{}}",
	"fractional int":  `{"graph":{"edges":[{"src":1.5,"dst":0}]}}`,
	"unknown field":   `{"graph":{},"extra":1}`,
	"string for rate": `{"graph":{"source_rate":"1"}}`,
	"empty body":      ``,
}

// TestDecodeCanonicalMatchesEncodingJSON pins the fast path's contract on
// named bodies: canonical bodies decode on the fast path to exactly what
// encoding/json returns, and every other body leaves it for the fallback,
// which answers with encoding/json's own result and error.
func TestDecodeCanonicalMatchesEncodingJSON(t *testing.T) {
	canonical := map[string][]byte{
		"json.Marshal Small":         testSpecBody(t, gen.Small().Generate().Test[0]),
		"JSONWriter Medium, cluster": mediumClusterBody(t),
		"negative zero":              []byte(`{"graph":{"source_rate":-0,"edges":[{"src":-0,"dst":0,"payload":-0.0}]}}`),
		"whitespace and exponents":   []byte(" \t\n{ \"graph\" : { \"source_rate\" : 1.5E+3 , \"nodes\" : [ ] } ,\r\n\"cluster\":{\"device_mips\":[]} }\n"),
		"empty object":               []byte(`{}`),
	}
	for name, body := range canonical {
		want, wantErr := referenceDecode(body)
		if wantErr != nil {
			t.Fatalf("%s: encoding/json rejects it: %v", name, wantErr)
		}
		got, fast, err := decodeBody(body)
		if !fast || err != nil {
			t.Fatalf("%s: fast %v, err %v", name, fast, err)
		}
		sameRequest(t, name, got, want)
	}
	for name, body := range nonCanonicalBodies {
		var req AllocateRequest
		if decodeCanonical([]byte(body), &req) {
			t.Errorf("%s: fast path accepted %q", name, body)
			continue
		}
		want, wantErr := referenceDecode([]byte(body))
		got, fast, err := decodeBody([]byte(body))
		if fast || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: fast %v, err %v, encoding/json err %v", name, fast, err, wantErr)
			continue
		}
		sameRequest(t, name, got, want)
	}
	// The merge the fallback keeps.
	got, _, _ := decodeBody([]byte(nonCanonicalBodies["duplicate key"]))
	if n := got.Graph.Nodes; len(n) != 1 || n[0].IPT != 3 || n[0].Payload != 2 {
		t.Fatalf("duplicate nodes key decoded to %+v, want ipt 3, payload 2", n)
	}
}

// fillAll sets every field reachable from v to a non-zero value: one
// element in each slice, a value behind each pointer.
func fillAll(t *testing.T, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillAll(t, v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillAll(t, v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillAll(t, v.Index(0))
	case reflect.String:
		v.SetString("x")
	case reflect.Int:
		v.SetInt(1)
	case reflect.Float64:
		v.SetFloat(1.5)
	default:
		t.Fatalf("fillAll: no value for a %s; teach it and decodeCanonical the new field", v.Type())
	}
}

// TestDecodeCanonicalKnowsEveryField ties the fast path's keys to the
// wire structs' tags: json.Marshal of a request with every field set,
// omitempty ones included, decodes on the fast path. A field added to
// the structs but not to decodeCanonical would send every body that
// carries it to the fallback, and fails here.
func TestDecodeCanonicalKnowsEveryField(t *testing.T) {
	var full AllocateRequest
	fillAll(t, reflect.ValueOf(&full).Elem())
	body, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	got, fast, err := decodeBody(body)
	if !fast || err != nil {
		t.Fatalf("fast %v, err %v for %s", fast, err, body)
	}
	sameRequest(t, "every field", got, full)
}

// TestDecodeFallbackReplaysBody pins what the fallback reads: the bytes
// the fast path consumed, then the rest of the body or the error the
// body failed with, so a body whose declared length is short, long or
// absent decodes as it does without the fast path.
func TestDecodeFallbackReplaysBody(t *testing.T) {
	body := testSpecBody(t, gen.Small().Generate().Test[0])
	want, _ := referenceDecode(body)
	for _, tc := range []struct {
		name   string
		length int64
		fast   bool
	}{
		{"unknown length", -1, false},
		{"declared short", int64(len(body) - 5), false},
		{"declared long", int64(len(body) + 5), false},
		{"exact", int64(len(body)), true},
	} {
		var req AllocateRequest
		r := httptest.NewRequest(http.MethodPost, "/allocate", bytes.NewReader(body))
		r.ContentLength = tc.length
		fast, err := decodeRequest(httptest.NewRecorder(), r, &req)
		if fast != tc.fast || err != nil {
			t.Fatalf("%s: fast %v, err %v", tc.name, fast, err)
		}
		sameRequest(t, tc.name, req, want)
	}

	// A body that fails part-way hands the decoder its own error.
	boom := fmt.Errorf("connection reset")
	var req AllocateRequest
	r := httptest.NewRequest(http.MethodPost, "/allocate", io.MultiReader(bytes.NewReader(body[:40]), errReader{boom}))
	r.ContentLength = int64(len(body))
	if fast, err := decodeRequest(httptest.NewRecorder(), r, &req); fast || err != boom {
		t.Fatalf("failing body: fast %v, err %v", fast, err)
	}
	if !reflect.DeepEqual(req, AllocateRequest{}) {
		t.Fatalf("failing body left %+v", req)
	}
}

// TestBodyPoolDropsOutliers pins that the pool keeps no buffer sized for
// an outlier body: a buffer over maxPooledBody goes back to the garbage
// collector, so a 4 MiB request does not pin 4 MiB.
func TestBodyPoolDropsOutliers(t *testing.T) {
	big, err := readBody(bytes.NewReader(make([]byte, maxRequestBytes)), maxRequestBytes)
	if err != nil || len(*big) != maxRequestBytes {
		t.Fatalf("read %d bytes, err %v; want %d", len(*big), err, maxRequestBytes)
	}
	putBody(big)
	for i := 0; i < 4; i++ {
		if bp, _ := bodyPool.Get().(*[]byte); bp != nil && cap(*bp) > maxPooledBody {
			t.Fatalf("pool kept a %d-byte buffer", cap(*bp))
		}
	}
}

// stallingBody yields data, then blocks in its next Read until release
// is closed, and then fails with err.
type stallingBody struct {
	data             []byte
	stalled, release chan struct{}
	err              error
}

func (b *stallingBody) Read(p []byte) (int, error) {
	if len(b.data) > 0 {
		n := copy(p, b.data)
		b.data = b.data[n:]
		return n, nil
	}
	close(b.stalled)
	<-b.release
	return 0, b.err
}

// allocated returns the bytes the heap handed out while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadBodyFollowsBytesReceived pins that a body's buffer grows with
// the bytes that arrive, not with the length the client declares: a
// request that declares maxRequestBytes and stalls after a few bytes
// holds about minBodyBuf while it waits, not 4 MiB.
func TestReadBodyFollowsBytesReceived(t *testing.T) {
	for bodyPool.Get() != nil { // an empty pool makes the read allocate
	}
	body := &stallingBody{
		data:    []byte(`{"graph":{"nodes":[`),
		stalled: make(chan struct{}),
		release: make(chan struct{}),
		err:     fmt.Errorf("connection reset"),
	}
	r := httptest.NewRequest(http.MethodPost, "/allocate", body)
	r.ContentLength = maxRequestBytes
	done := make(chan error, 1)
	held := allocated(func() {
		go func() {
			var req AllocateRequest
			_, err := decodeRequest(httptest.NewRecorder(), r, &req)
			done <- err
		}()
		<-body.stalled
	})
	close(body.release)
	if err := <-done; err != body.err {
		t.Fatalf("stalled body: err %v, want %v", err, body.err)
	}
	if held > 4*minBodyBuf {
		t.Fatalf("a stalled %d-byte declaration allocated %d bytes before its body arrived", maxRequestBytes, held)
	}
}

// TestDecodeDeclinesWithoutAmplification pins that the fast path sizes
// its slices from what the body can hold: bodies that open thousands of
// objects and decline within the first two elements allocate at most
// three times their own length.
func TestDecodeDeclinesWithoutAmplification(t *testing.T) {
	for name, body := range map[string][]byte{
		"edges of '{'": []byte(`{"graph":{"edges":[` + strings.Repeat("{", 65537)),
		"nodes of '{'": []byte(`{"graph":{"nodes":[` + strings.Repeat("{", 8193)),
		"edges of {}":  []byte(`{"graph":{"edges":[` + strings.Repeat("{}", 32768)),
		"nodes of {}":  []byte(`{"graph":{"nodes":[` + strings.Repeat("{}", 4096)),
	} {
		var req AllocateRequest
		var ok bool
		if n := allocated(func() { ok = decodeCanonical(body, &req) }); ok || n > 3*uint64(len(body)) {
			t.Errorf("%s: accepted %v, allocated %d bytes for a %d-byte body", name, ok, n, len(body))
		}
	}
}

// TestDecodeFallbackCountedAndTraced pins the decode telemetry:
// serve_decode_fallback_total counts exactly the bodies that leave the
// fast path, and each decoded request emits a decode span tagged with
// its trace id. A body that leaves the fast path gets the same answer as
// its canonical twin.
func TestDecodeFallbackCountedAndTraced(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	reg := obs.NewRegistry()
	tr := obs.NewTracer()
	svc := newTestService(t, Options{Model: core.New(core.DefaultConfig()), Registry: reg, Tracer: tr, CacheSize: -1})
	srv := httptest.NewServer(NewHandler(svc, s.Cluster, "", reg, HandlerOpts{}))
	defer srv.Close()
	fallbacks := reg.Counter("serve_decode_fallback_total")

	post := func(id string, body io.Reader) AllocateResponse {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/allocate", body)
		req.Header.Set("X-Trace-Id", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out AllocateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", id, resp.StatusCode, err)
		}
		return out
	}
	body := testSpecBody(t, g)
	canonical := post("canonical", bytes.NewReader(body))
	if n := fallbacks.Value(); n != 0 {
		t.Fatalf("canonical body counted %d fallbacks", n)
	}
	folded := post("folded", strings.NewReader(strings.Replace(string(body), `"ipt"`, `"IPT"`, 1)))
	// An io.Reader of unknown length goes out chunked, with no
	// Content-Length: the fallback reads it.
	chunked := post("chunked", io.MultiReader(bytes.NewReader(body)))
	if n := fallbacks.Value(); n != 2 {
		t.Fatalf("serve_decode_fallback_total = %d, want 2", n)
	}
	for _, other := range []AllocateResponse{folded, chunked} {
		samePlacement(t, "fallback", canonical.Assign, other.Assign)
		if math.Float64bits(other.RelativeThroughput) != math.Float64bits(canonical.RelativeThroughput) {
			t.Fatalf("fallback relative %v, canonical %v", other.RelativeThroughput, canonical.RelativeThroughput)
		}
	}
	spans := map[string]bool{}
	for _, ev := range tr.Events() {
		if ev.Name == "decode" {
			spans[ev.Args["trace_id"]] = true
		}
	}
	for _, id := range []string{"canonical", "folded", "chunked"} {
		if !spans[id] {
			t.Fatalf("no decode span for %s: %+v", id, tr.Events())
		}
	}
}

// FuzzDecodeAllocateRequest checks the fast path against encoding/json on
// arbitrary bytes: it either declines a body or returns exactly what
// json.Decoder with DisallowUnknownFields returns (deep equality, so nil
// and empty slices differ, and bit-equal floats, so -0 and 0 differ). It
// never accepts a body encoding/json rejects. The handler's whole decode
// step, fast path or fallback, answers with encoding/json's request and
// error.
func FuzzDecodeAllocateRequest(f *testing.F) {
	for _, body := range allocateSeeds(f) {
		f.Add(body)
	}
	f.Add(mediumClusterBody(f))
	for _, body := range nonCanonicalBodies {
		f.Add([]byte(body))
	}
	f.Add([]byte(`{"graph":{"source_rate":-0,"edges":[{"src":-0,"dst":0,"payload":-0.0}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceDecode(data)
		var fast AllocateRequest
		if decodeCanonical(data, &fast) {
			if wantErr != nil {
				t.Fatalf("fast path accepted a body encoding/json rejects: %v", wantErr)
			}
			sameRequest(t, "fast path", fast, want)
		}
		got, _, err := decodeBody(data)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("decode error %v, encoding/json %v", err, wantErr)
		}
		sameRequest(t, "handler decode", got, want)
	})
}

// BenchmarkDecodeAllocateRequest times the handler's decode step on a
// Medium and an XLarge body (json.Marshal form, as perfbench sends):
// "fast" is the canonical fast path with its pooled read; "declined" is
// the same body with its source_rate key repeated at the end, so the
// fast path reads and parses all of it before the fallback decodes it
// again; "fallback" is that declined body sent with no length, which
// takes only the encoding/json decoder every body went through before
// the fast path.
func BenchmarkDecodeAllocateRequest(b *testing.B) {
	for _, s := range []gen.Setting{gen.Medium(), gen.XLarge()} {
		g := gen.GenerateSet(s.Config, 1, 1)[0]
		body := testSpecBody(b, g)
		rate, _ := json.Marshal(g.SourceRate)
		declined := fmt.Appendf(nil, `%s,"source_rate":%s}}`, body[:len(body)-2], rate)
		for _, tc := range []struct {
			path   string
			body   []byte
			length int64
		}{
			{"fast", body, int64(len(body))},
			{"declined", declined, int64(len(declined))},
			{"fallback", declined, -1},
		} {
			b.Run(s.Name+"/"+tc.path, func(b *testing.B) {
				rd := bytes.NewReader(tc.body)
				r := &http.Request{Body: io.NopCloser(rd), ContentLength: tc.length}
				w := httptest.NewRecorder()
				b.SetBytes(int64(len(tc.body)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rd.Reset(tc.body)
					var req AllocateRequest
					fast, err := decodeRequest(w, r, &req)
					if err != nil || fast != (tc.path == "fast") {
						b.Fatalf("fast %v, err %v", fast, err)
					}
				}
			})
		}
	}
}
