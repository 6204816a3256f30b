package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/stream"
)

func testSpecBody(t *testing.T, g *stream.Graph) []byte {
	t.Helper()
	gs := GraphSpec{SourceRate: g.SourceRate}
	for _, n := range g.Nodes {
		gs.Nodes = append(gs.Nodes, NodeSpec{IPT: n.IPT, Payload: n.Payload, Selectivity: n.Selectivity, State: n.State})
	}
	for _, e := range g.Edges {
		gs.Edges = append(gs.Edges, EdgeSpec{Src: e.Src, Dst: e.Dst, Payload: e.Payload})
	}
	body, err := json.Marshal(AllocateRequest{Graph: gs})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestHTTPTraceAndAccessLog pins the wire-level observability contract:
// every response (every endpoint, every status) carries an X-Trace-Id,
// a plausible client id is adopted and echoed, and each /allocate
// request appends exactly one well-formed access-log record keyed by
// that id.
func TestHTTPTraceAndAccessLog(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	reg := obs.NewRegistry()
	svc := newTestService(t, Options{Model: core.New(core.DefaultConfig()), Registry: reg})

	var logBuf bytes.Buffer
	access := obs.NewJSONLWriter(json.NewEncoder(&logBuf))
	srv := httptest.NewServer(NewHandler(svc, s.Cluster, "", reg, HandlerOpts{AccessLog: access}))
	defer srv.Close()

	// Every endpoint stamps a trace id.
	for _, path := range []string{"/healthz", "/statusz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Fatalf("%s response has no X-Trace-Id", path)
		}
	}

	// A plausible inbound id is adopted verbatim; a garbage one is
	// replaced with a minted id.
	body := testSpecBody(t, g)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/allocate", bytes.NewReader(body))
	req.Header.Set("X-Trace-Id", "client-id-123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); got != "client-id-123" {
		t.Fatalf("adopted trace id = %q, want client-id-123", got)
	}
	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/allocate", bytes.NewReader(body))
	garbage := "id with spaces" + strings.Repeat("x", 64)
	req.Header.Set("X-Trace-Id", garbage)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Trace-Id")
	if minted == "" || minted == garbage {
		t.Fatalf("garbage inbound id not replaced: %q", minted)
	}

	// A malformed spec still logs (status 400).
	resp, err = http.Post(srv.URL+"/allocate", "application/json", strings.NewReader(`{"nope":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d", resp.StatusCode)
	}

	// One record per request, JSONL, joined by trace id.
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d records, want 3:\n%s", len(lines), logBuf.String())
	}
	var recs []AccessRecord
	for i, line := range lines {
		var r AccessRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("access log line %d is not JSON: %v\n%s", i, err, line)
		}
		recs = append(recs, r)
	}
	first := recs[0]
	if first.TraceID != "client-id-123" || first.Status != http.StatusOK ||
		first.Nodes != g.NumNodes() || first.Edges != len(g.Edges) || first.LatencyMS <= 0 ||
		first.ModelVersion != 1 || first.Fingerprint == "" {
		t.Fatalf("first access record malformed: %+v", first)
	}
	if !recs[1].Cached {
		t.Fatalf("second (identical) request not logged as cached: %+v", recs[1])
	}
	if recs[2].Status != http.StatusBadRequest || recs[2].Err == "" {
		t.Fatalf("bad-spec record malformed: %+v", recs[2])
	}

	// /statusz is human-readable and carries the live state.
	resp, err = http.Get(srv.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	sb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	status := string(sb)
	for _, want := range []string{"uptime:", "model_version:  1", "latency_ms", "queue_wait_ms", "shed_mode:", "cache:"} {
		if !strings.Contains(status, want) {
			t.Fatalf("/statusz missing %q:\n%s", want, status)
		}
	}
}

// TestHTTPShedResponse pins the 429 contract at the wire: a shed
// request answers 429 with Retry-After, and the access log marks it.
func TestHTTPShedResponse(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	reg := obs.NewRegistry()
	svc := newTestService(t, Options{
		Model:     core.New(core.DefaultConfig()),
		Registry:  reg,
		CacheSize: -1,
		SLOP99MS:  1, // trivially breachable
		sloEvery:  time.Hour,
	})
	// Force the latch directly: the controller unit tests cover the
	// breach path; here only the wire mapping matters.
	svc.sloShed.Store(true)

	var logBuf bytes.Buffer
	access := obs.NewJSONLWriter(json.NewEncoder(&logBuf))
	srv := httptest.NewServer(NewHandler(svc, s.Cluster, "", reg, HandlerOpts{AccessLog: access}))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/allocate", "application/json", bytes.NewReader(testSpecBody(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp.Header.Get("X-Trace-Id") == "" {
		t.Fatal("429 without X-Trace-Id")
	}
	var rec AccessRecord
	if err := json.Unmarshal(bytes.TrimSpace(logBuf.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Shed || rec.Status != http.StatusTooManyRequests {
		t.Fatalf("shed access record malformed: %+v", rec)
	}
}

// TestHTTPRejectsInvalidCluster pins cluster validation at the wire: a
// cluster spec that resolves to non-positive capacities, a negative
// scheduling overhead, a mismatched device_mips list or more devices than
// the per-request cap answers 400 instead of a placement scored against a
// meaningless (or memory-exhausting) cluster.
func TestHTTPRejectsInvalidCluster(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	reg := obs.NewRegistry()
	svc := newTestService(t, Options{Registry: reg})
	srv := httptest.NewServer(NewHandler(svc, s.Cluster, "", reg, HandlerOpts{}))
	defer srv.Close()

	var spec struct {
		Graph json.RawMessage `json:"graph"`
	}
	if err := json.Unmarshal(testSpecBody(t, g), &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, cluster string
		status        int
	}{
		{"default cluster", `null`, http.StatusOK},
		{"valid heterogeneous", `{"devices":3,"device_mips":[1000,1250,1500]}`, http.StatusOK},
		{"negative mips", `{"mips":-1250}`, http.StatusBadRequest},
		{"all-zero device mips", `{"devices":3,"device_mips":[0,0,0]}`, http.StatusBadRequest},
		{"one negative device mips", `{"devices":2,"device_mips":[1250,-1]}`, http.StatusBadRequest},
		{"device mips count", `{"devices":3,"device_mips":[1250,1250]}`, http.StatusBadRequest},
		{"negative bandwidth", `{"bandwidth_mbps":-1000}`, http.StatusBadRequest},
		{"removed overhead field", `{"overhead_per_op":0.01}`, http.StatusBadRequest},
		{"negative devices", `{"devices":-2}`, http.StatusBadRequest},
		{"devices at the cap", `{"devices":1024}`, http.StatusOK},
		{"devices above the cap", `{"devices":1025}`, http.StatusBadRequest},
		{"huge devices", `{"devices":2000000000}`, http.StatusBadRequest},
	} {
		body := `{"graph":` + string(spec.Graph) + `,"cluster":` + tc.cluster + `}`
		resp, err := http.Post(srv.URL+"/allocate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, bytes.TrimSpace(msg))
		}
	}
}

// TestHTTPRejectsHostileGraph pins graph and body limits at the wire:
// malformed JSON, an edge endpoint out of range and a cycle answer 400,
// finite features whose steady-state demands overflow answer 400 instead
// of a placement scored against infinite loads, a graph one operator or
// one edge over maxRequestNodes or maxRequestEdges answers 400, and a
// body over maxRequestBytes answers 413. Each refusal writes one access
// record with its status and leaves serve_errors_total alone.
func TestHTTPRejectsHostileGraph(t *testing.T) {
	s := gen.Medium()
	g := s.Generate().Test[0]
	reg := obs.NewRegistry()
	svc := newTestService(t, Options{Registry: reg})
	var logBuf bytes.Buffer
	access := obs.NewJSONLWriter(json.NewEncoder(&logBuf))
	srv := httptest.NewServer(NewHandler(svc, s.Cluster, "", reg, HandlerOpts{AccessLog: access}))
	defer srv.Close()

	valid := testSpecBody(t, g)
	mutate := func(mut func(gs *GraphSpec)) []byte {
		var req AllocateRequest
		if err := json.Unmarshal(valid, &req); err != nil {
			t.Fatal(err)
		}
		mut(&req.Graph)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	// padTo prefixes the valid body with whitespace up to n bytes, so the
	// JSON value ends on the body's last byte.
	padTo := func(n int) []byte {
		return append(bytes.Repeat([]byte(" "), n-len(valid)), valid...)
	}
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
	}{
		{"valid graph", valid, http.StatusOK},
		{"malformed JSON", []byte("{nope"), http.StatusBadRequest},
		{"edge endpoint out of range", mutate(func(gs *GraphSpec) { gs.Edges[0].Dst = len(gs.Nodes) }), http.StatusBadRequest},
		{"cycle", mutate(func(gs *GraphSpec) {
			e := gs.Edges[0]
			gs.Edges = append(gs.Edges, EdgeSpec{Src: e.Dst, Dst: e.Src})
		}), http.StatusBadRequest},
		{"every edge payload 1e308", mutate(func(gs *GraphSpec) {
			for i := range gs.Edges {
				gs.Edges[i].Payload = 1e308
			}
		}), http.StatusBadRequest},
		{"one IPT 1e308", mutate(func(gs *GraphSpec) { gs.Nodes[0].IPT = 1e308 }), http.StatusBadRequest},
		{"every selectivity 1e300", mutate(func(gs *GraphSpec) {
			for i := range gs.Nodes {
				gs.Nodes[i].Selectivity = 1e300
			}
		}), http.StatusBadRequest},
		{"body at the cap", padTo(maxRequestBytes), http.StatusOK},
		{"body one byte over the cap", padTo(maxRequestBytes + 1), http.StatusRequestEntityTooLarge},
		{"one operator over the cap", mutate(func(gs *GraphSpec) {
			// Each added operator hangs off operator 0, so without the cap
			// the graph would be a valid, connected DAG.
			for len(gs.Nodes) <= maxRequestNodes {
				gs.Edges = append(gs.Edges, EdgeSpec{Src: 0, Dst: len(gs.Nodes)})
				gs.Nodes = append(gs.Nodes, gs.Nodes[0])
			}
		}), http.StatusBadRequest},
		{"one edge over the cap", mutate(func(gs *GraphSpec) {
			for len(gs.Edges) <= maxRequestEdges {
				gs.Edges = append(gs.Edges, gs.Edges[0])
			}
		}), http.StatusBadRequest},
	} {
		logBuf.Reset()
		resp, err := http.Post(srv.URL+"/allocate", "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, bytes.TrimSpace(msg))
			continue
		}
		var rec AccessRecord
		if err := json.Unmarshal(bytes.TrimSpace(logBuf.Bytes()), &rec); err != nil {
			t.Fatalf("%s: want exactly one access record: %v\n%s", tc.name, err, logBuf.String())
		}
		if rec.Status != tc.status || (tc.status != http.StatusOK && rec.Err == "") {
			t.Errorf("%s: access record %+v", tc.name, rec)
		}
	}
	if n := reg.Counter("serve_errors_total").Value(); n != 0 {
		t.Fatalf("serve_errors_total = %d, want 0", n)
	}
}

// TestHTTPForwardPanicAnswers500 pins the failure mapping at the wire: a
// forward pass that panics fails its request with 500 (not 503, which
// tells clients to retry), logs it and counts it as an error, and
// releases the forward lock, so the next request is served correctly.
func TestHTTPForwardPanicAnswers500(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	reg := obs.NewRegistry()
	model := core.New(core.DefaultConfig())
	svc := newTestService(t, Options{Model: model, Registry: reg, CacheSize: -1})
	var once sync.Once
	svc.beforeForward = func() {
		once.Do(func() { panic("injected forward failure") })
	}

	var logBuf bytes.Buffer
	access := obs.NewJSONLWriter(json.NewEncoder(&logBuf))
	srv := httptest.NewServer(NewHandler(svc, s.Cluster, "", reg, HandlerOpts{AccessLog: access}))
	defer srv.Close()

	post := func() (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/allocate", "application/json", bytes.NewReader(testSpecBody(t, g)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, body
	}

	resp, body := post()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked forward: status %d, want 500 (%s)", resp.StatusCode, bytes.TrimSpace(body))
	}
	var rec AccessRecord
	if err := json.Unmarshal(bytes.TrimSpace(logBuf.Bytes()), &rec); err != nil {
		t.Fatalf("want exactly one access record: %v\n%s", err, logBuf.String())
	}
	if rec.Status != http.StatusInternalServerError || rec.Err == "" {
		t.Fatalf("panic access record malformed: %+v", rec)
	}
	if n := reg.Counter("serve_errors_total").Value(); n != 1 {
		t.Fatalf("serve_errors_total = %d, want 1", n)
	}

	resp, body = post()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic: status %d (%s)", resp.StatusCode, bytes.TrimSpace(body))
	}
	var got AllocateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want := (&core.Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}).Allocate(g, s.Cluster)
	samePlacement(t, "after panic", want.Placement.Assign, got.Assign)
}
