package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/stream"
)

// specFromGraph converts a generated stream graph into the wire format.
func specFromGraph(g *stream.Graph) serve.GraphSpec {
	gs := serve.GraphSpec{SourceRate: g.SourceRate}
	for _, n := range g.Nodes {
		gs.Nodes = append(gs.Nodes, serve.NodeSpec{IPT: n.IPT, Payload: n.Payload, Selectivity: n.Selectivity, State: n.State})
	}
	for _, e := range g.Edges {
		gs.Edges = append(gs.Edges, serve.EdgeSpec{Src: e.Src, Dst: e.Dst, Payload: e.Payload})
	}
	return gs
}

// readAccessLog flushes the sinks and parses every JSONL record.
func readAccessLog(t *testing.T, sinks *obsSinks, path string) []serve.AccessRecord {
	t.Helper()
	sinks.flush()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []serve.AccessRecord
	for i, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var r serve.AccessRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("access log line %d is not JSON: %v\n%s", i, err, line)
		}
		recs = append(recs, r)
	}
	return recs
}

// TestAllocServeSmoke boots the real server wiring on :0, allocates a
// generated graph twice over HTTP (cold then cached), hot-swaps via
// /reload, and checks the /metrics exposition carries the serve
// counters and the access log carries one valid record per request.
func TestAllocServeSmoke(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]

	reg := obs.NewRegistry()
	logPath := filepath.Join(t.TempDir(), "access.jsonl")
	svc, srv, sinks, err := startServer(serverConfig{
		listen:    "127.0.0.1:0",
		hidden:    24,
		seed:      1,
		cacheSize: 1024,
		accessLog: logPath,
		cluster:   s.Cluster,
		reg:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer srv.Close()
	defer sinks.close()
	base := "http://" + srv.Addr()

	body, err := json.Marshal(serve.AllocateRequest{Graph: specFromGraph(g)})
	if err != nil {
		t.Fatal(err)
	}
	post := func() serve.AllocateResponse {
		t.Helper()
		resp, err := http.Post(base+"/allocate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Fatal("/allocate response has no X-Trace-Id")
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			t.Fatalf("POST /allocate: status %d: %s", resp.StatusCode, msg)
		}
		var out serve.AllocateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	cold := post()
	if len(cold.Assign) != g.NumNodes() {
		t.Fatalf("assign covers %d of %d operators", len(cold.Assign), g.NumNodes())
	}
	for i, d := range cold.Assign {
		if d < 0 || d >= s.Cluster.Devices {
			t.Fatalf("operator %d on out-of-range device %d", i, d)
		}
	}
	if cold.Cached || cold.ModelVersion != 1 {
		t.Fatalf("cold response: cached=%v version=%d", cold.Cached, cold.ModelVersion)
	}
	if cold.RelativeThroughput <= 0 {
		t.Fatalf("non-positive relative throughput %v", cold.RelativeThroughput)
	}

	warm := post()
	if !warm.Cached {
		t.Fatal("second identical request missed the cache")
	}
	for i := range cold.Assign {
		if warm.Assign[i] != cold.Assign[i] {
			t.Fatalf("cached placement drifted at operator %d", i)
		}
	}

	// Hot swap over HTTP ("" reload path → re-snapshot live params).
	resp, err := http.Post(base+"/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(msg), "model_version=2") {
		t.Fatalf("POST /reload: status %d: %s", resp.StatusCode, msg)
	}
	if v := post().ModelVersion; v != 2 {
		t.Fatalf("post-reload allocation served by version %d", v)
	}

	// Health, status, and metrics.
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if !strings.Contains(string(hb), "ok model_version=2") {
		t.Fatalf("healthz: %s", hb)
	}
	zr, err := http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	zb, _ := io.ReadAll(zr.Body)
	zr.Body.Close()
	if !strings.Contains(string(zb), "model_version:  2") || !strings.Contains(string(zb), "latency_ms") {
		t.Fatalf("statusz: %s", zb)
	}
	mr, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	metrics := string(mb)
	for _, want := range []string{
		"serve_requests_total 3",
		"serve_cache_hits_total 1",
		"serve_reloads_total 1",
		"serve_model_version 2",
		"# TYPE serve_latency_ms histogram",
		"# TYPE serve_latency_quantiles_ms summary",
		`serve_latency_quantiles_ms{quantile="0.99"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// Malformed specs are client errors, not 500s.
	bad, err := http.Post(base+"/allocate", "application/json", strings.NewReader(`{"graph":{"source_rate":1,"nodes":[{"ipt":1,"payload":1}],"edges":[{"src":0,"dst":9}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range edge: status %d, want 400", bad.StatusCode)
	}

	// One valid JSONL access record per /allocate request (3 OK + 1 bad).
	recs := readAccessLog(t, sinks, logPath)
	if len(recs) != 4 {
		t.Fatalf("access log has %d records, want 4", len(recs))
	}
	for i, r := range recs {
		if r.TraceID == "" || r.LatencyMS < 0 {
			t.Fatalf("record %d malformed: %+v", i, r)
		}
		if _, err := time.Parse(time.RFC3339Nano, r.TS); err != nil {
			t.Fatalf("record %d timestamp: %v", i, err)
		}
	}
	if recs[0].Status != http.StatusOK || recs[0].Nodes != g.NumNodes() || recs[0].Fingerprint == "" {
		t.Fatalf("cold record malformed: %+v", recs[0])
	}
	if !recs[1].Cached {
		t.Fatalf("cached record malformed: %+v", recs[1])
	}
	if recs[3].Status != http.StatusBadRequest || recs[3].Err == "" {
		t.Fatalf("bad-spec record malformed: %+v", recs[3])
	}
}

// TestAllocServeShedding drives the daemon wiring past its inflight
// bound over real HTTP: with MaxInflight=1, a request for a graph near
// the per-request operator cap stays in flight while concurrent arrivals
// get 429 + Retry-After, serve_shed_total advances, the parked request
// and a follow-up both succeed, and the emitted Chrome trace carries the
// request's queue-wait and forward child spans.
func TestAllocServeShedding(t *testing.T) {
	s := gen.Small()
	graphs := s.Generate().Test[:2]
	// 8,000 operators, under the 8,192 cap: encoding the graph and
	// sweeping its ranked candidates keeps the first request in flight
	// far longer than three shed round trips take.
	cfg := gen.Huge().Config
	cfg.MinNodes, cfg.MaxNodes = 8000, 8000
	big := gen.Generate(cfg, rand.New(rand.NewSource(1)))

	reg := obs.NewRegistry()
	dir := t.TempDir()
	logPath := filepath.Join(dir, "access.jsonl")
	tracePath := filepath.Join(dir, "trace.json")
	svc, srv, sinks, err := startServer(serverConfig{
		listen: "127.0.0.1:0",
		hidden: 24,
		seed:   1,
		// Cache off so every request takes the admission-gated forward
		// path.
		cacheSize:   -1,
		maxInflight: 1,
		accessLog:   logPath,
		traceOut:    tracePath,
		cluster:     s.Cluster,
		reg:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	defer srv.Close()
	defer sinks.close()
	base := "http://" + srv.Addr()

	post := func(g *stream.Graph) *http.Response {
		t.Helper()
		body, err := json.Marshal(serve.AllocateRequest{Graph: specFromGraph(g)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/allocate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Park the first request in its allocation of the big graph.
	bigBody, err := json.Marshal(serve.AllocateRequest{Graph: specFromGraph(big)})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var parkedStatus int
	var parkedErr error
	go func() {
		defer wg.Done()
		resp, err := http.Post(base+"/allocate", "application/json", bytes.NewReader(bigBody))
		if err != nil {
			parkedErr = err
			return
		}
		// The 8,000-operator placement spans several write buffers, so
		// its headers reach the client before the handler has logged
		// it; reading to the end waits for the handler to return.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		parkedStatus = resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Gauge("serve_inflight").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("parked request never showed up in serve_inflight")
		}
		runtime.Gosched()
	}

	// Concurrent arrivals are shed at admission.
	sheds := 0
	for i := 0; i < 3; i++ {
		resp := post(graphs[0])
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload request %d: status %d (%s), want 429", i, resp.StatusCode, msg)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		if resp.Header.Get("X-Trace-Id") == "" {
			t.Fatal("429 without X-Trace-Id")
		}
		sheds++
	}
	if got := reg.Counter("serve_shed_total").Value(); got != uint64(sheds) {
		t.Fatalf("serve_shed_total = %d, want %d", got, sheds)
	}

	// The parked request and a post-recovery request both succeed.
	wg.Wait()
	if parkedErr != nil {
		t.Fatal(parkedErr)
	}
	if parkedStatus != http.StatusOK {
		t.Fatalf("parked request: status %d, want 200", parkedStatus)
	}
	resp := post(graphs[1])
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery request: status %d, want 200", resp.StatusCode)
	}

	// Shed requests are logged with the shed marker and zero 500s.
	recs := readAccessLog(t, sinks, logPath)
	var shedRecs, okRecs int
	for _, r := range recs {
		switch {
		case r.Shed && r.Status == http.StatusTooManyRequests:
			shedRecs++
		case r.Status == http.StatusOK:
			okRecs++
		default:
			t.Fatalf("unexpected access record: %+v", r)
		}
	}
	if shedRecs != sheds || okRecs != 2 {
		t.Fatalf("access log: %d shed / %d ok records, want %d / 2", shedRecs, okRecs, sheds)
	}

	// The flushed Chrome trace carries the request-scoped child spans.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []obs.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	traced := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		spans[ev.Name]++
		if ev.Args["trace_id"] != "" {
			traced[ev.Name] = true
		}
	}
	// cacheSize<0 means no cache-probe spans; the forward-lock wait and
	// the forward pass are the acceptance contract.
	for _, want := range []string{"queue-wait", "forward"} {
		if spans[want] == 0 {
			t.Fatalf("trace missing %q spans: %v", want, spans)
		}
		if !traced[want] {
			t.Fatalf("%q spans carry no trace_id arg", want)
		}
	}
}
