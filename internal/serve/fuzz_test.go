package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/stream"
)

// writeGraphs is what `genstream -out` writes for graphs: a JSON array
// emitted by stream.JSONWriter.
func writeGraphs(t testing.TB, graphs ...*stream.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	jw := stream.NewJSONWriter(&buf)
	for _, g := range graphs {
		if err := jw.Write(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocateSeeds is the seed corpus of both /allocate fuzz targets: the
// graph-file seeds of stream's fuzz targets as request bodies, a
// JSONWriter-written Small and Medium graph, and hub fans, where one
// operator feeds every other operator, with 64 operators, at the
// per-request operator cap and one over it.
func allocateSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, body := range []string{
		`{"graph":{"source_rate":1000,"nodes":[{"ipt":10,"payload":20,"selectivity":1},` +
			`{"ipt":30,"payload":40,"selectivity":0.5}],"edges":[{"src":0,"dst":1,"payload":25}]}}`,
		`{}`,
		`{"graph":{"source_rate":1,"nodes":[],"edges":[]}}`,
		`{`,
		`{"graph":{"source_rate":500,"nodes":[{"ipt":1,"payload":2,"selectivity":1},{"ipt":3,"payload":4,"selectivity":1},` +
			`{"ipt":5,"payload":6,"selectivity":1}],"edges":[{"src":0,"dst":1,"payload":7},{"src":0,"dst":2,"payload":8},` +
			`{"src":1,"dst":2,"payload":9}]}}`,
		`{"graph":{"source_rate":1,"nodes":[{"ipt":1,"payload":1,"selectivity":1}],"edges":[]}}`,
	} {
		seeds = append(seeds, []byte(body))
	}
	for _, s := range []gen.Setting{gen.Small(), gen.Medium()} {
		arr := writeGraphs(t, s.Generate().Test[0])
		elem := bytes.TrimSuffix(bytes.TrimPrefix(arr, []byte("[")), []byte("]\n"))
		seeds = append(seeds, append(append([]byte(`{"graph":`), elem...), '}'))
	}
	for _, n := range []int{64, maxRequestNodes, maxRequestNodes + 1} {
		seeds = append(seeds, hubFanBody(t, n))
	}
	return seeds
}

// hubFanSpec is a graph of n operators, operator 0 feeding each of the
// others.
func hubFanSpec(n int) GraphSpec {
	gs := GraphSpec{SourceRate: 1000}
	for v := 0; v < n; v++ {
		gs.Nodes = append(gs.Nodes, NodeSpec{IPT: 10, Payload: 64, Selectivity: 1})
		if v > 0 {
			gs.Edges = append(gs.Edges, EdgeSpec{Src: 0, Dst: v})
		}
	}
	return gs
}

// hubFanBody is a request for hubFanSpec(n).
func hubFanBody(t testing.TB, n int) []byte {
	t.Helper()
	body, err := json.Marshal(AllocateRequest{Graph: hubFanSpec(n)})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// FuzzAllocateRequest posts arbitrary bytes to POST /allocate. No input
// may panic the handler or answer 5xx. A 200 carries one in-range device
// per operator of the request's graph and a relative throughput in
// [0, 1]. Every graph BuildGraph accepts also gets its CSR adjacency
// checked.
func FuzzAllocateRequest(f *testing.F) {
	for _, body := range allocateSeeds(f) {
		f.Add(body)
	}

	def := gen.Small().Cluster
	h := NewHandler(newTestService(f, Options{}), def, "", obs.NewRegistry(), HandlerOpts{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/allocate", bytes.NewReader(data)))
		if rec.Code >= 500 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
		// Decode the body the way the handler does: the first JSON value,
		// unknown fields refused.
		var req AllocateRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		decodeErr := dec.Decode(&req)
		var g *stream.Graph
		if decodeErr == nil {
			if built, err := req.Graph.BuildGraph(); err == nil {
				g = built
				checkAdjacency(t, g)
			}
		}
		if rec.Code != http.StatusOK {
			return
		}
		if g == nil {
			t.Fatalf("200 for a body whose graph does not build (decode error %v)", decodeErr)
		}
		c, err := req.Cluster.BuildCluster(def)
		if err != nil {
			t.Fatalf("200 for a cluster that does not build: %v", err)
		}
		var resp AllocateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with an undecodable body %q: %v", rec.Body.Bytes(), err)
		}
		if resp.Devices != c.Devices || len(resp.Assign) != g.NumNodes() {
			t.Fatalf("%d assignments on %d devices for %d operators on %d devices",
				len(resp.Assign), resp.Devices, g.NumNodes(), c.Devices)
		}
		for v, d := range resp.Assign {
			if d < 0 || d >= c.Devices {
				t.Fatalf("operator %d on device %d of %d", v, d, c.Devices)
			}
		}
		if r := resp.RelativeThroughput; math.IsNaN(r) || r < 0 || r > 1 {
			t.Fatalf("relative throughput %v outside [0, 1]", r)
		}
	})
}

// checkAdjacency checks the CSR adjacency view's structural invariants:
// monotone offsets covering all edges, each edge appearing exactly once
// per direction under its own endpoint, and per-node buckets ascending by
// edge id (the order the tensor CSR kernels rely on).
func checkAdjacency(t *testing.T, g *stream.Graph) {
	t.Helper()
	adj := g.Adjacency()
	n, m := g.NumNodes(), g.NumEdges()
	if len(adj.OutOff) != n+1 || len(adj.InOff) != n+1 {
		t.Fatalf("offset lengths %d/%d for %d nodes", len(adj.OutOff), len(adj.InOff), n)
	}
	if len(adj.OutEdge) != m || len(adj.InEdge) != m {
		t.Fatalf("edge array lengths %d/%d for %d edges", len(adj.OutEdge), len(adj.InEdge), m)
	}
	if adj.OutOff[0] != 0 || adj.InOff[0] != 0 || int(adj.OutOff[n]) != m || int(adj.InOff[n]) != m {
		t.Fatal("offsets do not cover the edge list")
	}
	seenOut := make([]bool, m)
	for v := 0; v < n; v++ {
		if adj.OutOff[v] > adj.OutOff[v+1] || adj.InOff[v] > adj.InOff[v+1] {
			t.Fatalf("non-monotone offsets at node %d", v)
		}
		prev := -1
		for _, ei := range adj.Out(v) {
			if g.Edges[ei].Src != v {
				t.Fatalf("edge %d in out-bucket of %d but Src=%d", ei, v, g.Edges[ei].Src)
			}
			if ei <= prev {
				t.Fatalf("out-bucket of %d not ascending: %d after %d", v, ei, prev)
			}
			prev = ei
			seenOut[ei] = true
		}
		prev = -1
		for _, ei := range adj.In(v) {
			if g.Edges[ei].Dst != v {
				t.Fatalf("edge %d in in-bucket of %d but Dst=%d", ei, v, g.Edges[ei].Dst)
			}
			if ei <= prev {
				t.Fatalf("in-bucket of %d not ascending: %d after %d", v, ei, prev)
			}
			prev = ei
		}
		if adj.OutDegree(v) != len(g.OutEdges(v)) || adj.InDegree(v) != len(g.InEdges(v)) {
			t.Fatalf("degree mismatch at node %d", v)
		}
	}
	for ei, ok := range seenOut {
		if !ok {
			t.Fatalf("edge %d missing from out buckets", ei)
		}
	}
}
