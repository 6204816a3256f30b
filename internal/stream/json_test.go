package stream_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/stream"
)

// writeJSON is what `genstream -out` writes for graphs: a JSON array
// emitted by stream.JSONWriter one graph at a time.
func writeJSON(t testing.TB, graphs ...*stream.Graph) []byte {
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

// readJSON reads a graph file with the one graph decoder: each array
// element decodes, unknown fields refused, into a serve.GraphSpec that
// BuildGraph turns into a validated graph.
func readJSON(data []byte) ([]*stream.Graph, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var specs []serve.GraphSpec
	if err := dec.Decode(&specs); err != nil {
		return nil, err
	}
	graphs := make([]*stream.Graph, len(specs))
	for i := range specs {
		g, err := specs[i].BuildGraph()
		if err != nil {
			return nil, fmt.Errorf("graph %d: %w", i, err)
		}
		graphs[i] = g
	}
	return graphs, nil
}

// sameGraph compares every field of two graphs, floats by Float64bits.
func sameGraph(t *testing.T, want, got *stream.Graph) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(want.SourceRate, got.SourceRate) || len(want.Nodes) != len(got.Nodes) || len(want.Edges) != len(got.Edges) {
		t.Fatalf("rate %v/%v, %d/%d nodes, %d/%d edges", want.SourceRate, got.SourceRate,
			len(want.Nodes), len(got.Nodes), len(want.Edges), len(got.Edges))
	}
	for v, a := range want.Nodes {
		b := got.Nodes[v]
		if !same(a.IPT, b.IPT) || !same(a.Payload, b.Payload) || !same(a.Selectivity, b.Selectivity) ||
			!same(a.State, b.State) || a.Name != b.Name {
			t.Fatalf("node %d: %+v decoded as %+v", v, a, b)
		}
	}
	for i, a := range want.Edges {
		b := got.Edges[i]
		if a.Src != b.Src || a.Dst != b.Dst || !same(a.Payload, b.Payload) {
			t.Fatalf("edge %d: %+v decoded as %+v", i, a, b)
		}
	}
}

// testGraphs returns up to four graphs of the setting's test split.
func testGraphs(t *testing.T, s gen.Setting) []*stream.Graph {
	t.Helper()
	n, seed, err := s.Split("test")
	if err != nil {
		t.Fatal(err)
	}
	return gen.GenerateSet(s.Config, min(n, 4), seed)
}

// TestJSONWriterBytes pins the incremental writer's byte stream: the
// empty array, HTML-escaped names, omitted zero state and names, and
// edgeless graphs. TestJSONRoundTrip pins that the decoder reads these
// bytes back to the same graphs.
func TestJSONWriterBytes(t *testing.T) {
	g1 := stream.NewGraph(5000)
	g1.AddNode(stream.Node{IPT: 100, Payload: 50, Selectivity: 1, Name: "src"})
	g1.AddNode(stream.Node{IPT: 200, Payload: 25, Selectivity: 0.5})
	g1.AddEdge(0, 1, 75)
	g2 := stream.NewGraph(100)
	g2.AddNode(stream.Node{IPT: 1, Payload: 2, Selectivity: 1, Name: "a<b>&c", State: 7})
	g3 := stream.NewGraph(1)
	g3.AddNode(stream.Node{IPT: 0.5, Payload: 1.25, Selectivity: 1})
	g3.AddNode(stream.Node{IPT: 3, Payload: 4, Selectivity: 2})
	g3.AddEdge(0, 1, 0.125)
	g3.AddEdge(0, 1, 9)
	for _, tc := range []struct {
		graphs []*stream.Graph
		want   string
	}{
		{nil, "[]\n"},
		{[]*stream.Graph{g1}, `[{"source_rate":5000,"nodes":[{"ipt":100,"payload":50,"selectivity":1,"name":"src"},` +
			`{"ipt":200,"payload":25,"selectivity":0.5}],"edges":[{"src":0,"dst":1,"payload":75}]}]` + "\n"},
		{[]*stream.Graph{g1, g2, g3}, `[{"source_rate":5000,"nodes":[{"ipt":100,"payload":50,"selectivity":1,"name":"src"},` +
			`{"ipt":200,"payload":25,"selectivity":0.5}],"edges":[{"src":0,"dst":1,"payload":75}]},` +
			`{"source_rate":100,"nodes":[{"ipt":1,"payload":2,"selectivity":1,"state":7,"name":"a\u003cb\u003e\u0026c"}],"edges":null},` +
			`{"source_rate":1,"nodes":[{"ipt":0.5,"payload":1.25,"selectivity":1},{"ipt":3,"payload":4,"selectivity":2}],` +
			`"edges":[{"src":0,"dst":1,"payload":0.125},{"src":0,"dst":1,"payload":9}]}]` + "\n"},
	} {
		var got bytes.Buffer
		jw := stream.NewJSONWriter(&got)
		for _, g := range tc.graphs {
			if err := jw.Write(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		if got.String() != tc.want {
			t.Fatalf("%d graphs:\nwant %q\ngot  %q", len(tc.graphs), tc.want, got.String())
		}
	}
	var buf bytes.Buffer
	jw := stream.NewJSONWriter(&buf)
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := jw.Write(g1); err == nil {
		t.Fatal("write after close accepted")
	}
}

// TestJSONRoundTrip pins the graph-file format to the one graph decoder:
// the JSON array `genstream -out` writes for Medium and Large gen graphs,
// and for the application templates (whose operators carry names), reads
// back through serve.GraphSpec, unknown fields refused, to the written
// graphs, every float bit for bit.
func TestJSONRoundTrip(t *testing.T) {
	var apps []*stream.Graph
	rng := rand.New(rand.NewSource(1))
	for _, tpl := range gen.AllTemplates() {
		g, err := gen.FromTemplate(tpl, 2, 1000, rng)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, g)
	}
	for si, graphs := range [][]*stream.Graph{testGraphs(t, gen.Medium()), testGraphs(t, gen.Large()), apps} {
		back, err := readJSON(writeJSON(t, graphs...))
		if err != nil {
			t.Fatalf("set %d: %v", si, err)
		}
		if len(back) != len(graphs) {
			t.Fatalf("set %d: %d graphs read for %d written", si, len(back), len(graphs))
		}
		for i, want := range graphs {
			sameGraph(t, want, back[i])
		}
	}
}

// TestJSONPreservesSimulationSemantics compares what the simulators read
// rather than the fields: the steady rates, node loads and edge traffic
// of each Medium graph read back from its file equal the written
// graph's bit for bit, so a field that feeds the demand model but that
// the format drops shows here.
func TestJSONPreservesSimulationSemantics(t *testing.T) {
	graphs := testGraphs(t, gen.Medium())
	back, err := readJSON(writeJSON(t, graphs...))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range graphs {
		label := fmt.Sprintf("graph %d", i)
		sameFloatBits(t, label+" rates", back[i].SteadyRates(), g.SteadyRates())
		sameFloatBits(t, label+" loads", back[i].NodeLoad(), g.NodeLoad())
		sameFloatBits(t, label+" traffic", back[i].EdgeTraffic(), g.EdgeTraffic())
	}
}

// TestReadJSONRejectsInvalid: a graph file with an edge endpoint out of
// range, a cycle, or malformed JSON does not read.
func TestReadJSONRejectsInvalid(t *testing.T) {
	for _, tc := range []struct{ name, data string }{
		{"out-of-range edge", `[{"source_rate":100,"nodes":[{"ipt":1,"payload":1,"selectivity":1}],` +
			`"edges":[{"src":0,"dst":5,"payload":1}]}]`},
		{"cyclic graph", `[{"source_rate":100,"nodes":[{"ipt":1,"payload":1,"selectivity":1},{"ipt":1,"payload":1,"selectivity":1}],` +
			`"edges":[{"src":0,"dst":1,"payload":1},{"src":1,"dst":0,"payload":1}]}]`},
		{"garbage", "{nope"},
	} {
		if _, err := readJSON([]byte(tc.data)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
