package stream_test

import (
	"slices"
	"testing"

	"repro/internal/stream"
)

// FuzzReadJSON reads arbitrary bytes as a graph file: no input may panic
// the decoder, and every graph it accepts must come back bit for bit
// through JSONWriter and a second read.
func FuzzReadJSON(f *testing.F) {
	g := stream.NewGraph(1000)
	g.AddNode(stream.Node{IPT: 10, Payload: 20, Selectivity: 1})
	g.AddNode(stream.Node{IPT: 30, Payload: 40, Selectivity: 0.5})
	g.AddEdge(0, 1, 25)
	f.Add(writeJSON(f, g))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"source_rate":1,"nodes":[],"edges":[]}]`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		graphs, err := readJSON(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		back, err := readJSON(writeJSON(t, graphs...))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if len(back) != len(graphs) {
			t.Fatalf("round trip lost graphs: %d -> %d", len(graphs), len(back))
		}
		for i := range graphs {
			sameGraph(t, graphs[i], back[i])
		}
	})
}

// FuzzAdjacencyFromJSON builds the CSR adjacency view of every graph a
// graph file reads to and checks it against a scan of the edge list:
// offsets that start at 0, never decrease and cover every edge, and per
// node exactly the edges leaving and entering it, ascending by edge id
// (the order the tensor CSR kernels rely on).
func FuzzAdjacencyFromJSON(f *testing.F) {
	g := stream.NewGraph(500)
	g.AddNode(stream.Node{IPT: 1, Payload: 2, Selectivity: 1})
	g.AddNode(stream.Node{IPT: 3, Payload: 4, Selectivity: 1})
	g.AddNode(stream.Node{IPT: 5, Payload: 6, Selectivity: 1})
	g.AddEdge(0, 1, 7)
	g.AddEdge(0, 2, 8)
	g.AddEdge(1, 2, 9)
	f.Add(writeJSON(f, g))
	f.Add([]byte(`[{"source_rate":1,"nodes":[{"ipt":1,"payload":1,"selectivity":1}],"edges":[]}]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		graphs, err := readJSON(data)
		if err != nil {
			return
		}
		for _, g := range graphs {
			adj := g.Adjacency()
			n, m := g.NumNodes(), g.NumEdges()
			if len(adj.OutOff) != n+1 || len(adj.InOff) != n+1 || len(adj.OutEdge) != m || len(adj.InEdge) != m {
				t.Fatalf("offsets %d/%d and edge arrays %d/%d for %d nodes and %d edges",
					len(adj.OutOff), len(adj.InOff), len(adj.OutEdge), len(adj.InEdge), n, m)
			}
			if adj.OutOff[0] != 0 || adj.InOff[0] != 0 || int(adj.OutOff[n]) != m || int(adj.InOff[n]) != m {
				t.Fatal("offsets do not cover the edge list")
			}
			out, in := make([][]int, n), make([][]int, n)
			for ei, e := range g.Edges {
				out[e.Src] = append(out[e.Src], ei)
				in[e.Dst] = append(in[e.Dst], ei)
			}
			for v := 0; v < n; v++ {
				if adj.OutOff[v] > adj.OutOff[v+1] || adj.InOff[v] > adj.InOff[v+1] {
					t.Fatalf("non-monotone offsets at node %d", v)
				}
				if !slices.Equal(adj.Out(v), out[v]) || !slices.Equal(adj.In(v), in[v]) {
					t.Fatalf("node %d: out-bucket %v, in-bucket %v; the edge list gives %v and %v",
						v, adj.Out(v), adj.In(v), out[v], in[v])
				}
			}
		}
	})
}
