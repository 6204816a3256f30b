package stream

import (
	"strings"
	"testing"
)

func statsGraph() *Graph {
	// diamond with an extra tail: 0 → {1,2} → 3 → 4
	g := NewGraph(100)
	for i := 0; i < 5; i++ {
		g.AddNode(Node{IPT: 10, Payload: 100})
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(2, 3, 0)
	g.AddEdge(3, 4, 0)
	return g
}

func TestStatsStructure(t *testing.T) {
	st, err := Stats(statsGraph())
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != 5 || st.Edges != 5 {
		t.Fatalf("%+v", st)
	}
	if st.Sources != 1 || st.Sinks != 1 {
		t.Fatalf("%+v", st)
	}
	if st.Depth != 3 {
		t.Fatalf("depth = %d", st.Depth)
	}
	if st.MaxInDeg != 2 || st.MaxOutDeg != 2 {
		t.Fatalf("degrees %d/%d", st.MaxInDeg, st.MaxOutDeg)
	}
	if st.TotalLoad <= 0 || st.TotalTraffic <= 0 {
		t.Fatal("demands missing")
	}
	if st.HeaviestNodeFrac <= 0 || st.HeaviestNodeFrac > 1 {
		t.Fatalf("heaviest node frac %g", st.HeaviestNodeFrac)
	}
}

func TestStatsRejectsCycle(t *testing.T) {
	g := statsGraph()
	g.AddEdge(4, 0, 1)
	if _, err := Stats(g); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestStatsString(t *testing.T) {
	st, _ := Stats(statsGraph())
	s := st.String()
	if !strings.Contains(s, "n=5") || !strings.Contains(s, "depth=3") {
		t.Fatalf("stats string: %s", s)
	}
}
