package stream

import "fmt"

// GraphStats summarizes a stream graph's structure and demand profile —
// used by the genstream CLI and dataset sanity checks.
type GraphStats struct {
	Nodes, Edges     int
	Sources, Sinks   int
	Depth            int // longest path length in edges
	MaxInDeg         int
	MaxOutDeg        int
	TotalLoad        float64 // instructions/second
	TotalTraffic     float64 // bits/second
	HeaviestNodeFrac float64 // heaviest node's share of total load
	HeaviestEdgeFrac float64 // heaviest edge's share of total traffic
}

// Stats computes GraphStats. The graph must be acyclic.
func Stats(g *Graph) (GraphStats, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return GraphStats{}, err
	}
	st := GraphStats{
		Nodes:   g.NumNodes(),
		Edges:   g.NumEdges(),
		Sources: len(g.Sources()),
		Sinks:   len(g.Sinks()),
	}
	depth := make([]int, g.NumNodes())
	for _, v := range order {
		for _, ei := range g.OutEdges(v) {
			d := g.Edges[ei].Dst
			if depth[v]+1 > depth[d] {
				depth[d] = depth[v] + 1
			}
		}
		if depth[v] > st.Depth {
			st.Depth = depth[v]
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if in := len(g.InEdges(v)); in > st.MaxInDeg {
			st.MaxInDeg = in
		}
		if out := len(g.OutEdges(v)); out > st.MaxOutDeg {
			st.MaxOutDeg = out
		}
	}
	var heaviestNode float64
	for _, l := range g.NodeLoad() {
		st.TotalLoad += l
		if l > heaviestNode {
			heaviestNode = l
		}
	}
	var heaviestEdge float64
	for _, t := range g.EdgeTraffic() {
		st.TotalTraffic += t
		if t > heaviestEdge {
			heaviestEdge = t
		}
	}
	if st.TotalLoad > 0 {
		st.HeaviestNodeFrac = heaviestNode / st.TotalLoad
	}
	if st.TotalTraffic > 0 {
		st.HeaviestEdgeFrac = heaviestEdge / st.TotalTraffic
	}
	return st, nil
}

// String renders the stats on one line.
func (s GraphStats) String() string {
	return fmt.Sprintf("n=%d e=%d src=%d sink=%d depth=%d maxIn=%d maxOut=%d load=%.3g traffic=%.3g heaviestNode=%.1f%% heaviestEdge=%.1f%%",
		s.Nodes, s.Edges, s.Sources, s.Sinks, s.Depth, s.MaxInDeg, s.MaxOutDeg,
		s.TotalLoad, s.TotalTraffic, 100*s.HeaviestNodeFrac, 100*s.HeaviestEdgeFrac)
}
