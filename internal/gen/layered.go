// layered.go is the O(E) streaming construction used for the huge and
// extreme size levels. The recursive substitution generator (gen.go)
// mutates an edge map through thousands of splice operations — fine at
// paper scale (≤2k nodes), hopeless at a million. The layered construction
// instead emits nodes in topological order: every node i>0 draws 1–4
// in-edges from a sliding window of recent predecessors, which makes the
// graph connected and acyclic by construction with no edge set, no
// rewiring, and no intermediate topology — just the final node and edge
// arrays, O(N+E) memory total. Features come from the recursive path's
// drawFeatures (§V), with input rates summed over the graph's own
// adjacency instead of the topoGraph.
package gen

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/stream"
)

// generateLayered emits a connected DAG of cfg.MinNodes..MaxNodes nodes in
// one topological sweep. Deterministic given rng state.
func generateLayered(cfg Config, rng *rand.Rand) *stream.Graph {
	if cfg.MinNodes < 2 || cfg.MaxNodes < cfg.MinNodes {
		panic(fmt.Sprintf("gen: bad node range [%d,%d]", cfg.MinNodes, cfg.MaxNodes))
	}
	target := cfg.MinNodes + rng.Intn(cfg.MaxNodes-cfg.MinNodes+1)
	window := cfg.LayerWindow
	if window <= 0 {
		window = 64
	}

	g := stream.NewGraph(cfg.SourceRate)
	g.AddNode(stream.Node{IPT: 1, Payload: 1, Selectivity: 0.8 + 0.4*rng.Float64()})
	var preds [4]int
	for i := 1; i < target; i++ {
		lo := i - window
		if lo < 0 {
			lo = 0
		}
		span := i - lo
		// 1 guaranteed in-edge keeps the graph weakly connected (the
		// predecessor is itself wired back to node 0 inductively); a
		// geometric tail adds fan-in without blowing up average degree.
		indeg := 1
		for indeg < len(preds) && indeg < span && rng.Float64() < 0.35 {
			indeg++
		}
		// Draw distinct predecessors from the window (indeg ≤ 4, so the
		// dedup loop is constant work).
		got := 0
		for got < indeg {
			if u := lo + rng.Intn(span); !slices.Contains(preds[:got], u) {
				preds[got] = u
				got++
			}
		}
		sel := 0.8 + 0.4*rng.Float64()
		if indeg > 1 {
			sel /= float64(indeg)
		}
		g.AddNode(stream.Node{IPT: 1, Payload: 1, Selectivity: sel})
		// Ascending predecessor order keeps edge emission deterministic.
		slices.Sort(preds[:got])
		for _, u := range preds[:got] {
			g.AddEdge(u, i, 1)
		}
	}
	// Input rates sum each operator's predecessors in CSR order.
	rates := g.SteadyRates()
	adj := g.Adjacency()
	inRate := make([]float64, target)
	for v := range inRate {
		if adj.InDegree(v) == 0 {
			inRate[v] = cfg.SourceRate
			continue
		}
		for _, ei := range adj.In(v) {
			inRate[v] += rates[g.Edges[ei].Src]
		}
	}
	drawFeatures(g, cfg, rates, inRate, nil, rng)
	return g
}
