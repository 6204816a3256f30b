package stream

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// componentsRef labels the connected components of the undirected graph
// formed by the decided edges, by breadth-first search from each unlabeled
// node in ascending order, so components are numbered by smallest member.
func componentsRef(g *Graph, decided []bool) ([]int, int) {
	adj := make([][]int, g.NumNodes())
	for ei, e := range g.Edges {
		if decided[ei] {
			adj[e.Src] = append(adj[e.Src], e.Dst)
			adj[e.Dst] = append(adj[e.Dst], e.Src)
		}
	}
	comp := make([]int, g.NumNodes())
	for v := range comp {
		comp[v] = -1
	}
	next := 0
	for v := range comp {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = next
		queue := []int{v}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range adj[u] {
				if comp[w] < 0 {
					comp[w] = next
					queue = append(queue, w)
				}
			}
		}
		next++
	}
	return comp, next
}

// TestCollapserMatchesComponents collapses random decision vectors on
// random multigraphs (self-loops, parallel edges in both directions) in two
// different edge orders. Both walks must give the reference components,
// numbered by smallest member, and decide exactly one edge per merge.
func TestCollapserMatchesComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(301)
		g := NewGraph(1)
		for v := 0; v < n; v++ {
			g.AddNode(Node{IPT: 1, Payload: 1})
		}
		if n > 0 {
			for m := rng.Intn(2*n + 1); m > 0; m-- {
				u, v := rng.Intn(n), rng.Intn(n)
				if rng.Intn(8) == 0 {
					v = u // self-loop
				}
				g.AddEdge(u, v, 0)
				if rng.Intn(4) == 0 {
					g.AddEdge(v, u, 0) // parallel edge, reversed
				}
			}
		}
		decided := make([]bool, g.NumEdges())
		frac := rng.Float64()
		for ei := range decided {
			decided[ei] = rng.Float64() < frac
		}
		want, comps := componentsRef(g, decided)
		for walk := 0; walk < 2; walk++ {
			c := NewCollapser(g)
			for _, ei := range rng.Perm(g.NumEdges()) {
				if decided[ei] {
					c.Collapse(ei)
				}
			}
			cm := c.Map()
			if !slices.Equal(cm.Super, want) || cm.NumSuper != comps {
				t.Fatalf("trial %d walk %d (n=%d, m=%d): map differs from the components reference", trial, walk, n, g.NumEdges())
			}
			if c.NumSuper() != comps {
				t.Fatalf("trial %d walk %d: NumSuper %d, want %d", trial, walk, c.NumSuper(), comps)
			}
			marked := 0
			for ei, d := range c.Decision() {
				if d {
					marked++
					if !decided[ei] {
						t.Fatalf("trial %d walk %d: edge %d marked but never collapsed", trial, walk, ei)
					}
				}
			}
			if marked != n-c.NumSuper() {
				t.Fatalf("trial %d walk %d: %d edges marked, want %d", trial, walk, marked, n-c.NumSuper())
			}
		}
	}
}

func TestRankEdgesOrder(t *testing.T) {
	score := []float64{0.5, 0.9, math.NaN(), 0.5, 0.9, -1, 0.5}
	want := []int32{1, 4, 0, 3, 6, 5, 2}
	if got := RankEdges(score); !slices.Equal(got, want) {
		t.Fatalf("RankEdges = %v, want %v (score descending, id ascending, NaN last)", got, want)
	}
}
