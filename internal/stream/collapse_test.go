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

// TestSweepMatchesFreshWalks checks Sweep against one fresh walk per
// target on random multigraphs, with tied scores, random edge filters
// and random descending targets (repeats, 0 and targets at or above the
// node count included). Each at(i) must see the Map and Decision of a
// walk along the same filtered order stopped at targets[i]; unreached
// targets get no call; and once the last target is met the sweep looks
// at no further edge.
func TestSweepMatchesFreshWalks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		g := NewGraph(1)
		for v := 0; v < n; v++ {
			g.AddNode(Node{IPT: 1, Payload: 1})
		}
		if n > 0 {
			for m := rng.Intn(2*n + 1); m > 0; m-- {
				g.AddEdge(rng.Intn(n), rng.Intn(n), 0)
			}
		}
		score := make([]float64, g.NumEdges())
		for i := range score {
			score[i] = float64(rng.Intn(3))
		}
		order := RankEdges(score)
		var keep func(int) bool
		looked := 0 // edges the sweep has offered to keep
		if rng.Intn(3) > 0 {
			mask := make([]bool, g.NumEdges())
			for i := range mask {
				mask[i] = rng.Intn(4) > 0
			}
			keep = func(ei int) bool { looked++; return mask[ei] }
		}
		targets := make([]int, rng.Intn(6))
		for i := range targets {
			targets[i] = rng.Intn(n + 3)
		}
		slices.SortFunc(targets, func(a, b int) int { return b - a })

		// fresh walks order under keep until at most target super-nodes
		// remain.
		fresh := func(target int) *Collapser {
			c := NewCollapser(g)
			for _, ei := range order {
				if c.NumSuper() <= target {
					break
				}
				if keep == nil || keep(int(ei)) {
					c.Collapse(int(ei))
				}
			}
			return c
		}
		type snap struct {
			i, looked int
			super     []int
			decision  []bool
		}
		var got []snap
		c := NewCollapser(g)
		c.Sweep(order, targets, keep, func(i int) {
			got = append(got, snap{i, looked, c.Map().Super, slices.Clone(c.Decision())})
		})
		sweepLooked := looked
		reached := 0
		for _, tg := range targets {
			if fresh(tg).NumSuper() <= tg {
				reached++
			}
		}
		if len(got) != reached {
			t.Fatalf("trial %d: %d calls for %d reached targets %v", trial, len(got), reached, targets)
		}
		for k, s := range got {
			if s.i != k {
				t.Fatalf("trial %d: call %d reports target %d", trial, k, s.i)
			}
			want := fresh(targets[k])
			if !slices.Equal(s.super, want.Map().Super) || !slices.Equal(s.decision, want.Decision()) {
				t.Fatalf("trial %d: target %d (%d): sweep snapshot differs from a fresh walk", trial, k, targets[k])
			}
		}
		// Stopped after the last target: the collapser still holds the
		// last snapshot, and no edge was looked at since. With a target
		// unreached, the walk ran to the end; with none, it did nothing.
		end := fresh(-1)
		if reached == len(targets) {
			end = NewCollapser(g)
			if reached > 0 {
				end = fresh(targets[reached-1])
				if sweepLooked != got[reached-1].looked {
					t.Fatalf("trial %d: the sweep looked at %d edges after its last target", trial, sweepLooked-got[reached-1].looked)
				}
			}
		}
		if !slices.Equal(c.Map().Super, end.Map().Super) || !slices.Equal(c.Decision(), end.Decision()) {
			t.Fatalf("trial %d: the sweep did not stop where it should (targets %v, %d reached)", trial, targets, reached)
		}
	}
}
