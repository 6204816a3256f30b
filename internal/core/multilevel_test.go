package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

// refineChain builds a 6-node chain with a deliberately unbalanced
// placement: all the work on device 0, device 1 idle.
func refineChain() (*stream.Graph, sim.Cluster, *stream.Placement) {
	c := sim.DefaultCluster(2, 1e6)
	g := stream.NewGraph(1000)
	for i := 0; i < 6; i++ {
		g.AddNode(stream.Node{IPT: 1000, Payload: 100, Selectivity: 1})
	}
	for i := 0; i < 5; i++ {
		g.AddEdge(i, i+1, 100)
	}
	p := stream.NewPlacement(6, 2)
	p.Assign[5] = 1 // one node across: five cut-free, one cut edge
	return g, c, p
}

func TestRefineBoundaryNeverWorsens(t *testing.T) {
	g, c, p := refineChain()
	before, err := sim.Simulate(g, p, c)
	if err != nil {
		t.Fatal(err)
	}
	score := make([]float64, g.NumEdges())
	for i := range score {
		score[i] = float64(i) / 10
	}
	refineBoundary(g, c, p, stream.RankEdges(score), 4)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	after, err := sim.Simulate(g, p, c)
	if err != nil {
		t.Fatal(err)
	}
	if after.Relative < before.Relative {
		t.Fatalf("refinement worsened throughput: %v -> %v", before.Relative, after.Relative)
	}
}

func TestRefineBoundaryDeterministic(t *testing.T) {
	run := func() []int {
		g, c, p := refineChain()
		score := []float64{0.9, 0.1, 0.5, 0.5, 0.7}
		refineBoundary(g, c, p, stream.RankEdges(score), 3)
		return p.Assign
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("refinement nondeterministic at node %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestAllocateMultilevelLeafMatchesAllocate(t *testing.T) {
	g, c, m := testSetup(t) // well under the default leaf size
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	flat := pipe.Allocate(g, c)
	ml := pipe.AllocateMultilevel(g, c, DefaultMultilevelConfig())
	for v := range flat.Placement.Assign {
		if ml.Placement.Assign[v] != flat.Placement.Assign[v] {
			t.Fatalf("leaf-size multilevel diverged from flat pipeline at node %d", v)
		}
	}
}

func TestAllocateMultilevelRecursesAndStaysValid(t *testing.T) {
	c := sim.DefaultCluster(8, 10_000)
	cfg := gen.DefaultConfig(300, 340, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(11)))
	m := New(Config{Hidden: 8, EdgeDim: 4, MergeDim: 8, Hops: 2, Seed: 1,
		UseEdgeEncoding: true, UseEdgeCollapse: true})
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}

	mcfg := MultilevelConfig{LeafSize: 60, CoarsenFactor: 4, RefinePasses: 2}
	a := pipe.AllocateMultilevel(g, c, mcfg)
	if err := a.Placement.Validate(g); err != nil {
		t.Fatal(err)
	}
	if a.Coarse == nil || a.Coarse.NumSuper >= g.NumNodes() {
		t.Fatalf("multilevel did not coarsen: %+v", a.Coarse)
	}
	r := sim.Reward(g, a.Placement, c)
	if math.IsNaN(r) || r <= 0 {
		t.Fatalf("multilevel reward %v", r)
	}

	b := pipe.AllocateMultilevel(g, c, mcfg)
	for v := range a.Placement.Assign {
		if a.Placement.Assign[v] != b.Placement.Assign[v] {
			t.Fatalf("multilevel nondeterministic at node %d", v)
		}
	}
}

func TestAllocateMultilevelHandlesEdgelessGraph(t *testing.T) {
	c := sim.DefaultCluster(2, 1000)
	g := stream.NewGraph(1000)
	for i := 0; i < 5; i++ {
		g.AddNode(stream.Node{IPT: 10, Payload: 10, Selectivity: 1})
	}
	m := New(Config{Hidden: 4, EdgeDim: 4, MergeDim: 8, Hops: 1, Seed: 1,
		UseEdgeEncoding: true, UseEdgeCollapse: true})
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	a := pipe.AllocateMultilevel(g, c, MultilevelConfig{LeafSize: 2, CoarsenFactor: 2, RefinePasses: 1})
	if err := a.Placement.Validate(g); err != nil {
		t.Fatal(err)
	}
}

// refineBoundaryRef is refineBoundary without the capacity pre-check:
// every trial applies its move, and a rejected one restores the saved
// tallies. It returns the moves made and the incident edges walked.
// refineBoundary must make exactly its decisions.
func refineBoundaryRef(g *stream.Graph, c sim.Cluster, p *stream.Placement, score []float64, passes int) (int, uint64) {
	if passes <= 0 || g.NumEdges() == 0 {
		return 0, 0
	}
	load := g.NodeLoad()
	traffic := g.EdgeTraffic()
	adj := g.Adjacency()
	cpu := make([]float64, p.Devices)
	egress := make([]float64, p.Devices)
	ingress := make([]float64, p.Devices)
	for v, dev := range p.Assign {
		cpu[dev] += load[v]
	}
	cross := 0.0
	for ei, e := range g.Edges {
		ds, dd := p.Assign[e.Src], p.Assign[e.Dst]
		if ds != dd {
			egress[ds] += traffic[ei]
			ingress[dd] += traffic[ei]
			cross += traffic[ei]
		}
	}
	worst := func() float64 {
		w := 0.0
		for dev := 0; dev < p.Devices; dev++ {
			u := cpu[dev] / c.CapacityOf(dev)
			if n := math.Max(egress[dev], ingress[dev]) / c.Bandwidth; n > u {
				u = n
			}
			if u > w {
				w = u
			}
		}
		return w
	}
	var visits uint64
	move := func(v, to int) {
		from := p.Assign[v]
		cpu[from] -= load[v]
		cpu[to] += load[v]
		visits += uint64(len(adj.Out(v)) + len(adj.In(v)))
		for _, ei := range adj.Out(v) {
			dw := p.Assign[g.Edges[ei].Dst]
			if dw != from {
				egress[from] -= traffic[ei]
				ingress[dw] -= traffic[ei]
				cross -= traffic[ei]
			}
			if dw != to {
				egress[to] += traffic[ei]
				ingress[dw] += traffic[ei]
				cross += traffic[ei]
			}
		}
		for _, ei := range adj.In(v) {
			du := p.Assign[g.Edges[ei].Src]
			if du != from {
				egress[du] -= traffic[ei]
				ingress[from] -= traffic[ei]
				cross -= traffic[ei]
			}
			if du != to {
				egress[du] += traffic[ei]
				ingress[to] += traffic[ei]
				cross += traffic[ei]
			}
		}
		p.Assign[v] = to
	}
	order := make([]int, 0, len(score))
	for ei, e := range g.Edges {
		if p.Assign[e.Src] != p.Assign[e.Dst] {
			order = append(order, ei)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if score[order[a]] != score[order[b]] {
			return score[order[a]] > score[order[b]]
		}
		return order[a] < order[b]
	})
	moved := 0
	for pass := 0; pass < passes; pass++ {
		improved := false
		for _, ei := range order {
			e := g.Edges[ei]
			if p.Assign[e.Src] == p.Assign[e.Dst] {
				continue
			}
			curW, curX := worst(), cross
			for _, try := range [2][2]int{{e.Src, p.Assign[e.Dst]}, {e.Dst, p.Assign[e.Src]}} {
				v, to := try[0], try[1]
				from := p.Assign[v]
				sc, se, si := slices.Clone(cpu), slices.Clone(egress), slices.Clone(ingress)
				move(v, to)
				w := worst()
				if w < curW || (w == curW && cross < curX) {
					moved++
					improved = true
					break
				}
				cpu, egress, ingress, cross = sc, se, si, curX
				p.Assign[v] = from
			}
		}
		if !improved {
			break
		}
	}
	return moved, visits
}

// refineCase is one refinement input: a graph, a cluster, a starting
// placement and merge scores.
type refineCase struct {
	name  string
	g     *stream.Graph
	c     sim.Cluster
	p     *stream.Placement
	score []float64
}

// randomPlacement spreads g's nodes uniformly over the devices.
func randomPlacement(g *stream.Graph, devices int, rng *rand.Rand) *stream.Placement {
	p := stream.NewPlacement(g.NumNodes(), devices)
	for v := range p.Assign {
		p.Assign[v] = rng.Intn(devices)
	}
	return p
}

func randomScores(g *stream.Graph, rng *rand.Rand) []float64 {
	s := make([]float64, g.NumEdges())
	for i := range s {
		s[i] = rng.Float64()
	}
	return s
}

// hubContraction returns a 3,000-operator layered graph contracted to an
// eighth of its nodes along random scores: the contraction merges many
// edges into a few hub super-nodes, the shape a multilevel level refines.
func hubContraction() (*stream.Graph, sim.Cluster) {
	s := gen.Huge()
	cfg := s.Config
	cfg.MinNodes, cfg.MaxNodes = 3000, 3000
	g := gen.Generate(cfg, rand.New(rand.NewSource(5)))
	d := CoarsenToRanked(g, g.NumNodes()/8, randomScores(g, rand.New(rand.NewSource(6))))
	return stream.CoarseGraph(g, stream.CollapseEdges(g, d)), s.Cluster
}

// refineCases covers gen Medium and Large graphs, a heterogeneous cluster,
// a chain of equal loads (where a move's destination often lands exactly
// on the current worst utilization) and the hub contraction, each from a
// Metis placement and a random one.
func refineCases() []refineCase {
	rng := rand.New(rand.NewSource(7))
	var cases []refineCase
	add := func(name string, g *stream.Graph, c sim.Cluster) {
		metisP := placer.Metis{Seed: 1}.Place(g, c)
		cases = append(cases,
			refineCase{name + "/metis", g, c, metisP, randomScores(g, rng)},
			refineCase{name + "/random", g, c, randomPlacement(g, c.Devices, rng), randomScores(g, rng)})
	}
	for i, s := range []gen.Setting{gen.Medium(), gen.Large()} {
		for j := 0; j < 2; j++ {
			g := gen.Generate(s.Config, rand.New(rand.NewSource(int64(10*i+j))))
			add(fmt.Sprintf("%s-%d", s.Name, j), g, s.Cluster)
		}
	}
	hc := sim.DefaultCluster(6, 1500).Heterogeneous([]float64{500, 1000, 1000, 2000, 3000, 4500})
	hcfg := gen.DefaultConfig(400, 500, 10_000, hc)
	add("heterogeneous", gen.Generate(hcfg, rand.New(rand.NewSource(3))), hc)

	chain := stream.NewGraph(1000)
	for i := 0; i < 60; i++ {
		chain.AddNode(stream.Node{IPT: 1000, Payload: 10, Selectivity: 1})
		if i > 0 {
			chain.AddEdge(i-1, i, 10)
		}
	}
	add("equal-load-chain", chain, sim.DefaultCluster(4, 1e6))

	hg, c := hubContraction()
	add("hub-contraction", hg, c)
	return cases
}

func TestRefineBoundaryMatchesUnprunedReference(t *testing.T) {
	for _, tc := range refineCases() {
		for _, passes := range []int{1, 2, 4} {
			want := tc.p.Clone()
			wantMoved, _ := refineBoundaryRef(tc.g, tc.c, want, tc.score, passes)
			got := tc.p.Clone()
			gotMoved := refineBoundary(tc.g, tc.c, got, stream.RankEdges(tc.score), passes)
			if gotMoved != wantMoved {
				t.Fatalf("%s passes=%d: %d moves, reference %d", tc.name, passes, gotMoved, wantMoved)
			}
			if !slices.Equal(got.Assign, want.Assign) {
				t.Fatalf("%s passes=%d: placement differs from the unpruned reference", tc.name, passes)
			}
		}
	}
}

// TestRefineBoundaryEdgeVisitsBounded bounds the refinement work on the
// hub contraction, read from multilevel_refine_edge_visits_total, at eight
// walks of the edge set per pass. The unpruned loop walks a hub's edges on
// every trial of one of its cut edges: about 340 walks per pass here.
func TestRefineBoundaryEdgeVisitsBounded(t *testing.T) {
	g, c := hubContraction()
	passes := DefaultMultilevelConfig().RefinePasses
	bound := uint64(8 * passes * g.NumEdges())
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 8; i++ {
		p := randomPlacement(g, c.Devices, rng)
		if i == 0 {
			p = placer.Metis{Seed: 1}.Place(g, c)
		}
		score := randomScores(g, rng)
		_, unpruned := refineBoundaryRef(g, c, p.Clone(), score, passes)
		before := obsRefineEdgeVisits.Value()
		refineBoundary(g, c, p, stream.RankEdges(score), passes)
		visits := obsRefineEdgeVisits.Value() - before
		if visits > bound {
			t.Errorf("placement %d: %d edge visits, want ≤ %d (unpruned: %d)", i, visits, bound, unpruned)
		}
		if unpruned <= 10*bound {
			t.Errorf("placement %d: the unpruned loop walked only %d edges; the contraction no longer has heavy hubs", i, unpruned)
		}
	}
}
