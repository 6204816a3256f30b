package stream_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/stream"
)

// sameFloatBits reports the first index where got and want differ by
// Float64bits.
func sameFloatBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// sameCoarseGraph compares every numeric field of two coarse graphs and
// both demand overrides by Float64bits. Names are not compared:
// CoarseGraph leaves super-nodes unnamed and the reference names them.
func sameCoarseGraph(t *testing.T, label string, got, want *stream.Graph) {
	t.Helper()
	if math.Float64bits(got.SourceRate) != math.Float64bits(want.SourceRate) {
		t.Fatalf("%s: source rate %v, want %v", label, got.SourceRate, want.SourceRate)
	}
	if len(got.Nodes) != len(want.Nodes) || len(got.Edges) != len(want.Edges) {
		t.Fatalf("%s: %d nodes / %d edges, want %d / %d", label,
			len(got.Nodes), len(got.Edges), len(want.Nodes), len(want.Edges))
	}
	for i, w := range want.Nodes {
		n := got.Nodes[i]
		for _, f := range [][2]float64{{n.IPT, w.IPT}, {n.Selectivity, w.Selectivity}, {n.Payload, w.Payload}, {n.State, w.State}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Fatalf("%s: node %d = %+v, want %+v", label, i, n, w)
			}
		}
	}
	for i, w := range want.Edges {
		e := got.Edges[i]
		if e.Src != w.Src || e.Dst != w.Dst || math.Float64bits(e.Payload) != math.Float64bits(w.Payload) {
			t.Fatalf("%s: edge %d = %+v, want %+v", label, i, e, w)
		}
	}
	sameFloatBits(t, label+" load override", got.NodeLoad(), want.NodeLoad())
	sameFloatBits(t, label+" traffic override", got.EdgeTraffic(), want.EdgeTraffic())
}

// cycleDecision draws random decisions until one gives g a cyclic
// super-graph (collapsing one of two paths between a pair of nodes does);
// ok is false when 200 draws find none.
func cycleDecision(g *stream.Graph, rng *rand.Rand) (d []bool, ok bool) {
	for try := 0; try < 200; try++ {
		d = make([]bool, len(g.Edges))
		for i := range d {
			d[i] = rng.Float64() < 0.2
		}
		cg := stream.CoarseGraph(g, stream.CollapseEdges(g, d))
		if _, err := cg.TopoOrder(); err != nil {
			return d, true
		}
	}
	return nil, false
}

// TestCoarseGraphMatchesMapReference pins CoarseGraph — pre-sized slices
// and a two-pass counting sort in place of the map, sort.Ints and node
// names — to the map-based reference bit for bit, on generated graphs of
// every preset size under no, all, random and cycle-making collapse
// decisions, both on the graph itself and on its PinDemands view. It also
// pins PinDemands' loads and traffic to the graph's own.
func TestCoarseGraphMatchesMapReference(t *testing.T) {
	layered := gen.Huge().Config
	layered.MinNodes, layered.MaxNodes = 2000, 2000
	graphs := []struct {
		name string
		cfg  gen.Config
	}{
		{"small", gen.Small().Config},
		{"medium", gen.Medium().Config},
		{"large", gen.Large().Config},
		{"layered-2k", layered},
	}
	for gi, tc := range graphs {
		g := gen.Generate(tc.cfg, rand.New(rand.NewSource(int64(41+gi))))
		pinned := g.PinDemands()
		sameFloatBits(t, tc.name+" pinned load", pinned.NodeLoad(), g.NodeLoad())
		sameFloatBits(t, tc.name+" pinned traffic", pinned.EdgeTraffic(), g.EdgeTraffic())

		rng := rand.New(rand.NewSource(int64(7 + gi)))
		decisions := map[string][]bool{
			"none": make([]bool, g.NumEdges()),
			"all":  make([]bool, g.NumEdges()),
		}
		for i := range decisions["all"] {
			decisions["all"][i] = true
		}
		for _, p := range []float64{0.1, 0.3, 0.6, 0.9} {
			d := make([]bool, g.NumEdges())
			for i := range d {
				d[i] = rng.Float64() < p
			}
			decisions[fmt.Sprintf("random-%.1f", p)] = d
		}
		d, ok := cycleDecision(g, rng)
		if !ok {
			t.Fatalf("%s: no decision found whose super-graph has a cycle", tc.name)
		}
		decisions["cycle"] = d
		for name, d := range decisions {
			label := tc.name + "/" + name
			cm := stream.CollapseEdges(g, d)
			want := stream.CoarseGraphMapReference(g, cm)
			got := stream.CoarseGraph(g, cm)
			sameCoarseGraph(t, label, got, want)
			sameCoarseGraph(t, label+" pinned", stream.CoarseGraph(pinned, cm), want)
			if got.PinDemands() != got {
				t.Fatalf("%s: PinDemands copied a coarse graph whose demands are already fixed", label)
			}
		}
	}
}
