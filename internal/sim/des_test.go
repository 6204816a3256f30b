package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/stream"
)

func desChain(n int, rate, ipt, payload float64) *stream.Graph {
	g := stream.NewGraph(rate)
	for i := 0; i < n; i++ {
		g.AddNode(stream.Node{IPT: ipt, Payload: payload})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 0)
	}
	return g
}

func TestDESUnconstrainedReachesFullRate(t *testing.T) {
	g := desChain(3, 100, 10, 10)
	p := stream.NewPlacement(3, 2)
	res, err := SimulateDES(g, p, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if res.Relative < 0.95 {
		t.Fatalf("relative = %g, want ~1", res.Relative)
	}
}

func TestDESCPUBottleneck(t *testing.T) {
	// Demand 2× capacity on one device → relative ≈ 0.5.
	g := desChain(2, 1000, 1000, 1)
	p := stream.NewPlacement(2, 2)
	res, err := SimulateDES(g, p, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Relative-0.5) > 0.08 {
		t.Fatalf("relative = %g, want ≈0.5", res.Relative)
	}
}

func TestDESNetworkBottleneck(t *testing.T) {
	// Cross-device edge carrying 2× bandwidth → relative ≈ 0.5.
	g := desChain(2, 1000, 1, 2000)
	p := stream.NewPlacement(2, 2)
	p.Assign[1] = 1
	res, err := SimulateDES(g, p, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Relative-0.5) > 0.08 {
		t.Fatalf("relative = %g, want ≈0.5", res.Relative)
	}
}

func TestDESBackpressurePropagatesToSource(t *testing.T) {
	// Slow middle operator: queue fills, source ingestion throttles, and
	// the measured sink rate settles at the bottleneck rate.
	g := stream.NewGraph(1000)
	g.AddNode(stream.Node{IPT: 1, Payload: 1})
	g.AddNode(stream.Node{IPT: 4000, Payload: 1}) // can do 250 tuples/s on 1e6 instr/s
	g.AddNode(stream.Node{IPT: 1, Payload: 1})
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	p := stream.NewPlacement(3, 2)
	res, err := SimulateDES(g, p, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Relative-0.25) > 0.05 {
		t.Fatalf("relative = %g, want ≈0.25", res.Relative)
	}
}

func TestDESAgreesWithFluidOnSimpleCases(t *testing.T) {
	cases := []struct {
		name string
		g    *stream.Graph
		p    func() *stream.Placement
	}{
		{"light-chain", desChain(4, 100, 10, 10), func() *stream.Placement { return stream.NewPlacement(4, 2) }},
		{"cpu-bound", desChain(4, 1000, 600, 1), func() *stream.Placement {
			p := stream.NewPlacement(4, 2)
			p.Assign = []int{0, 0, 1, 1}
			return p
		}},
	}
	for _, tc := range cases {
		p := tc.p()
		fluid, err := Simulate(tc.g, p, smallCluster())
		if err != nil {
			t.Fatal(err)
		}
		des, err := SimulateDES(tc.g, p, smallCluster())
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fluid.Relative-des.Relative) > 0.1 {
			t.Fatalf("%s: fluid %.3f vs DES %.3f", tc.name, fluid.Relative, des.Relative)
		}
	}
}

// TestDESRankAgreesWithFluid checks the property the RL reward relies on:
// the fluid solver ranks random placements in (nearly) the same order as
// the discrete-event solver, just as CEPSim preserved the ranks of a real
// platform in [9].
func TestDESRankAgreesWithFluid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := stream.NewGraph(1000)
	for i := 0; i < 12; i++ {
		g.AddNode(stream.Node{IPT: 100 + rng.Float64()*400, Payload: 100 + rng.Float64()*800})
	}
	for i := 1; i < 12; i++ {
		g.AddEdge(rng.Intn(i), i, 0)
	}
	c := Cluster{Devices: 3, MIPS: 1, Bandwidth: 8e5, Links: NIC}

	type pair struct{ fluid, des float64 }
	var pairs []pair
	for trial := 0; trial < 8; trial++ {
		p := stream.NewPlacement(12, 3)
		for v := range p.Assign {
			p.Assign[v] = rng.Intn(3)
		}
		f, err := Simulate(g, p, c)
		if err != nil {
			t.Fatal(err)
		}
		d, err := SimulateDES(g, p, c)
		if err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{f.Relative, d.Relative})
	}
	// Kendall-tau-style concordance: most pairs must agree in order.
	concordant, total := 0, 0
	for i := 0; i < len(pairs); i++ {
		for j := i + 1; j < len(pairs); j++ {
			df := pairs[i].fluid - pairs[j].fluid
			dd := pairs[i].des - pairs[j].des
			if math.Abs(df) < 0.02 || math.Abs(dd) < 0.02 {
				continue // ties carry no rank information
			}
			total++
			if df*dd > 0 {
				concordant++
			}
		}
	}
	if total == 0 {
		t.Skip("no discriminating pairs")
	}
	if frac := float64(concordant) / float64(total); frac < 0.7 {
		t.Fatalf("rank concordance %.2f (%d/%d)", frac, concordant, total)
	}
}

func TestDESRejectsCyclicAndInvalid(t *testing.T) {
	g := desChain(3, 100, 1, 1)
	g.AddEdge(2, 0, 1)
	p := stream.NewPlacement(3, 2)
	if _, err := SimulateDES(g, p, smallCluster()); err == nil {
		t.Fatal("cyclic graph accepted")
	}
	g2 := desChain(2, 100, 1, 1)
	if _, err := SimulateDES(g2, stream.NewPlacement(2, 5), smallCluster()); err == nil {
		t.Fatal("oversized placement accepted")
	}
}

func TestDESDeterministic(t *testing.T) {
	g := desChain(5, 500, 300, 200)
	p := stream.NewPlacement(5, 2)
	p.Assign = []int{0, 0, 1, 1, 0}
	r1, err := SimulateDES(g, p, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := SimulateDES(g, p, smallCluster())
	if r1.Relative != r2.Relative {
		t.Fatal("DES nondeterministic")
	}
}

func TestDESFanOutBroadcast(t *testing.T) {
	// One source broadcasting to three sinks: each sink's ideal input is
	// the full source rate; unconstrained run must reach ~1.
	g := stream.NewGraph(200)
	g.AddNode(stream.Node{IPT: 1, Payload: 10})
	for i := 0; i < 3; i++ {
		s := g.AddNode(stream.Node{IPT: 1, Payload: 1})
		g.AddEdge(0, s, 0)
	}
	p := stream.NewPlacement(4, 2)
	res, err := SimulateDES(g, p, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if res.Relative < 0.95 {
		t.Fatalf("broadcast relative %g", res.Relative)
	}
}

var _ = sort.Ints // reserved for future ordering assertions
