package placer

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/stream"
)

func testGraph(seed int64) (*stream.Graph, sim.Cluster) {
	c := sim.DefaultCluster(5, 1000)
	cfg := gen.DefaultConfig(30, 60, 10_000, c)
	return gen.Generate(cfg, rand.New(rand.NewSource(seed))), c
}

func TestAllPlacersProduceValidPlacements(t *testing.T) {
	g, c := testGraph(1)
	for _, p := range []Placer{
		Metis{Seed: 1}, MetisOracle{Seed: 1}, RoundRobin{}, SingleDevice{},
	} {
		pl := p.Place(g, c)
		if err := pl.Validate(g); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if pl.Devices != c.Devices {
			t.Fatalf("%s: devices %d != %d", p.Name(), pl.Devices, c.Devices)
		}
	}
}

func TestPlacerNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []Placer{Metis{}, MetisOracle{}, RoundRobin{}, SingleDevice{}} {
		if seen[p.Name()] {
			t.Fatalf("duplicate name %q", p.Name())
		}
		seen[p.Name()] = true
	}
}

func TestSingleDeviceUsesOne(t *testing.T) {
	g, c := testGraph(2)
	pl := SingleDevice{}.Place(g, c)
	if pl.UsedDevices() != 1 {
		t.Fatal("single-device placer spread out")
	}
}

func TestRoundRobinSpreads(t *testing.T) {
	g, c := testGraph(3)
	pl := RoundRobin{}.Place(g, c)
	if pl.UsedDevices() != c.Devices {
		t.Fatalf("round robin used %d devices", pl.UsedDevices())
	}
}

func TestMetisOracleAtLeastAsGoodAsMetis(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g, c := testGraph(seed + 10)
		m := Metis{Seed: 1}.Place(g, c)
		o := MetisOracle{Seed: 1}.Place(g, c)
		if sim.Reward(g, o, c) < sim.Reward(g, m, c)-1e-12 {
			t.Fatalf("seed %d: oracle worse than fixed metis", seed)
		}
	}
}

func TestMetisBeatsSingleDeviceWhenCPUBound(t *testing.T) {
	// Build a CPU-heavy graph with negligible traffic.
	g := stream.NewGraph(1000)
	for i := 0; i < 10; i++ {
		g.AddNode(stream.Node{IPT: 5e5, Payload: 1})
	}
	for i := 0; i+1 < 10; i++ {
		g.AddEdge(i, i+1, 0)
	}
	c := sim.DefaultCluster(5, 1000)
	m := Metis{Seed: 1}.Place(g, c)
	s := SingleDevice{}.Place(g, c)
	if sim.Reward(g, m, c) <= sim.Reward(g, s, c) {
		t.Fatal("metis failed to exploit parallelism on a CPU-bound chain")
	}
}

func TestHillClimbNeverWorseThanMetis(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		g, c := testGraph(seed + 30)
		m := Metis{Seed: 1}.Place(g, c)
		hcl := HillClimb{Seed: 1, Restarts: 0, MaxPass: 5}.Place(g, c)
		if err := hcl.Validate(g); err != nil {
			t.Fatal(err)
		}
		if sim.Reward(g, hcl, c) < sim.Reward(g, m, c)-1e-12 {
			t.Fatalf("seed %d: hill-climb below its Metis start", seed)
		}
	}
}
