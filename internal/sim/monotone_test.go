package sim_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Property: more resources never lower throughput. On small random
// graphs, doubling every device's MIPS and the bandwidth together; on
// generated graphs, under Metis and random placements and both link
// models, raising one device's DeviceMIPS, or the Bandwidth alone.
func TestQuickMonotoneInResources(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, p := sim.RandomGraphAndPlacement(rng, 3)
		c1 := sim.Cluster{Devices: 3, MIPS: 0.3, Bandwidth: 2e5, Links: sim.NIC}
		c2 := c1
		c2.MIPS *= 2
		c2.Bandwidth *= 2
		r1, err1 := sim.Simulate(g, p, c1)
		r2, err2 := sim.Simulate(g, p, c2)
		if err1 != nil || err2 != nil {
			return false
		}
		return r2.Relative >= r1.Relative-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	checks, bound := 0, 0
	for _, s := range []gen.Setting{gen.Small(), gen.Medium()} {
		s.TestN = 8
		ds := s.Generate()
		for gi, g := range ds.Test {
			metisP := metis.Partition(g, metis.Options{Parts: ds.Cluster.Devices, Seed: 1})
			metisP.Devices = ds.Cluster.Devices
			randomP := stream.NewPlacement(g.NumNodes(), ds.Cluster.Devices)
			for v := range randomP.Assign {
				randomP.Assign[v] = rng.Intn(ds.Cluster.Devices)
			}
			for _, p := range []*stream.Placement{metisP, randomP} {
				for _, links := range []sim.LinkModel{sim.NIC, sim.PairLink} {
					c := ds.Cluster
					c.Links = links
					base, err := sim.Simulate(g, p, c)
					if err != nil {
						t.Fatal(err)
					}
					if base.Relative < 1 {
						bound++
					}
					raised := make([]sim.Cluster, 0, c.Devices+1)
					for d := 0; d < c.Devices; d++ {
						mips := make([]float64, c.Devices)
						for i := range mips {
							mips[i] = c.CapacityOf(i) / 1e6
						}
						mips[d] *= 1 + rng.Float64()
						raised = append(raised, c.Heterogeneous(mips))
					}
					wide := c
					wide.Bandwidth *= 1 + rng.Float64()
					raised = append(raised, wide)
					for _, rc := range raised {
						r, err := sim.Simulate(g, p, rc)
						if err != nil {
							t.Fatal(err)
						}
						checks++
						if r.Relative < base.Relative-1e-12 {
							t.Errorf("%s graph %d, %v links: raising a resource lowered relative throughput %v → %v (cluster %+v)",
								s.Name, gi, links, base.Relative, r.Relative, rc)
						}
					}
				}
			}
		}
	}
	if bound == 0 {
		t.Fatalf("all %d checks started at full rate: no resource was binding", checks)
	}
}
