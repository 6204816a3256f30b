// Package placer defines the partitioning-model abstraction used as the
// second stage of the coarsening–partitioning framework, plus the
// non-learned implementations: the Metis partitioner, the Metis oracle
// (device-count sweep), round-robin, and single-device placements. The
// learned Graph-enc-dec placer lives in internal/baselines and satisfies
// the same interface.
package placer

import (
	"repro/internal/metis"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Placer assigns every operator of a graph to a device in the cluster.
type Placer interface {
	// Place returns a placement with Devices == cluster.Devices.
	Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement
	// Name identifies the placer in experiment reports.
	Name() string
}

// Metis partitions into exactly cluster.Devices parts.
type Metis struct {
	Seed int64
}

// Place implements Placer.
func (m Metis) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	opts := metis.Options{Parts: cluster.Devices, Seed: m.Seed}
	if cluster.DeviceMIPS != nil {
		// Heterogeneous cluster: target part weights proportional to the
		// device capacities.
		total := cluster.TotalCapacity()
		fr := make([]float64, cluster.Devices)
		for d := 0; d < cluster.Devices; d++ {
			fr[d] = cluster.CapacityOf(d) / total
		}
		opts.TargetFractions = fr
	}
	p := metis.Partition(g, opts)
	p.Devices = cluster.Devices
	return p
}

// Name implements Placer.
func (Metis) Name() string { return "metis" }

// MetisOracle sweeps the part count 1..Devices and keeps the
// highest-throughput placement.
type MetisOracle struct {
	Seed int64
}

// Place implements Placer.
func (m MetisOracle) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	p, _ := metis.Oracle(g, cluster, m.Seed)
	return p
}

// Name implements Placer.
func (MetisOracle) Name() string { return "metis-oracle" }

// RoundRobin deals operators to devices in index order — a weak sanity
// baseline exercised by tests.
type RoundRobin struct{}

// Place implements Placer.
func (RoundRobin) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	p := stream.NewPlacement(g.NumNodes(), cluster.Devices)
	for v := range p.Assign {
		p.Assign[v] = v % cluster.Devices
	}
	return p
}

// Name implements Placer.
func (RoundRobin) Name() string { return "round-robin" }

// SingleDevice puts everything on device 0 — the no-communication extreme.
type SingleDevice struct{}

// Place implements Placer.
func (SingleDevice) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	return stream.NewPlacement(g.NumNodes(), cluster.Devices)
}

// Name implements Placer.
func (SingleDevice) Name() string { return "single-device" }
