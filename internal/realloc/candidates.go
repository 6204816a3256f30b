// candidates.go generates migration candidates for a replan region: the
// region's operators are re-collapsed along the model's merge ranking at
// a few target granularities (the incremental analogue of the pipeline's
// ranking sweep), each grouping is greedily assigned to the available
// devices, and every candidate is scored under the drifted environment.
// Operators outside the region never move — that is what makes the tight
// escalation levels cheap in migration cost.
package realloc

import (
	"slices"
	"sort"

	"repro/internal/sim"
	"repro/internal/stream"
)

// candidate is one scored migration option.
type candidate struct {
	p        *stream.Placement
	rel      float64 // measured relative under the drifted environment
	moveCost float64
	moved    int
}

// candidates re-collapses the region at several granularities along the
// edge ranking order and scores each resulting placement under st. The
// returned order is deterministic.
func (l *Loop) candidates(region map[int]bool, st sim.DriftState, order []int32) []candidate {
	// Region operators, in index order for determinism.
	var nodes []int
	for v := 0; v < l.g.NumNodes(); v++ {
		if region[l.cur.Assign[v]] {
			nodes = append(nodes, v)
		}
	}
	if len(nodes) == 0 || st.NumUp(l.c.Devices) == 0 {
		return nil
	}
	inRegion := make([]bool, l.g.NumNodes())
	for _, v := range nodes {
		inRegion[v] = true
	}
	// One sweep along the pipeline's ranking, restricted to
	// region-internal edges, snapshotting the grouping at each region
	// target. Operators outside the region stay singletons, so the walk's
	// super-node count exceeds the region's by their number.
	outside := l.g.NumNodes() - len(nodes)
	targets := regionTargets(len(nodes), st.NumUp(l.c.Devices))
	for i := range targets {
		targets[i] += outside
	}
	keep := func(ei int) bool {
		e := l.g.Edges[ei]
		return inRegion[e.Src] && inRegion[e.Dst]
	}
	walk := stream.NewCollapser(l.g)
	loads := l.g.NodeLoad()
	var out []candidate
	walk.Sweep(order, targets, keep, func(int) {
		if p := l.assignRegion(nodes, inRegion, walk.Map(), loads, st); p != nil {
			out = append(out, l.score(p, st))
		}
	})
	return out
}

// regionTargets picks the super-node counts to snapshot: no collapse
// (pure reassignment), intermediate granularities, and down to the
// available device count — clamped to [1, nRegion], descending and
// deduplicated.
func regionTargets(nRegion, upDevices int) []int {
	targets := []int{nRegion, (3*nRegion + 3) / 4, (nRegion + 1) / 2, (nRegion + 3) / 4, 2 * upDevices, upDevices}
	for i, t := range targets {
		targets[i] = min(max(t, 1), nRegion)
	}
	slices.SortFunc(targets, func(a, b int) int { return b - a })
	return slices.Compact(targets)
}

// assignRegion greedily places the region's super-nodes onto the
// available devices: groups in descending load order go to the device
// with the lowest resulting CPU utilization, on top of the load the
// out-of-region operators already impose. Lost devices keep a vanishing
// capacity so they are never chosen. Ties break toward the lowest
// device index. Returns nil when no device can host.
func (l *Loop) assignRegion(nodes []int, inRegion []bool, cm *stream.CoarseMap, loads []float64, st sim.DriftState) *stream.Placement {
	// Group region nodes by super-node; nodes ascend, so each group's
	// first member is its smallest, which breaks load ties.
	type group struct {
		lead    int
		members []int
		load    float64
	}
	var groups []group
	at := make([]int, cm.NumSuper) // super-node → group index + 1
	for _, v := range nodes {
		s := cm.Super[v]
		if at[s] == 0 {
			groups = append(groups, group{lead: v})
			at[s] = len(groups)
		}
		gr := &groups[at[s]-1]
		gr.members = append(gr.members, v)
		gr.load += loads[v]
	}
	sort.Slice(groups, func(a, b int) bool {
		if groups[a].load != groups[b].load {
			return groups[a].load > groups[b].load
		}
		return groups[a].lead < groups[b].lead
	})

	dc := l.c.WithDrift(st)
	devLoad := make([]float64, l.c.Devices)
	for v := 0; v < l.g.NumNodes(); v++ {
		if !inRegion[v] {
			devLoad[l.cur.Assign[v]] += loads[v] * st.RateFactor
		}
	}
	p := l.cur.Clone()
	for _, gr := range groups {
		best, bestU := -1, 0.0
		for d := 0; d < l.c.Devices; d++ {
			if !st.Up(d) {
				continue
			}
			u := (devLoad[d] + gr.load*st.RateFactor) / dc.CapacityOf(d)
			if best == -1 || u < bestU {
				best, bestU = d, u
			}
		}
		if best == -1 {
			return nil
		}
		devLoad[best] += gr.load * st.RateFactor
		for _, v := range gr.members {
			p.Assign[v] = best
		}
	}
	return p
}

// score measures a candidate under the drifted environment and prices
// its migration.
func (l *Loop) score(p *stream.Placement, st sim.DriftState) candidate {
	res, err := sim.SimulateDrift(l.g, p, l.c, st)
	rel := 0.0
	if err == nil {
		rel = res.Relative
	}
	cost, moved := PlacementMoveCost(l.g, l.cur, p, migrationWindow)
	return candidate{p: p, rel: rel, moveCost: cost, moved: moved}
}
