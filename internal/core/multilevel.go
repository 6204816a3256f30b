// multilevel.go is the recursive multilevel allocation driver: instead of
// coarsening a huge graph straight to device scale with one forward pass
// (one ranking over a million edges deciding everything), the graph is
// coarsened a bounded factor per level — each level scored by a fresh
// forward pass on that level's graph — until the coarsest graph is small
// enough for the ranking-sweep pipeline, and the placement is projected
// back up level by level with a model-score-guided boundary refinement at
// every level. This is the classic multilevel scheme Metis uses, with the
// learned merge probability as both the matching heuristic and the
// refinement ordering (ROADMAP: million-node graphs, sparse end-to-end).
package core

import (
	"math"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

// obsRefineEdgeVisits counts the incident edges refineBoundary walks while
// applying trial moves, added once per call: the work measure of the
// refinement, independent of wall-clock noise.
var obsRefineEdgeVisits = obs.Default.Counter("multilevel_refine_edge_visits_total")

// MultilevelConfig bounds the recursion.
type MultilevelConfig struct {
	// LeafSize is the largest graph handed directly to the ranking-sweep
	// pipeline; bigger graphs recurse through a coarsening level first.
	LeafSize int
	// CoarsenFactor is the per-level node-count reduction (Metis uses a
	// small constant per level for the same reason: each level's scores
	// only ever commit a bounded fraction of the final coarsening).
	CoarsenFactor int
	// RefinePasses caps boundary-refinement sweeps per level (0 disables
	// refinement).
	RefinePasses int
}

// DefaultMultilevelConfig returns the tuning used by coarsenrl -multilevel.
func DefaultMultilevelConfig() MultilevelConfig {
	return MultilevelConfig{LeafSize: 600, CoarsenFactor: 8, RefinePasses: 2}
}

func (c MultilevelConfig) withDefaults() MultilevelConfig {
	d := DefaultMultilevelConfig()
	if c.LeafSize <= 0 {
		c.LeafSize = d.LeafSize
	}
	if c.CoarsenFactor < 2 {
		c.CoarsenFactor = d.CoarsenFactor
	}
	if c.RefinePasses < 0 {
		c.RefinePasses = 0
	}
	return c
}

// AllocateMultilevel allocates g through the recursive multilevel scheme.
// Deterministic for a fixed model and graph: scores break ties by edge id,
// refinement accepts strict lexicographic improvements only.
func (pl *Pipeline) AllocateMultilevel(g *stream.Graph, c sim.Cluster, cfg MultilevelConfig) Allocation {
	cfg = cfg.withDefaults()
	// The features, the level's coarse graph and its refinement all read
	// g's demands; every level below is a coarse graph, pinned already.
	g = g.PinDemands()
	if g.NumNodes() <= cfg.LeafSize {
		return pl.Allocate(g, c)
	}

	probs := pl.Model.Probs(g, c)
	target := g.NumNodes() / cfg.CoarsenFactor
	if target < cfg.LeafSize {
		target = cfg.LeafSize
	}
	// One ranking serves the level's collapse walk and its refinement.
	order := stream.RankEdges(probs)
	cm := collapseTo(g, target, order).Map()
	if cm.NumSuper >= g.NumNodes() {
		// No edge could collapse (e.g. an edgeless graph): recursing would
		// not terminate, so fall through to the flat pipeline.
		return pl.Allocate(g, c)
	}
	cg := stream.CoarseGraph(g, cm)

	coarse := pl.AllocateMultilevel(cg, c, cfg)
	p := stream.ExpandPlacement(cm, coarse.Placement)
	refineBoundary(g, c, p, order, cfg.RefinePasses)
	return Allocation{Placement: p, Coarse: cm, CoarseGraph: cg}
}

// refineBoundary sweeps the cut edges of p in the level's ranking order —
// highest merge score first, edge id breaking ties — and greedily moves
// one endpoint onto the other's device whenever that strictly improves
// (worst device utilization, total cross traffic) lexicographically. The
// score ordering makes the model's opinion the refinement priority: edges
// it most wanted merged are pulled onto one device first. Device loads are
// maintained incrementally, never re-simulated.
//
// A trial costs O(devices) when its destination's CPU quotient after the
// move, (cpu[to]+load[v])/capacity, already exceeds the current worst
// utilization: worst() would compute that same quotient, so the move could
// only be rejected, and it is skipped before any tally changes. Any other
// trial applies the move, O(deg(v)), and a rejected one restores the saved
// tallies rather than replaying the inverse move, so skipped and rejected
// trials leave identical state and no rounding residue. A pass is therefore
// O(cut·devices + Σ deg(v)) over the trials that pass the pre-check. That
// bounds contraction hubs, whose load rarely fits under the current worst,
// but a high-degree super-node light enough to fit on every device still
// walks its edges on each trial: O(cut·deg) per pass.
func refineBoundary(g *stream.Graph, c sim.Cluster, p *stream.Placement, order []int32, passes int) int {
	if passes <= 0 || g.NumEdges() == 0 {
		return 0
	}
	load := g.NodeLoad()
	traffic := g.EdgeTraffic()
	adj := g.Adjacency()

	// One backing array for the per-device tallies, so a trial saves and
	// restores them with one copy each.
	d := p.Devices
	tallies, saved := make([]float64, 3*d), make([]float64, 3*d)
	cpu, egress, ingress := tallies[:d], tallies[d:2*d], tallies[2*d:]
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
	// move relocates v to device `to`, updating the incremental tallies.
	var visits uint64
	move := func(v, to int) {
		from := p.Assign[v]
		cpu[from] -= load[v]
		cpu[to] += load[v]
		out, in := adj.Out(v), adj.In(v)
		visits += uint64(len(out) + len(in))
		for _, ei := range out {
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
		for _, ei := range in {
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

	// Cut edges in ranking order, computed once: an edge that stops being
	// cut mid-pass is skipped by the dev check when its turn comes.
	cut := make([]int32, 0, len(order))
	for _, ei := range order {
		if e := g.Edges[ei]; p.Assign[e.Src] != p.Assign[e.Dst] {
			cut = append(cut, ei)
		}
	}

	moved := 0
	for pass := 0; pass < passes; pass++ {
		improved := false
		for _, ei := range cut {
			e := g.Edges[ei]
			if p.Assign[e.Src] == p.Assign[e.Dst] {
				continue
			}
			curW, curX := worst(), cross
			// Try pulling either endpoint across; keep the first strict
			// lexicographic win, revert otherwise.
			for _, try := range [2][2]int{{e.Src, p.Assign[e.Dst]}, {e.Dst, p.Assign[e.Src]}} {
				v, to := try[0], try[1]
				if (cpu[to]+load[v])/c.CapacityOf(to) > curW {
					continue // worst() after the move would exceed curW
				}
				from := p.Assign[v]
				copy(saved, tallies)
				move(v, to)
				w := worst()
				if w < curW || (w == curW && cross < curX) {
					moved++
					improved = true
					break
				}
				copy(tallies, saved) // exact revert, no inverse-move residue
				cross = curX
				p.Assign[v] = from
			}
		}
		if !improved {
			break
		}
	}
	obsRefineEdgeVisits.Add(visits)
	return moved
}
