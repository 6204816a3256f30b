// Package metis implements a multilevel graph partitioner with the same
// algorithmic skeleton as Metis [16]: heavy-edge-matching coarsening, a
// greedy initial partition of the coarsest graph, and
// Fiduccia–Mattheyses-style boundary refinement during uncoarsening, under
// a balance constraint. It is used both as the strongest non-learned
// baseline in the paper's evaluation and as the partitioning stage of the
// coarsening–partitioning framework.
//
// Node weights are operator CPU loads (instructions/second) and edge
// weights are steady-state traffic (bits/second), so minimizing the edge
// cut subject to balance directly targets the two simulator bottlenecks.
package metis

import (
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Partitioner work counters (observation only; MetisPartition is in the
// bench gate, so the cost is one atomic add per call plus one per refine
// pass — noise next to the multilevel pipeline itself).
var (
	obsPartitions   = obs.Default.Counter("metis_partitions_total")
	obsRefinePasses = obs.Default.Counter("metis_refine_passes_total")
)

// Options tunes the partitioner.
type Options struct {
	// Parts is the number of partitions (devices) to produce.
	Parts int
	// Imbalance is the allowed fractional overload per part (Metis default
	// ~0.03; we default to 0.05).
	Imbalance float64
	// CoarsenTo stops coarsening once the graph has at most this many
	// nodes; 0 selects max(15×Parts, 30).
	CoarsenTo int
	// RefinePasses bounds FM passes per level; 0 selects 8.
	RefinePasses int
	// Seed drives the randomized matching and refinement orders.
	Seed int64
	// TargetFractions optionally sets each part's share of the total node
	// weight (heterogeneous devices); nil means uniform shares. Must sum
	// to ~1 and have length Parts.
	TargetFractions []float64
}

// targetFraction returns part p's share of the total weight.
func (o Options) targetFraction(p int) float64 {
	if o.TargetFractions != nil {
		return o.TargetFractions[p]
	}
	return 1 / float64(o.Parts)
}

func (o Options) withDefaults() Options {
	if o.Imbalance <= 0 {
		o.Imbalance = 0.05
	}
	if o.CoarsenTo <= 0 {
		o.CoarsenTo = 15 * o.Parts
		if o.CoarsenTo < 30 {
			o.CoarsenTo = 30
		}
	}
	if o.RefinePasses <= 0 {
		o.RefinePasses = 8
	}
	return o
}

// wgraph is an undirected weighted graph in compressed sparse row form:
// node v's neighbors are nbr[off[v]:off[v+1]] (ascending ids) with edge
// weights in the parallel w slice. Parallel edges are merged and
// self-loops dropped at construction. CSR replaces the earlier
// map-per-node adjacency: it allocates four slices per graph instead of
// one map per node (the dominant allocation source of the whole
// coarsen→partition pipeline) and makes every neighbor iteration
// deterministic, so matching and refinement no longer depend on map
// iteration order.
type wgraph struct {
	nw  []float64
	off []int32 // len n+1; node v's adjacency is [off[v], off[v+1])
	nbr []int32
	w   []float64
}

func (g *wgraph) n() int { return len(g.nw) }

func (g *wgraph) totalWeight() float64 {
	var s float64
	for _, w := range g.nw {
		s += w
	}
	return s
}

// buildWGraph assembles a CSR wgraph from undirected edge triples
// (eu[i], ev[i], ew[i]). Self-loops are dropped and parallel edges
// merged, their weights summed in input order; each node's neighbor list
// ends up sorted ascending. The input slices are not retained (nw is).
//
// Edge i yields two half-edges, 2i (owner eu[i], neighbor ev[i]) and
// 2i+1 (owner ev[i], neighbor eu[i]). Two stable counting sorts, by
// neighbor and then by owner, leave each owner's run ordered by neighbor
// with ties in input order — the order a per-node stable sort gives — in
// O(n+E), also for a hub whose edges arrive in descending order.
func buildWGraph(nw []float64, eu, ev []int32, ew []float64) *wgraph {
	n := len(nw)
	// A node owns as many half-edges as it is the neighbor of, so one
	// degree count, prefix-summed, gives the bucket starts of both sorts.
	off := make([]int32, n+1)
	for i := range eu {
		if eu[i] != ev[i] {
			off[eu[i]+1]++
			off[ev[i]+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	total := off[n]
	sp := scratchPool.Get().(*[]int32)
	if cap(*sp) < n+int(total) {
		*sp = make([]int32, n+int(total))
	}
	cur, byNbr := (*sp)[:n], (*sp)[n:n+int(total)]
	copy(cur, off)
	for i := range eu {
		u, v := eu[i], ev[i]
		if u == v {
			continue
		}
		byNbr[cur[v]] = int32(2 * i)
		cur[v]++
		byNbr[cur[u]] = int32(2*i + 1)
		cur[u]++
	}
	copy(cur, off)
	nbr := make([]int32, total)
	w := make([]float64, total)
	for x := int32(0); x < int32(n); x++ {
		for _, h := range byNbr[off[x]:off[x+1]] {
			i := h >> 1
			o := eu[i]
			if h&1 != 0 {
				o = ev[i]
			}
			nbr[cur[o]], w[cur[o]] = x, ew[i]
			cur[o]++
		}
	}
	scratchPool.Put(sp)
	// Merge parallel edges, now adjacent, and turn the bucket starts into
	// the merged offsets, both in place: the write cursor wp never passes
	// the read cursor, and off[v+1] is read before it is rewritten.
	var wp int32
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		off[v] = wp
		for i := lo; i < hi; i++ {
			if wp > off[v] && nbr[wp-1] == nbr[i] {
				w[wp-1] += w[i]
			} else {
				nbr[wp], w[wp] = nbr[i], w[i]
				wp++
			}
		}
	}
	off[n] = wp
	return &wgraph{nw: nw, off: off, nbr: nbr[:wp], w: w[:wp]}
}

// scratchPool recycles buildWGraph's int32 work space, the bucket
// cursors and the neighbor-sorted half-edge ids, which no call keeps.
var scratchPool = sync.Pool{New: func() any { return new([]int32) }}

// fromStream converts a stream graph into the undirected weighted form.
func fromStream(g *stream.Graph) *wgraph {
	n := g.NumNodes()
	nw := make([]float64, n)
	copy(nw, g.NodeLoad())
	traffic := g.EdgeTraffic()
	eu := make([]int32, len(g.Edges))
	ev := make([]int32, len(g.Edges))
	for ei, e := range g.Edges {
		eu[ei], ev[ei] = int32(e.Src), int32(e.Dst)
	}
	return buildWGraph(nw, eu, ev, traffic)
}

// Partition assigns each operator of g to one of opts.Parts devices.
func Partition(g *stream.Graph, opts Options) *stream.Placement {
	obsPartitions.Inc()
	opts = opts.withDefaults()
	wg := fromStream(g)
	part := partitionWGraph(wg, opts)
	p := stream.NewPlacement(g.NumNodes(), opts.Parts)
	copy(p.Assign, part)
	return p
}

// partitionWGraph runs the full multilevel pipeline on a weighted graph.
func partitionWGraph(wg *wgraph, opts Options) []int {
	rng := rand.New(rand.NewSource(opts.Seed))
	if opts.Parts <= 1 {
		return make([]int, wg.n())
	}
	// Coarsening phase.
	type level struct {
		g    *wgraph
		map_ []int // fine node → coarse node (nil at the coarsest level)
	}
	levels := []level{{g: wg}}
	cur := wg
	// A level that removes fewer than 1 in stallDiv nodes is kept but ends
	// coarsening, as in reference METIS. Heavy-edge matching shrinks a
	// star by one node per level, so coarsening one down to CoarsenTo
	// would take O(n) levels, each of them refined.
	const stallDiv = 20
	for cur.n() > opts.CoarsenTo {
		coarse, m := heavyEdgeMatch(cur, rng)
		if coarse.n() >= cur.n() { // no progress; stop
			break
		}
		levels[len(levels)-1].map_ = m
		levels = append(levels, level{g: coarse})
		stalled := stallDiv*(cur.n()-coarse.n()) < cur.n()
		cur = coarse
		if stalled {
			break
		}
	}
	// Initial partition of the coarsest graph.
	part := initialPartition(cur, opts, rng)
	refine(cur, part, opts, rng)
	// Uncoarsening with refinement.
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		finePart := make([]int, fine.g.n())
		for v := range finePart {
			finePart[v] = part[fine.map_[v]]
		}
		part = finePart
		refine(fine.g, part, opts, rng)
	}
	return part
}

// heavyEdgeMatch performs one round of randomized heavy-edge matching and
// returns the coarse graph plus the fine→coarse map.
func heavyEdgeMatch(g *wgraph, rng *rand.Rand) (*wgraph, []int) {
	n := g.n()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best, bestW := -1, -1.0
		for i := g.off[v]; i < g.off[v+1]; i++ {
			if u := int(g.nbr[i]); match[u] == -1 && g.w[i] > bestW {
				best, bestW = u, g.w[i]
			}
		}
		if best == -1 {
			match[v] = v
		} else {
			match[v] = best
			match[best] = v
		}
	}
	// Number the coarse nodes.
	cmap := make([]int, n)
	for i := range cmap {
		cmap[i] = -1
	}
	next := 0
	for v := 0; v < n; v++ {
		if cmap[v] != -1 {
			continue
		}
		cmap[v] = next
		if match[v] != v {
			cmap[match[v]] = next
		}
		next++
	}
	cnw := make([]float64, next)
	for v := 0; v < n; v++ {
		cnw[cmap[v]] += g.nw[v]
	}
	eu := make([]int32, 0, len(g.nbr)/2)
	ev := make([]int32, 0, len(g.nbr)/2)
	ew := make([]float64, 0, len(g.nbr)/2)
	for v := 0; v < n; v++ {
		for i := g.off[v]; i < g.off[v+1]; i++ {
			if u := int(g.nbr[i]); v < u { // each undirected edge once
				cu, cv := cmap[v], cmap[u]
				if cu != cv {
					eu = append(eu, int32(cu))
					ev = append(ev, int32(cv))
					ew = append(ew, g.w[i])
				}
			}
		}
	}
	return buildWGraph(cnw, eu, ev, ew), cmap
}

// initialPartition greedily assigns the coarsest nodes: heaviest first,
// each to the part minimizing (load, then cut increase).
func initialPartition(g *wgraph, opts Options, rng *rand.Rand) []int {
	n := g.n()
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.nw[order[a]] > g.nw[order[b]] })
	loads := make([]float64, opts.Parts)
	gain := make([]float64, opts.Parts) // reused across nodes
	for _, v := range order {
		// Connectivity gain toward each part.
		for p := range gain {
			gain[p] = 0
		}
		for i := g.off[v]; i < g.off[v+1]; i++ {
			if pu := part[g.nbr[i]]; pu >= 0 {
				gain[pu] += g.w[i]
			}
		}
		best, bestScore := 0, math.Inf(-1)
		for p := 0; p < opts.Parts; p++ {
			// Prefer low *relative* load (normalized by the part's target
			// share, which handles heterogeneous devices), break ties by
			// connectivity.
			score := gain[p] - loads[p]/opts.targetFraction(p)/float64(opts.Parts)
			if score > bestScore {
				best, bestScore = p, score
			}
		}
		_ = rng
		part[v] = best
		loads[best] += g.nw[v]
	}
	return part
}

// refine runs FM-style boundary passes: move a node to the part with the
// highest positive cut gain that keeps balance.
func refine(g *wgraph, part []int, opts Options, rng *rand.Rand) {
	n := g.n()
	total := g.totalWeight()
	maxLoad := make([]float64, opts.Parts)
	for p := 0; p < opts.Parts; p++ {
		maxLoad[p] = (1 + opts.Imbalance) * total * opts.targetFraction(p)
	}
	loads := make([]float64, opts.Parts)
	for v := 0; v < n; v++ {
		loads[part[v]] += g.nw[v]
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	conn := make([]float64, opts.Parts) // reused across nodes
	for pass := 0; pass < opts.RefinePasses; pass++ {
		obsRefinePasses.Inc()
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		improved := false
		for _, v := range order {
			from := part[v]
			// Connectivity of v toward each part (dense reusable buffer;
			// zero entries yield gain ≤ 0 and so never win the strict
			// comparison below, matching the old sparse behavior).
			for p := range conn {
				conn[p] = 0
			}
			for i := g.off[v]; i < g.off[v+1]; i++ {
				conn[part[g.nbr[i]]] += g.w[i]
			}
			bestPart, bestGain := from, 0.0
			for p := 0; p < opts.Parts; p++ {
				if p == from {
					continue
				}
				gain := conn[p] - conn[from]
				if gain > bestGain && loads[p]+g.nw[v] <= maxLoad[p] {
					bestPart, bestGain = p, gain
				}
			}
			// Balance-driven move: if v's part is overloaded, allow a
			// zero-gain move to the relatively lightest feasible part.
			if bestPart == from && loads[from] > maxLoad[from] {
				light := from
				rel := func(p int) float64 { return loads[p] / opts.targetFraction(p) }
				for p := 0; p < opts.Parts; p++ {
					if rel(p) < rel(light) {
						light = p
					}
				}
				if light != from {
					bestPart = light
				}
			}
			if bestPart != from {
				loads[from] -= g.nw[v]
				loads[bestPart] += g.nw[v]
				part[v] = bestPart
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// Cut returns the total weight of edges crossing parts under the placement.
func Cut(g *stream.Graph, p *stream.Placement) float64 {
	traffic := g.EdgeTraffic()
	var cut float64
	for ei, e := range g.Edges {
		if p.Assign[e.Src] != p.Assign[e.Dst] {
			cut += traffic[ei]
		}
	}
	return cut
}

// Oracle sweeps the number of parts from 1 to cluster.Devices, partitions
// for each, simulates, and returns the best placement with its part count
// (the paper's Metis-Oracle baseline for the excess-device setting).
func Oracle(g *stream.Graph, cluster sim.Cluster, seed int64) (*stream.Placement, int) {
	var best *stream.Placement
	bestK := 1
	bestR := -1.0
	for k := 1; k <= cluster.Devices; k++ {
		p := Partition(g, Options{Parts: k, Seed: seed})
		p.Devices = cluster.Devices // placement lives in the full cluster
		r := sim.Reward(g, p, cluster)
		if r > bestR {
			best, bestK, bestR = p, k, r
		}
	}
	return best, bestK
}

// InferCollapsedEdges converts a partition into edge-collapse decisions via
// the paper's maximum-spanning-tree construction (§IV-C): one collapse walk
// over the intra-part edges in descending traffic (Kruskal's order) marks
// the maximum spanning forest of every part collapsed, so collapsing
// exactly reproduces the part's connected components as super-nodes.
func InferCollapsedEdges(g *stream.Graph, p *stream.Placement) []bool {
	walk := stream.NewCollapser(g)
	for _, ei := range stream.RankEdges(g.EdgeTraffic()) {
		if e := g.Edges[ei]; p.Assign[e.Src] == p.Assign[e.Dst] {
			walk.Collapse(int(ei))
		}
	}
	return walk.Decision()
}

// CoarsenHEM exposes Metis's own coarsening step on a stream graph: it
// repeatedly applies heavy-edge matching until the graph has at most
// target nodes, and returns the resulting coarse map. Used for the Fig. 9
// comparison of Metis coarsening vs the learned model.
func CoarsenHEM(g *stream.Graph, target int, seed int64) *stream.CoarseMap {
	rng := rand.New(rand.NewSource(seed))
	wg := fromStream(g)
	n := g.NumNodes()
	super := make([]int, n)
	for i := range super {
		super[i] = i
	}
	cur := wg
	for cur.n() > target {
		coarse, m := heavyEdgeMatch(cur, rng)
		if coarse.n() >= cur.n() {
			break
		}
		for v := 0; v < n; v++ {
			super[v] = m[super[v]]
		}
		cur = coarse
	}
	// Compact ids in first-seen order for determinism.
	remap := make(map[int]int)
	next := 0
	out := make([]int, n)
	for v, s := range super {
		id, ok := remap[s]
		if !ok {
			id = next
			next++
			remap[s] = id
		}
		out[v] = id
	}
	return &stream.CoarseMap{Super: out, NumSuper: next}
}
