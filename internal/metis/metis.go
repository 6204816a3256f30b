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
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Partitioner work counters (observation only; MetisPartition is in the
// bench gate, so the cost is one atomic add per call, one per refine pass
// and one per refine call — noise next to the multilevel pipeline itself).
var (
	obsPartitions   = obs.Default.Counter("metis_partitions_total")
	obsRefinePasses = obs.Default.Counter("metis_refine_passes_total")
	// obsRefineEvals counts the node visits on which refine computed move
	// gains; visits to settled nodes (see refine) are not counted.
	obsRefineEvals = obs.Default.Counter("metis_refine_evals_total")
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
// map-per-node adjacency, the dominant allocation source of the whole
// coarsen→partition pipeline, and makes every neighbor iteration
// deterministic, so matching and refinement no longer depend on map
// iteration order. Every wgraph lives in a workspace level, whose slices
// the next call reuses.
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

// workspace holds every buffer one Partition or CoarsenHEM call works in,
// so that a warm call allocates only what it returns. levels[0] is the
// input graph and levels[i+1] the heavy-edge matching of levels[i]. The
// rest is scratch that one step at a time borrows: order is the
// matching's visit permutation, the initial partition's weight order and
// refine's visit order; eu, ev and ew hold the edge triples a level is
// built from; sortBuf holds the CSR build's cursors and half-edge ids;
// settled, loads, maxLoad and conn hold refine's per-node and per-part
// state (loads and conn also the initial partition's). Buffers only grow,
// so a pooled workspace soon fits every graph its callers hand it.
type workspace struct {
	rng                  *rand.Rand
	levels               []*level
	order, match         []int
	eu, ev               []int32
	ew                   []float64
	sortBuf              []int32
	settled              []bool
	loads, maxLoad, conn []float64
}

// level is one graph of the coarsening hierarchy with its fine→coarse map
// (stale at the coarsest level) and its partition (unused at level 0,
// whose partition is the caller's Placement).
type level struct {
	g    wgraph
	cmap []int
	part []int
}

// wsPool recycles workspaces across calls and goroutines. A workspace
// keeps its generator and reseeds it per call: Seed restarts the source
// exactly as rand.New(rand.NewSource(seed)) starts a fresh one.
var wsPool = sync.Pool{New: func() any { return &workspace{rng: rand.New(rand.NewSource(0))} }}

// grow sets *s to length n, reallocating only when its capacity is
// short, and returns it. The contents are unspecified.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// level returns hierarchy level i, adding empty levels as needed.
func (ws *workspace) level(i int) *level {
	for len(ws.levels) <= i {
		ws.levels = append(ws.levels, new(level))
	}
	return ws.levels[i]
}

// buildWGraph fills g's CSR from undirected edge triples (eu[i], ev[i],
// ew[i]); g.nw must already hold the node weights. Self-loops are dropped
// and parallel edges merged, their weights summed in input order; each
// node's neighbor list ends up sorted ascending. The triples are not
// retained.
//
// Edge i yields two half-edges, 2i (owner eu[i], neighbor ev[i]) and
// 2i+1 (owner ev[i], neighbor eu[i]). Two stable counting sorts, by
// neighbor and then by owner, leave each owner's run ordered by neighbor
// with ties in input order — the order a per-node stable sort gives — in
// O(n+E), also for a hub whose edges arrive in descending order.
func (ws *workspace) buildWGraph(g *wgraph, eu, ev []int32, ew []float64) {
	n := g.n()
	// A node owns as many half-edges as it is the neighbor of, so one
	// degree count, prefix-summed, gives the bucket starts of both sorts.
	off := grow(&g.off, n+1)
	clear(off)
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
	buf := grow(&ws.sortBuf, n+int(total))
	cur, byNbr := buf[:n], buf[n:]
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
	nbr, w := grow(&g.nbr, int(total)), grow(&g.w, int(total))
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
	g.nbr, g.w = nbr[:wp], w[:wp]
}

// load makes the undirected weighted form of g the hierarchy's level 0.
func (ws *workspace) load(g *stream.Graph) {
	lv := ws.level(0)
	copy(grow(&lv.g.nw, g.NumNodes()), g.NodeLoad())
	eu, ev := grow(&ws.eu, len(g.Edges)), grow(&ws.ev, len(g.Edges))
	for ei, e := range g.Edges {
		eu[ei], ev[ei] = int32(e.Src), int32(e.Dst)
	}
	ws.buildWGraph(&lv.g, eu, ev, g.EdgeTraffic())
}

// Partition assigns each operator of g to one of opts.Parts devices. Once
// a pooled workspace has grown to g's size, the returned Placement is all
// the call allocates, provided g's demands are fixed (a coarse graph or a
// PinDemands view); otherwise reading them allocates too.
func Partition(g *stream.Graph, opts Options) *stream.Placement {
	obsPartitions.Inc()
	opts = opts.withDefaults()
	p := stream.NewPlacement(g.NumNodes(), opts.Parts)
	if opts.Parts <= 1 {
		return p
	}
	ws := wsPool.Get().(*workspace)
	ws.load(g)
	ws.partition(opts, p.Assign)
	wsPool.Put(ws)
	return p
}

// partition runs the multilevel pipeline on level 0 and writes its
// partition into out: coarsen, partition the coarsest graph greedily, then
// project and refine level by level on the way back up.
func (ws *workspace) partition(opts Options, out []int) {
	ws.rng.Seed(opts.Seed)
	top := ws.coarsen(opts.CoarsenTo, true)
	part := ws.partBuf(top, out)
	ws.initialPartition(&ws.levels[top].g, part, opts)
	ws.refine(&ws.levels[top].g, part, opts)
	for li := top - 1; li >= 0; li-- {
		lv := ws.levels[li]
		fine := ws.partBuf(li, out)
		for v := range fine {
			fine[v] = part[lv.cmap[v]]
		}
		part = fine
		ws.refine(&lv.g, part, opts)
	}
}

// partBuf returns level i's partition buffer; level 0 partitions into out.
func (ws *workspace) partBuf(i int, out []int) []int {
	if i == 0 {
		return out
	}
	return grow(&ws.levels[i].part, ws.levels[i].g.n())
}

// coarsen builds levels 1, 2, … by heavy-edge matching until a level has
// at most `to` nodes or a round no longer shrinks the graph, and returns
// the coarsest level's index. With stall set it also stops after a level
// that removes fewer than 1 in stallDiv nodes; that level is kept, as in
// reference METIS. Heavy-edge matching shrinks a star by one node per
// level, so coarsening one down to `to` would take O(n) levels, each of
// them refined.
func (ws *workspace) coarsen(to int, stall bool) int {
	const stallDiv = 20
	top := 0
	for {
		fine := ws.levels[top]
		if fine.g.n() <= to {
			return top
		}
		coarse := ws.level(top + 1)
		ws.heavyEdgeMatch(fine, coarse)
		if coarse.g.n() >= fine.g.n() { // no progress; stop
			return top
		}
		top++
		if stall && stallDiv*(fine.g.n()-coarse.g.n()) < fine.g.n() {
			return top
		}
	}
}

// heavyEdgeMatch performs one round of randomized heavy-edge matching on
// fine's graph, fills fine's fine→coarse map and builds coarse's graph.
func (ws *workspace) heavyEdgeMatch(fine, coarse *level) {
	g := &fine.g
	n := g.n()
	match := grow(&ws.match, n)
	for i := range match {
		match[i] = -1
	}
	// rng.Perm(n), drawn by Perm's own Intn loop into a reused slice. Every
	// slot is written before it is read, so stale contents never leak in.
	order := grow(&ws.order, n)
	for i := range order {
		j := ws.rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
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
	// Number the coarse nodes in order of their first fine member.
	cmap := grow(&fine.cmap, n)
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
	cnw := grow(&coarse.g.nw, next)
	clear(cnw)
	for v := 0; v < n; v++ {
		cnw[cmap[v]] += g.nw[v]
	}
	eu, ev, ew := ws.eu[:0], ws.ev[:0], ws.ew[:0]
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
	ws.eu, ws.ev, ws.ew = eu, ev, ew
	ws.buildWGraph(&coarse.g, eu, ev, ew)
}

// initialPartition greedily assigns the coarsest nodes into part: heaviest
// first, each to the part minimizing (load, then cut increase).
func (ws *workspace) initialPartition(g *wgraph, part []int, opts Options) {
	n := g.n()
	for i := range part {
		part[i] = -1
	}
	order := grow(&ws.order, n)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(g.nw[b], g.nw[a]) })
	loads := grow(&ws.loads, opts.Parts)
	clear(loads)
	gain := grow(&ws.conn, opts.Parts) // reused across nodes
	for _, v := range order {
		// Connectivity gain toward each part.
		clear(gain)
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
		part[v] = best
		loads[best] += g.nw[v]
	}
}

// refine runs FM-style boundary passes: move a node to the part with the
// highest positive cut gain that keeps balance.
//
// A node is settled when its last visit found no part with a positive
// gain, feasible or not, and neither it nor any neighbor has moved since.
// Its connectivity toward each part sums the same edge weights over the
// same neighbor parts in the same order as on that visit, so every gain
// is bit for bit what that visit saw, and the scan would again find no
// move. A settled node skips the scan; only the overload check, which
// reads the part loads, runs. Moves are therefore those of the full scan,
// and the shuffle still runs every pass, so the random stream and the
// partition are unchanged.
func (ws *workspace) refine(g *wgraph, part []int, opts Options) {
	n := g.n()
	total := g.totalWeight()
	maxLoad := grow(&ws.maxLoad, opts.Parts)
	for p := range maxLoad {
		maxLoad[p] = (1 + opts.Imbalance) * total * opts.targetFraction(p)
	}
	loads := grow(&ws.loads, opts.Parts)
	clear(loads)
	for v := 0; v < n; v++ {
		loads[part[v]] += g.nw[v]
	}
	order := grow(&ws.order, n)
	for i := range order {
		order[i] = i
	}
	settled := grow(&ws.settled, n)
	clear(settled)
	conn := grow(&ws.conn, opts.Parts) // reused across nodes
	var evals uint64
	for pass := 0; pass < opts.RefinePasses; pass++ {
		obsRefinePasses.Inc()
		ws.rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		improved := false
		for _, v := range order {
			from := part[v]
			bestPart := from
			if !settled[v] {
				evals++
				// Connectivity of v toward each part (dense reusable
				// buffer; zero entries yield gain ≤ 0 and so never win).
				clear(conn)
				for i := g.off[v]; i < g.off[v+1]; i++ {
					conn[part[g.nbr[i]]] += g.w[i]
				}
				settled[v] = true
				bestGain := 0.0
				for p := 0; p < opts.Parts; p++ {
					if p == from {
						continue
					}
					if gain := conn[p] - conn[from]; gain > 0 {
						settled[v] = false
						if gain > bestGain && loads[p]+g.nw[v] <= maxLoad[p] {
							bestPart, bestGain = p, gain
						}
					}
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
				settled[v] = false
				for i := g.off[v]; i < g.off[v+1]; i++ {
					settled[g.nbr[i]] = false
				}
			}
		}
		if !improved {
			break
		}
	}
	obsRefineEvals.Add(evals)
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
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	ws.rng.Seed(seed)
	ws.load(g)
	top := ws.coarsen(target, false)
	super := make([]int, g.NumNodes())
	for v := range super {
		super[v] = v
	}
	for _, lv := range ws.levels[:top] {
		for v, s := range super {
			super[v] = lv.cmap[s]
		}
	}
	// Each level numbers its coarse nodes in order of their first fine
	// member, so the composed map numbers super-nodes in first-seen order.
	return &stream.CoarseMap{Super: super, NumSuper: ws.levels[top].g.n()}
}
