// Package stream defines the stream-processing graph model from the paper:
// a DAG whose nodes are operators characterized by CPU utilization
// (instructions per tuple × tuple rate / MIPS) and emitted payload, and
// whose directed edges carry tuples with a per-tuple payload, characterized
// by their data saturation rate (payload × rate / bandwidth).
//
// The package also provides placements (operator→device assignments),
// coarsening maps (operator→super-node assignments produced by edge
// collapsing), and the bookkeeping to build a coarsened graph and map a
// coarse placement back to the original operators.
package stream

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Node is one stream operator.
type Node struct {
	// IPT is the number of instructions required to process one tuple.
	IPT float64
	// Payload is the size in bits of each output tuple the operator emits.
	Payload float64
	// Selectivity is output tuples emitted per input tuple (1 by default).
	Selectivity float64
	// State is the size in bits of the operator's internal state (window
	// contents, join hash tables, …). Stateless operators keep 0. Moving a
	// stateful operator between devices costs its state plus the tuples in
	// flight toward it, which is what the re-allocation loop's move-cost
	// model charges.
	State float64
	// Name is an optional human-readable label (the application
	// templates set it; DOT renders it).
	Name string
}

// Edge is a directed operator connection u→v carrying u's output tuples.
type Edge struct {
	Src, Dst int
	// Payload is the size in bits of each tuple transmitted on this edge.
	// It normally equals the source node's Payload but is kept separately
	// because coarsening aggregates edge payloads between super-nodes.
	Payload float64
}

// Graph is a stream-processing DAG.
type Graph struct {
	Nodes []Node
	Edges []Edge
	// SourceRate is the tuple ingestion rate (tuples/second) at each source.
	SourceRate float64

	// Adjacency cache in CSR form, built lazily by ensureAdj: outAdj holds
	// edge indices grouped by source node (node v's out-edges are
	// outAdj[outOff[v]:outOff[v+1]], ascending edge id), inAdj the same
	// grouped by destination. One flat array per direction replaces the old
	// per-node slice-of-slices, so a million-node graph costs two offset
	// arrays and two edge-id arrays instead of 2N slice headers.
	outOff, inOff []int32
	outAdj, inAdj []int

	// loadOverride / trafficOverride, when non-nil, short-circuit
	// NodeLoad / EdgeTraffic. Coarse graphs set them because collapsing a
	// DAG's edges can create cycles in the super-graph, making rate
	// propagation undefined there; the aggregate demands are exact anyway.
	loadOverride    []float64
	trafficOverride []float64
}

// SetDemandOverrides fixes NodeLoad and EdgeTraffic to explicit values
// (instructions/s per node, bits/s per edge). Used by CoarseGraph.
func (g *Graph) SetDemandOverrides(load, traffic []float64) {
	if len(load) != len(g.Nodes) || len(traffic) != len(g.Edges) {
		panic("stream: override length mismatch")
	}
	g.loadOverride = load
	g.trafficOverride = traffic
}

// NewGraph returns an empty graph with the given source tuple rate.
func NewGraph(sourceRate float64) *Graph {
	return &Graph{SourceRate: sourceRate}
}

// AddNode appends a node and returns its index.
func (g *Graph) AddNode(n Node) int {
	if n.Selectivity == 0 {
		n.Selectivity = 1
	}
	g.Nodes = append(g.Nodes, n)
	g.invalidate()
	return len(g.Nodes) - 1
}

// AddEdge appends a directed edge and returns its index. The payload
// defaults to the source node's payload when zero.
func (g *Graph) AddEdge(src, dst int, payload float64) int {
	if src < 0 || src >= len(g.Nodes) || dst < 0 || dst >= len(g.Nodes) {
		panic(fmt.Sprintf("stream: edge (%d,%d) out of range, %d nodes", src, dst, len(g.Nodes)))
	}
	if payload == 0 {
		payload = g.Nodes[src].Payload
	}
	g.Edges = append(g.Edges, Edge{Src: src, Dst: dst, Payload: payload})
	g.invalidate()
	return len(g.Edges) - 1
}

func (g *Graph) invalidate() { g.outOff, g.inOff, g.outAdj, g.inAdj = nil, nil, nil, nil }

// ensureAdj builds both CSR incidence views with a counting sort over the
// edge list: two O(N+E) passes, no per-node append slices. Iterating edges
// in index order makes every per-node bucket ascend by edge id, which the
// tensor CSR segment kernels rely on for bit-identical accumulation order.
func (g *Graph) ensureAdj() {
	if g.outOff != nil {
		return
	}
	n, m := len(g.Nodes), len(g.Edges)
	outOff := make([]int32, n+1)
	inOff := make([]int32, n+1)
	for _, e := range g.Edges {
		outOff[e.Src+1]++
		inOff[e.Dst+1]++
	}
	for v := 0; v < n; v++ {
		outOff[v+1] += outOff[v]
		inOff[v+1] += inOff[v]
	}
	outAdj := make([]int, m)
	inAdj := make([]int, m)
	outCur := append([]int32(nil), outOff[:n]...)
	inCur := append([]int32(nil), inOff[:n]...)
	for ei, e := range g.Edges {
		outAdj[outCur[e.Src]] = ei
		outCur[e.Src]++
		inAdj[inCur[e.Dst]] = ei
		inCur[e.Dst]++
	}
	g.outOff, g.inOff, g.outAdj, g.inAdj = outOff, inOff, outAdj, inAdj
}

// Adjacency is a CSR (compressed sparse row) view of a graph's incidence
// lists: node v's out-edges are OutEdge[OutOff[v]:OutOff[v+1]] and its
// in-edges InEdge[InOff[v]:InOff[v+1]], each bucket ascending by edge id.
// The arrays are shared with the graph's cache — callers must not mutate
// them, and must not hold the view across AddNode/AddEdge.
type Adjacency struct {
	OutOff, InOff   []int32
	OutEdge, InEdge []int
}

// Out returns the edge indices leaving node v.
func (a Adjacency) Out(v int) []int { return a.OutEdge[a.OutOff[v]:a.OutOff[v+1]] }

// In returns the edge indices entering node v.
func (a Adjacency) In(v int) []int { return a.InEdge[a.InOff[v]:a.InOff[v+1]] }

// OutDegree returns the number of edges leaving node v.
func (a Adjacency) OutDegree(v int) int { return int(a.OutOff[v+1] - a.OutOff[v]) }

// InDegree returns the number of edges entering node v.
func (a Adjacency) InDegree(v int) int { return int(a.InOff[v+1] - a.InOff[v]) }

// Adjacency returns the graph's CSR incidence view, building it on first
// use. The view is shared by gnn.BuildFeatures, the simulators, and the
// re-allocation loop so the arrays are constructed exactly once per graph.
func (g *Graph) Adjacency() Adjacency {
	g.ensureAdj()
	return Adjacency{OutOff: g.outOff, InOff: g.inOff, OutEdge: g.outAdj, InEdge: g.inAdj}
}

// OutEdges returns the indices of edges leaving node v (a view into the
// CSR cache — do not mutate).
func (g *Graph) OutEdges(v int) []int {
	g.ensureAdj()
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// InEdges returns the indices of edges entering node v (a view into the
// CSR cache — do not mutate).
func (g *Graph) InEdges(v int) []int {
	g.ensureAdj()
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// Sources returns nodes with no incoming edges.
func (g *Graph) Sources() []int {
	g.ensureAdj()
	var s []int
	for v := range g.Nodes {
		if g.inOff[v] == g.inOff[v+1] {
			s = append(s, v)
		}
	}
	return s
}

// Sinks returns nodes with no outgoing edges.
func (g *Graph) Sinks() []int {
	g.ensureAdj()
	var s []int
	for v := range g.Nodes {
		if g.outOff[v] == g.outOff[v+1] {
			s = append(s, v)
		}
	}
	return s
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// TopoOrder returns a topological ordering of the nodes, or an error if
// the graph has a cycle.
func (g *Graph) TopoOrder() ([]int, error) {
	g.ensureAdj()
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.Dst]++
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, ei := range g.outAdj[g.outOff[v]:g.outOff[v+1]] {
			d := g.Edges[ei].Dst
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("stream: graph has a cycle (%d of %d nodes ordered)", len(order), n)
	}
	return order, nil
}

// PseudoTopoOrder returns a topological ordering when the graph is
// acyclic; on cyclic graphs (possible for coarse graphs) it falls back to
// breaking the smallest-remaining-indegree node out of each cycle, always
// returning a complete ordering. Used by sequential placers that must
// handle coarse graphs.
func (g *Graph) PseudoTopoOrder() []int {
	g.ensureAdj()
	n := len(g.Nodes)
	indeg := make([]int, n)
	for _, e := range g.Edges {
		indeg[e.Dst]++
	}
	done := make([]bool, n)
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, n)
	for len(order) < n {
		if len(queue) == 0 {
			// Cycle: release the unfinished node with minimal indegree.
			best, bestDeg := -1, 1<<30
			for v := 0; v < n; v++ {
				if !done[v] && indeg[v] < bestDeg {
					best, bestDeg = v, indeg[v]
				}
			}
			queue = append(queue, best)
			indeg[best] = 0
		}
		v := queue[0]
		queue = queue[1:]
		if done[v] {
			continue
		}
		done[v] = true
		order = append(order, v)
		for _, ei := range g.outAdj[g.outOff[v]:g.outOff[v+1]] {
			d := g.Edges[ei].Dst
			if done[d] {
				continue
			}
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	return order
}

// Validate checks structural invariants: acyclicity, in-range edges,
// finite non-negative features with positive rates, (weak) connectivity,
// and finite steady-state demands — finite features can still overflow
// to ±Inf (or NaN, as 0 × Inf) while rates propagate. NaN fails every
// comparison, so each check is written to accept only the valid range
// rather than to reject the invalid one.
func (g *Graph) Validate() error {
	if len(g.Nodes) == 0 {
		return fmt.Errorf("stream: empty graph")
	}
	if !positiveFinite(g.SourceRate) {
		return fmt.Errorf("stream: source rate %g is not positive and finite", g.SourceRate)
	}
	for i, n := range g.Nodes {
		if !nonNegFinite(n.IPT) || !nonNegFinite(n.Payload) || !positiveFinite(n.Selectivity) || !nonNegFinite(n.State) {
			return fmt.Errorf("stream: node %d has invalid features IPT=%g payload=%g sel=%g state=%g",
				i, n.IPT, n.Payload, n.Selectivity, n.State)
		}
	}
	for i, e := range g.Edges {
		if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
			return fmt.Errorf("stream: edge %d endpoints (%d,%d) out of range", i, e.Src, e.Dst)
		}
		if e.Src == e.Dst {
			return fmt.Errorf("stream: edge %d is a self-loop at %d", i, e.Src)
		}
		if !nonNegFinite(e.Payload) {
			return fmt.Errorf("stream: edge %d payload %g is not finite and non-negative", i, e.Payload)
		}
	}
	order, err := g.TopoOrder()
	if err != nil {
		return err
	}
	// Weakly connected: collapsing every edge leaves one super-node.
	c := NewCollapser(g)
	for ei := range g.Edges {
		c.Collapse(ei)
	}
	if c.NumSuper() != 1 {
		return fmt.Errorf("stream: graph is not weakly connected")
	}
	rates := g.ratesAlong(order)
	for v, l := range g.loadFrom(rates) {
		if !nonNegFinite(l) {
			return fmt.Errorf("stream: node %d steady-state load %g is not finite", v, l)
		}
	}
	for ei, t := range g.trafficFrom(rates) {
		if !nonNegFinite(t) {
			return fmt.Errorf("stream: edge %d steady-state traffic %g is not finite", ei, t)
		}
	}
	return nil
}

func positiveFinite(v float64) bool { return v > 0 && !math.IsInf(v, 1) }

func nonNegFinite(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// SteadyRates returns each node's steady-state output tuple rate assuming
// no resource bottlenecks: sources emit SourceRate × selectivity, and each
// operator's input rate is the sum of its upstream output rates.
func (g *Graph) SteadyRates() []float64 {
	order, err := g.TopoOrder()
	if err != nil {
		panic("stream: SteadyRates on cyclic graph: " + err.Error())
	}
	return g.ratesAlong(order)
}

// ratesAlong propagates the steady-state rates along a topological order.
func (g *Graph) ratesAlong(order []int) []float64 {
	g.ensureAdj()
	in := make([]float64, len(g.Nodes))
	out := make([]float64, len(g.Nodes))
	for _, v := range order {
		rate := in[v]
		if g.inOff[v] == g.inOff[v+1] {
			rate = g.SourceRate
		}
		out[v] = rate * g.Nodes[v].Selectivity
		for _, ei := range g.outAdj[g.outOff[v]:g.outOff[v+1]] {
			in[g.Edges[ei].Dst] += out[v]
		}
	}
	return out
}

// NodeLoad returns each node's CPU demand in instructions/second at the
// unconstrained steady state: IPT × input rate (or the explicit override
// for coarse graphs).
func (g *Graph) NodeLoad() []float64 {
	if g.loadOverride != nil {
		return g.loadOverride
	}
	return g.loadFrom(g.SteadyRates())
}

func (g *Graph) loadFrom(rates []float64) []float64 {
	g.ensureAdj()
	load := make([]float64, len(g.Nodes))
	for v := range g.Nodes {
		inRate := 0.0
		if g.inOff[v] == g.inOff[v+1] {
			inRate = g.SourceRate
		} else {
			for _, ei := range g.inAdj[g.inOff[v]:g.inOff[v+1]] {
				inRate += rates[g.Edges[ei].Src]
			}
		}
		load[v] = g.Nodes[v].IPT * inRate
	}
	return load
}

// EdgeTraffic returns each edge's data rate in bits/second at the
// unconstrained steady state: payload × source-node output rate (or the
// explicit override for coarse graphs).
func (g *Graph) EdgeTraffic() []float64 {
	if g.trafficOverride != nil {
		return g.trafficOverride
	}
	return g.trafficFrom(g.SteadyRates())
}

func (g *Graph) trafficFrom(rates []float64) []float64 {
	tr := make([]float64, len(g.Edges))
	for ei, e := range g.Edges {
		tr[ei] = e.Payload * rates[e.Src]
	}
	return tr
}

// PinDemands returns a view of the graph whose NodeLoad and EdgeTraffic
// return demands computed here, once, from a single rate propagation —
// the same values an unpinned call computes — so a caller that reads them
// many times stops re-propagating. Every allocation entry point pins
// before its first reader, so each call propagates once:
// core.Pipeline.Allocate and AllocateRanked, AllocateMultilevel at its top
// level, serve.Service.AllocateCtx after its cache probe, and
// rl.Trainer's per-graph step. Nodes, Edges and the CSR cache are shared,
// as in ScaleSourceRate. A graph whose demands are already fixed (a coarse
// graph, or a pinned view) is returned as is.
func (g *Graph) PinDemands() *Graph {
	if g.loadOverride != nil {
		return g
	}
	g.ensureAdj()
	pg := &Graph{Nodes: g.Nodes, Edges: g.Edges, SourceRate: g.SourceRate}
	pg.outOff, pg.inOff, pg.outAdj, pg.inAdj = g.outOff, g.inOff, g.outAdj, g.inAdj
	rates := g.SteadyRates()
	pg.loadOverride, pg.trafficOverride = g.loadFrom(rates), g.trafficFrom(rates)
	return pg
}

// TotalLoad returns the summed CPU demand in instructions/second.
func (g *Graph) TotalLoad() float64 {
	var s float64
	for _, l := range g.NodeLoad() {
		s += l
	}
	return s
}

// Placement maps each operator index to a device id in [0, Devices).
type Placement struct {
	Assign  []int
	Devices int
}

// NewPlacement returns an all-zeros placement for n operators.
func NewPlacement(n, devices int) *Placement {
	return &Placement{Assign: make([]int, n), Devices: devices}
}

// Validate checks the placement covers the graph and stays in range.
func (p *Placement) Validate(g *Graph) error {
	if len(p.Assign) != len(g.Nodes) {
		return fmt.Errorf("stream: placement covers %d nodes, graph has %d", len(p.Assign), len(g.Nodes))
	}
	if p.Devices <= 0 {
		return fmt.Errorf("stream: placement has %d devices", p.Devices)
	}
	for v, d := range p.Assign {
		if d < 0 || d >= p.Devices {
			return fmt.Errorf("stream: node %d assigned to device %d of %d", v, d, p.Devices)
		}
	}
	return nil
}

// UsedDevices returns the number of distinct devices with ≥1 operator.
func (p *Placement) UsedDevices() int {
	seen := make(map[int]bool, p.Devices)
	for _, d := range p.Assign {
		seen[d] = true
	}
	return len(seen)
}

// Clone deep-copies the placement.
func (p *Placement) Clone() *Placement {
	a := make([]int, len(p.Assign))
	copy(a, p.Assign)
	return &Placement{Assign: a, Devices: p.Devices}
}

// CoarseMap maps original node → super-node, as produced by collapsing a
// set of edges (connected components of the collapsed-edge subgraph).
type CoarseMap struct {
	// Super[v] is the super-node index of original node v.
	Super []int
	// NumSuper is the number of super-nodes.
	NumSuper int
}

// Members returns, for each super-node, the sorted original node indices.
func (cm *CoarseMap) Members() [][]int {
	m := make([][]int, cm.NumSuper)
	for v, s := range cm.Super {
		m[s] = append(m[s], v)
	}
	for _, grp := range m {
		sort.Ints(grp)
	}
	return m
}

// CompressionRatio returns |V| / |V_coarse|.
func (cm *CoarseMap) CompressionRatio() float64 {
	if cm.NumSuper == 0 {
		return math.NaN()
	}
	return float64(len(cm.Super)) / float64(cm.NumSuper)
}

// CoarseGraph builds the coarsened graph: super-node IPT-load aggregates
// member demand (represented by summing IPT weighted by relative input
// rates — see below), payloads of parallel super-edges are summed, and
// intra-super edges disappear.
//
// Because a super-node is simulated as one operator, we aggregate member
// CPU demand exactly: the coarse node's IPT is chosen such that
// IPT_super × sourceRate = Σ member loads / fan-in-normalization; we encode
// the exact aggregate demand by giving the super node IPT = total member
// demand / SourceRate and selectivity 1, and super edges carry the exact
// steady-state traffic as payload at rate SourceRate. This preserves both
// total CPU demand per super-node and total traffic per super-edge, which
// is what the partitioner and simulator consume.
//
// Super-edges are ordered by (source, destination) super-node, and each
// one's traffic is summed over its original edges in ascending edge id.
// Super-nodes are unnamed.
func CoarseGraph(g *Graph, cm *CoarseMap) *Graph {
	load := g.NodeLoad()
	traffic := g.EdgeTraffic()
	ns := cm.NumSuper
	superLoad := make([]float64, ns)
	for v, s := range cm.Super {
		superLoad[s] += load[v]
	}
	nodes := make([]Node, ns)
	for s, l := range superLoad {
		nodes[s] = Node{IPT: l / g.SourceRate, Selectivity: 1}
	}

	// Cross edges in (source, destination) super-node order: two stable
	// counting-sort passes, by destination and then by source, keep
	// ascending edge id inside each pair, the order the sums below need.
	sc := coarsePool.Get().(*coarseScratch)
	defer coarsePool.Put(sc)
	if cap(sc.cross) < len(g.Edges) {
		sc.cross = make([]int32, 0, len(g.Edges))
	}
	cross := sc.cross[:0]
	for ei, e := range g.Edges {
		if cm.Super[e.Src] != cm.Super[e.Dst] {
			cross = append(cross, int32(ei))
		}
	}
	byDst := grow(&sc.byDst, len(cross))
	count := grow(&sc.count, ns+1)
	sortBySuper(byDst, cross, count, g.Edges, cm.Super, false)
	sortBySuper(cross, byDst, count, g.Edges, cm.Super, true)

	pairKey := func(ei int32) int {
		e := g.Edges[ei]
		return cm.Super[e.Src]*ns + cm.Super[e.Dst]
	}
	pairs := 0
	for i := range cross {
		if i == 0 || pairKey(cross[i]) != pairKey(cross[i-1]) {
			pairs++
		}
	}
	edges := make([]Edge, 0, pairs)
	superTraffic := make([]float64, 0, pairs)
	for i := 0; i < len(cross); {
		k := pairKey(cross[i])
		agg := 0.0
		for ; i < len(cross) && pairKey(cross[i]) == k; i++ {
			agg += traffic[cross[i]]
		}
		// Super edges carry the aggregate traffic: payload × SourceRate =
		// aggregate bits/s, with the super graph treated as rate-SourceRate.
		edges = append(edges, Edge{Src: k / ns, Dst: k % ns, Payload: agg / g.SourceRate})
		superTraffic = append(superTraffic, agg)
	}
	cg := &Graph{Nodes: nodes, Edges: edges, SourceRate: g.SourceRate}
	// Collapsing DAG edges can create cycles among super-nodes, so demands
	// are pinned to their exact aggregates rather than re-propagated.
	cg.SetDemandOverrides(superLoad, superTraffic)
	return cg
}

// coarseScratch is CoarseGraph's sort scratch: the cross edge ids, their
// destination-sorted copy and the counting sort's counts. None of it
// outlives a call, so it is pooled (the rank sweep builds a coarse graph
// per candidate); the graph CoarseGraph returns is always freshly
// allocated. Buffers only grow.
type coarseScratch struct {
	cross, byDst, count []int32
}

var coarsePool = sync.Pool{New: func() any { return new(coarseScratch) }}

// grow sets *s to length n, reallocating only when its capacity is
// short, and returns it. The contents are unspecified.
func grow(s *[]int32, n int) []int32 {
	if cap(*s) < n {
		*s = make([]int32, n)
	}
	*s = (*s)[:n]
	return *s
}

// sortBySuper stably counting-sorts the edge ids in src into dst by the
// super-node of each edge's source (bySrc) or destination, using count
// (length NumSuper+1) as scratch.
func sortBySuper(dst, src, count []int32, edges []Edge, super []int, bySrc bool) {
	key := func(ei int32) int {
		if bySrc {
			return super[edges[ei].Src]
		}
		return super[edges[ei].Dst]
	}
	clear(count)
	for _, ei := range src {
		count[key(ei)+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	for _, ei := range src {
		k := key(ei)
		dst[count[k]] = ei
		count[k]++
	}
}

// ExpandPlacement maps a placement of the coarse graph back onto the
// original graph: every member of super-node s gets s's device.
func ExpandPlacement(cm *CoarseMap, coarse *Placement) *Placement {
	if len(coarse.Assign) != cm.NumSuper {
		panic(fmt.Sprintf("stream: coarse placement covers %d supernodes, map has %d",
			len(coarse.Assign), cm.NumSuper))
	}
	p := NewPlacement(len(cm.Super), coarse.Devices)
	for v, s := range cm.Super {
		p.Assign[v] = coarse.Assign[s]
	}
	return p
}

// DOT renders the graph in Graphviz format; placement may be nil. Used by
// the Fig. 3 qualitative example.
func (g *Graph) DOT(p *Placement) string {
	var b strings.Builder
	b.WriteString("digraph stream {\n  rankdir=LR;\n")
	load := g.NodeLoad()
	for v, n := range g.Nodes {
		label := n.Name
		if label == "" {
			label = fmt.Sprintf("v%d", v)
		}
		color := ""
		if p != nil {
			color = fmt.Sprintf(", style=filled, fillcolor=\"/set312/%d\"", p.Assign[v]%12+1)
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\\n%.0f MI/s\"%s];\n", v, label, load[v]/1e6, color)
	}
	traffic := g.EdgeTraffic()
	for ei, e := range g.Edges {
		w := 1 + 4*math.Log1p(traffic[ei]/1e6)
		fmt.Fprintf(&b, "  n%d -> n%d [penwidth=%.1f];\n", e.Src, e.Dst, w)
	}
	b.WriteString("}\n")
	return b.String()
}

// ScaleSourceRate returns a view of the graph with every source ingesting
// f× the base tuple rate — a source-rate surge. Nodes and edges are shared
// (the per-tuple features are rate independent); steady-state rates, loads,
// and traffic all scale linearly with the source rate, so explicit demand
// overrides are scaled by the same factor.
func (g *Graph) ScaleSourceRate(f float64) *Graph {
	if f <= 0 {
		panic(fmt.Sprintf("stream: non-positive source-rate factor %g", f))
	}
	if f == 1 {
		return g
	}
	sg := &Graph{Nodes: g.Nodes, Edges: g.Edges, SourceRate: g.SourceRate * f}
	// The CSR cache depends only on the shared Nodes/Edges, so the scaled
	// view can reuse it instead of rebuilding per surge factor.
	sg.outOff, sg.inOff, sg.outAdj, sg.inAdj = g.outOff, g.inOff, g.outAdj, g.inAdj
	if g.loadOverride != nil {
		sg.loadOverride = make([]float64, len(g.loadOverride))
		sg.trafficOverride = make([]float64, len(g.trafficOverride))
		for i, v := range g.loadOverride {
			sg.loadOverride[i] = v * f
		}
		for i, v := range g.trafficOverride {
			sg.trafficOverride[i] = v * f
		}
	}
	return sg
}
