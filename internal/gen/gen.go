// Package gen generates synthetic stream-processing graphs following the
// paper's recursive construction (Fig. 4): starting from a seed chain, a
// randomly chosen node is repeatedly replaced by one of three basic
// subgraph topologies — linear (p=0.45, max length 5), branch (p=0.45,
// max width 5), or fully connected (p=0.1, max 3 layers × 5 wide) — or a
// node is replicated in place, until the node count reaches the requested
// range. Features (per-node instructions-per-tuple, per-edge payloads) are
// then assigned randomly and normalized so each dataset's total computing
// load follows the same distribution relative to cluster capacity (§V).
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Config controls graph generation.
type Config struct {
	MinNodes, MaxNodes int
	SourceRate         float64

	// Topology substitution probabilities (normalized internally).
	PLinear, PBranch, PFull float64
	// PReplicate is the per-step probability of replicating a node
	// instead of substituting a subgraph.
	PReplicate   float64
	ReplicateMax int

	MaxLinearLen  int // paper: 5
	MaxBranchWide int // paper: 5
	MaxFullLen    int // paper: 3
	MaxFullWide   int // paper: 5

	// LoadFrac is the sampled range for total CPU demand as a fraction of
	// total cluster instruction capacity. Values above 1 produce graphs
	// that cannot sustain the full source rate even when perfectly
	// balanced — matching the paper's evaluation, where mean throughputs
	// sit well below the source rate.
	LoadFrac [2]float64
	// TrafficFrac is the sampled range for total edge traffic as a
	// fraction of aggregate cluster bandwidth (Devices × link bandwidth)
	// at the full source rate. It controls how much the choice of cut
	// edges matters.
	TrafficFrac [2]float64

	// Cluster calibrates the normalization above.
	Cluster sim.Cluster

	// Layered switches to the O(E) streaming construction (layered.go):
	// nodes emitted in topological order, in-edges drawn from a sliding
	// window of LayerWindow recent predecessors. The recursive substitution
	// construction rewires an edge map per step and does not scale past a
	// few thousand nodes; the huge/extreme presets set Layered.
	Layered     bool
	LayerWindow int
}

// DefaultConfig returns the paper's substitution parameters for the given
// node range and cluster.
func DefaultConfig(minNodes, maxNodes int, sourceRate float64, cluster sim.Cluster) Config {
	return Config{
		MinNodes: minNodes, MaxNodes: maxNodes,
		SourceRate: sourceRate,
		PLinear:    0.45, PBranch: 0.45, PFull: 0.1,
		PReplicate: 0.1, ReplicateMax: 3,
		MaxLinearLen: 5, MaxBranchWide: 5, MaxFullLen: 3, MaxFullWide: 5,
		LoadFrac:    [2]float64{0.9, 2.2},
		TrafficFrac: [2]float64{1.2, 3.2},
		Cluster:     cluster,
	}
}

// topoGraph is the intermediate feature-less topology under construction.
type topoGraph struct {
	n     int
	edges map[[2]int]bool
	out   [][]int
	in    [][]int
	// replicas records (replica, original) node-id pairs so that feature
	// assignment can copy properties, matching §V ("for operators generated
	// by replicating a sub-graph, their properties are replicated").
	replicas [][2]int
}

func newTopoGraph() *topoGraph {
	return &topoGraph{edges: make(map[[2]int]bool)}
}

func (t *topoGraph) addNode() int {
	t.n++
	t.out = append(t.out, nil)
	t.in = append(t.in, nil)
	return t.n - 1
}

func (t *topoGraph) addEdge(u, v int) {
	if u == v || t.edges[[2]int{u, v}] {
		return
	}
	t.edges[[2]int{u, v}] = true
	t.out[u] = append(t.out[u], v)
	t.in[v] = append(t.in[v], u)
}

func (t *topoGraph) removeEdge(u, v int) {
	if !t.edges[[2]int{u, v}] {
		return
	}
	delete(t.edges, [2]int{u, v})
	t.out[u] = removeInt(t.out[u], v)
	t.in[v] = removeInt(t.in[v], u)
}

func removeInt(s []int, x int) []int {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// Generate produces one graph. Deterministic given rng state.
func Generate(cfg Config, rng *rand.Rand) *stream.Graph {
	if cfg.Layered {
		return generateLayered(cfg, rng)
	}
	if cfg.MinNodes < 2 || cfg.MaxNodes < cfg.MinNodes {
		panic(fmt.Sprintf("gen: bad node range [%d,%d]", cfg.MinNodes, cfg.MaxNodes))
	}
	target := cfg.MinNodes + rng.Intn(cfg.MaxNodes-cfg.MinNodes+1)

	t := newTopoGraph()
	// Seed: source → op → sink chain.
	a, b, c := t.addNode(), t.addNode(), t.addNode()
	t.addEdge(a, b)
	t.addEdge(b, c)

	for t.n < target {
		budget := target - t.n
		if cfg.PReplicate > 0 && rng.Float64() < cfg.PReplicate {
			replicateNode(t, rng, cfg, budget)
			continue
		}
		substituteNode(t, rng, cfg, budget)
	}
	return assignFeatures(t, cfg, rng)
}

// substituteNode replaces a random non-terminal node with a basic
// subgraph, adding at most budget new nodes.
func substituteNode(t *topoGraph, rng *rand.Rand, cfg Config, budget int) {
	// Pick a node that has both predecessors and successors when possible,
	// so the graph stays a single-source/sink-friendly DAG; fall back to
	// any node with at least one connection.
	v := pickNode(t, rng)
	pTotal := cfg.PLinear + cfg.PBranch + cfg.PFull
	r := rng.Float64() * pTotal
	var entry, exit, mid []int
	switch {
	case r < cfg.PLinear:
		entry, exit, mid = buildLinear(t, rng, cfg, budget)
	case r < cfg.PLinear+cfg.PBranch:
		entry, exit, mid = buildBranch(t, rng, cfg, budget)
	default:
		entry, exit, mid = buildFull(t, rng, cfg, budget)
	}
	if len(mid) == 0 { // budget too small to grow; extend v with a successor
		if budget >= 1 {
			w := t.addNode()
			for _, s := range append([]int(nil), t.out[v]...) {
				t.removeEdge(v, s)
				t.addEdge(w, s)
			}
			t.addEdge(v, w)
		}
		return
	}
	// Rewire v's connections to the subgraph and splice v into the entry
	// layer: v remains as the first entry node (so node count grows by
	// len(mid)); extra entry nodes inherit v's predecessors.
	preds := append([]int(nil), t.in[v]...)
	succs := append([]int(nil), t.out[v]...)
	for _, p := range preds {
		t.removeEdge(p, v)
	}
	for _, s := range succs {
		t.removeEdge(v, s)
	}
	// v takes the role of entry[0]: inherit entry[0]'s out-edges.
	e0 := entry[0]
	for _, w := range append([]int(nil), t.out[e0]...) {
		t.removeEdge(e0, w)
		t.addEdge(v, w)
	}
	for _, w := range append([]int(nil), t.in[e0]...) {
		t.removeEdge(w, e0)
		t.addEdge(w, v)
	}
	// Replace e0 in the entry/exit sets with v. e0 becomes an orphan; to
	// avoid renumbering we reuse it as an extra member of the entry layer
	// only if it still has edges (it does not), so we instead swap ids by
	// giving e0 the final node's edges. Simpler: e0 was freshly created
	// with edges only inside the subgraph, all now moved to v, so e0 is
	// isolated. We recycle it by merging: treat v as e0 everywhere below.
	replaceID := func(s []int) {
		for i := range s {
			if s[i] == e0 {
				s[i] = v
			}
		}
	}
	replaceID(entry)
	replaceID(exit)
	// Reconnect the original context.
	for _, p := range preds {
		for _, en := range entry {
			t.addEdge(p, en)
		}
	}
	for _, s := range succs {
		for _, ex := range exit {
			t.addEdge(ex, s)
		}
	}
	// Compact away the isolated e0 by swapping it with the last node id.
	compactIsolated(t, e0)
}

// compactIsolated removes a known-isolated node id by swapping with the
// last node and renumbering its edges.
func compactIsolated(t *topoGraph, id int) {
	last := t.n - 1
	if id != last {
		// Move node `last` into slot `id`.
		for _, v := range append([]int(nil), t.out[last]...) {
			t.removeEdge(last, v)
			t.addEdge(id, v)
		}
		for _, u := range append([]int(nil), t.in[last]...) {
			t.removeEdge(u, last)
			t.addEdge(u, id)
		}
	}
	for i := range t.replicas {
		for j := 0; j < 2; j++ {
			if t.replicas[i][j] == last {
				t.replicas[i][j] = id
			}
		}
	}
	t.n--
	t.out = t.out[:t.n]
	t.in = t.in[:t.n]
}

func pickNode(t *topoGraph, rng *rand.Rand) int {
	for tries := 0; tries < 8; tries++ {
		v := rng.Intn(t.n)
		if len(t.in[v]) > 0 && len(t.out[v]) > 0 {
			return v
		}
	}
	return rng.Intn(t.n)
}

// buildLinear creates a chain of 2..MaxLinearLen nodes.
func buildLinear(t *topoGraph, rng *rand.Rand, cfg Config, budget int) (entry, exit, mid []int) {
	ln := 2 + rng.Intn(cfg.MaxLinearLen-1)
	if ln-1 > budget {
		ln = budget + 1
	}
	if ln < 2 {
		return nil, nil, nil
	}
	ids := make([]int, ln)
	for i := range ids {
		ids[i] = t.addNode()
		if i > 0 {
			t.addEdge(ids[i-1], ids[i])
		}
	}
	return ids[:1], ids[ln-1:], ids
}

// buildBranch creates 2..MaxBranchWide parallel nodes (length 1).
func buildBranch(t *topoGraph, rng *rand.Rand, cfg Config, budget int) (entry, exit, mid []int) {
	w := 2 + rng.Intn(cfg.MaxBranchWide-1)
	if w-1 > budget {
		w = budget + 1
	}
	if w < 2 {
		return nil, nil, nil
	}
	ids := make([]int, w)
	for i := range ids {
		ids[i] = t.addNode()
	}
	return ids, ids, ids
}

// buildFull creates 2..MaxFullLen layers of up to MaxFullWide nodes with
// complete bipartite connections between consecutive layers.
func buildFull(t *topoGraph, rng *rand.Rand, cfg Config, budget int) (entry, exit, mid []int) {
	layers := 2 + rng.Intn(cfg.MaxFullLen-1)
	var all, prev []int
	total := 0
	for l := 0; l < layers; l++ {
		w := 1 + rng.Intn(cfg.MaxFullWide)
		if total+w-1 > budget { // -1: one node reuses the substituted slot
			w = budget - total + 1
		}
		if w <= 0 {
			break
		}
		cur := make([]int, w)
		for i := range cur {
			cur[i] = t.addNode()
			total++
		}
		for _, p := range prev {
			for _, c := range cur {
				t.addEdge(p, c)
			}
		}
		if l == 0 {
			entry = cur
		}
		all = append(all, cur...)
		prev = cur
	}
	if len(all) < 2 {
		return nil, nil, nil
	}
	return entry, prev, all
}

// replicateNode duplicates a random node (with its connections) up to
// ReplicateMax times, bounded by budget. Each copy is recorded in
// t.replicas, through which it takes the original's per-tuple demand.
func replicateNode(t *topoGraph, rng *rand.Rand, cfg Config, budget int) {
	v := pickNode(t, rng)
	k := 1 + rng.Intn(cfg.ReplicateMax)
	if k > budget {
		k = budget
	}
	for i := 0; i < k; i++ {
		w := t.addNode()
		for _, p := range t.in[v] {
			t.addEdge(p, w)
		}
		for _, s := range t.out[v] {
			t.addEdge(w, s)
		}
		t.replicas = append(t.replicas, [2]int{w, v})
	}
}

// assignFeatures builds t's stream graph and draws its features. Input
// rates sum each operator's predecessors in t.in order, the order every
// seeded dataset was generated with.
func assignFeatures(t *topoGraph, cfg Config, rng *rand.Rand) *stream.Graph {
	g := stream.NewGraph(cfg.SourceRate)
	// Selectivities keep tuple rates at the source-rate scale: a fan-in
	// node emits roughly one output per joined input set instead of
	// summing its inputs (without this, rates — and therefore loads —
	// compound exponentially with depth, producing single operators that
	// dwarf a device).
	for i := 0; i < t.n; i++ {
		sel := 0.8 + 0.4*rng.Float64()
		if indeg := len(t.in[i]); indeg > 1 {
			sel /= float64(indeg)
		}
		g.AddNode(stream.Node{IPT: 1, Payload: 1, Selectivity: sel})
	}
	// Deterministic edge order: sort by (src, dst).
	eds := make([]edgePair, 0, len(t.edges))
	for k := range t.edges {
		eds = append(eds, edgePair{k[0], k[1]})
	}
	sortEdges(eds)
	for _, e := range eds {
		g.AddEdge(e.u, e.v, 1)
	}
	rates := g.SteadyRates()
	inRate := make([]float64, t.n)
	for v := 0; v < t.n; v++ {
		if len(t.in[v]) == 0 {
			inRate[v] = cfg.SourceRate
			continue
		}
		for _, u := range t.in[v] {
			inRate[v] += rates[u]
		}
	}
	drawFeatures(g, cfg, rates, inRate, t.replicas, rng)
	return g
}

// drawFeatures randomizes per-operator demand and per-edge traffic, then
// rescales so the graph's total CPU demand and total traffic land at the
// sampled targets, and draws operator state last. rates are g's steady
// rates and inRate[v] the rate arriving at v (the source rate at a
// source), summed by each generator in its own predecessor order. Each
// replica pair {copy, original} copies the original's per-tuple demand.
func drawFeatures(g *stream.Graph, cfg Config, rates, inRate []float64, replicas [][2]int, rng *rand.Rand) {
	n := g.NumNodes()
	adj := g.Adjacency()
	// Draw i.i.d. per-node demand and per-edge traffic weights, then invert
	// the steady-state rates to realize them through IPT and payload (the
	// paper characterizes operators by CPU utilization and edges by
	// payload directly; both are "randomly assigned").
	for v := 0; v < n; v++ {
		g.Nodes[v].IPT = (0.5 + rng.Float64()) / inRate[v]
	}
	for ei := range g.Edges {
		g.Edges[ei].Payload = (0.5 + rng.Float64()) / rates[g.Edges[ei].Src]
	}
	for _, pair := range replicas {
		if pair[0] < n && pair[1] < n {
			g.Nodes[pair[0]].IPT = g.Nodes[pair[1]].IPT
		}
	}
	// Node payload feature: mean of outgoing edge payloads.
	for v := 0; v < n; v++ {
		out := adj.Out(v)
		if len(out) == 0 {
			g.Nodes[v].Payload = 0
			continue
		}
		sum := 0.0
		for _, ei := range out {
			sum += g.Edges[ei].Payload
		}
		g.Nodes[v].Payload = sum / float64(len(out))
	}

	// Rescale CPU: total load → frac × cluster instruction capacity.
	frac := cfg.LoadFrac[0] + rng.Float64()*(cfg.LoadFrac[1]-cfg.LoadFrac[0])
	targetLoad := frac * float64(cfg.Cluster.Devices) * cfg.Cluster.InstructionCapacity()
	if cur := g.TotalLoad(); cur > 0 {
		s := targetLoad / cur
		for i := range g.Nodes {
			g.Nodes[i].IPT *= s
		}
	}
	// Rescale payloads: total traffic → sampled fraction of aggregate
	// cluster bandwidth.
	frac = cfg.TrafficFrac[0] + rng.Float64()*(cfg.TrafficFrac[1]-cfg.TrafficFrac[0])
	var total float64
	for _, x := range g.EdgeTraffic() {
		total += x
	}
	if total > 0 {
		s := frac * float64(cfg.Cluster.Devices) * cfg.Cluster.Bandwidth / total
		for i := range g.Edges {
			g.Edges[i].Payload *= s
		}
		for i := range g.Nodes {
			g.Nodes[i].Payload *= s
		}
	}
	// Operator state sizes, drawn last so the topology and demand features
	// above are bit-identical to graphs generated before state existed
	// (seeded datasets stay stable). Fan-in operators model joins/windows:
	// they always hold state proportional to what arrives during a one-
	// second window; other operators are stateful with probability ~0.25.
	// State only matters to migration cost, never to steady-state load.
	rates = g.SteadyRates()
	for v := 0; v < n; v++ {
		inBits := 0.0
		for _, ei := range adj.In(v) {
			e := g.Edges[ei]
			inBits += rates[e.Src] * e.Payload
		}
		stateful := adj.InDegree(v) > 1
		draw := rng.Float64()
		if !stateful && adj.InDegree(v) > 0 {
			stateful = draw < 0.25
		}
		if stateful {
			// Window length 0.2–2 s of arriving data.
			g.Nodes[v].State = inBits * (0.2 + 1.8*rng.Float64())
		}
	}
}

type edgePair struct{ u, v int }

func sortEdges(eds []edgePair) {
	sort.Slice(eds, func(i, j int) bool {
		if eds[i].u != eds[j].u {
			return eds[i].u < eds[j].u
		}
		return eds[i].v < eds[j].v
	})
}

// GenerateSet produces n graphs in parallel with per-graph derived seeds,
// so the output is independent of worker scheduling.
func GenerateSet(cfg Config, n int, seed int64) []*stream.Graph {
	return parallel.Map(n, 0, func(i int) *stream.Graph {
		return Generate(cfg, rand.New(rand.NewSource(graphSeed(seed, i))))
	})
}

// GenerateEach produces the same n graphs as GenerateSet — identical
// per-graph derived seeds — but sequentially, handing each graph to fn as
// it is built and retaining none of them. This is the streaming export
// path: peak memory is one graph (O(E)), not the whole dataset, which is
// what makes the extreme (~1M node) setting exportable at all.
func GenerateEach(cfg Config, n int, seed int64, fn func(i int, g *stream.Graph) error) error {
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(graphSeed(seed, i)))
		if err := fn(i, Generate(cfg, rng)); err != nil {
			return err
		}
	}
	return nil
}

// graphSeed derives the i-th graph's RNG seed within a set.
func graphSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }
