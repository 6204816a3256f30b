package metis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/stream"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

func testGraph(seed int64, minN, maxN int) *stream.Graph {
	c := sim.DefaultCluster(5, 1000)
	cfg := gen.DefaultConfig(minN, maxN, 10_000, c)
	return gen.Generate(cfg, rand.New(rand.NewSource(seed)))
}

func TestPartitionValidAndBalanced(t *testing.T) {
	g := testGraph(1, 60, 100)
	opts := Options{Parts: 4, Seed: 1}
	p := Partition(g, opts)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	load := g.NodeLoad()
	parts := make([]float64, 4)
	var total float64
	for v, d := range p.Assign {
		parts[d] += load[v]
		total += load[v]
	}
	maxAllowed := (1 + 0.05) * total / 4
	for d, l := range parts {
		// Allow slack for indivisible heavy nodes: a part may exceed the
		// balance constraint by at most the heaviest single node.
		var heaviest float64
		for _, x := range load {
			if x > heaviest {
				heaviest = x
			}
		}
		if l > maxAllowed+heaviest {
			t.Fatalf("part %d load %.3g exceeds %.3g", d, l, maxAllowed+heaviest)
		}
	}
}

func TestPartitionSinglePart(t *testing.T) {
	g := testGraph(2, 20, 30)
	p := Partition(g, Options{Parts: 1, Seed: 1})
	for _, d := range p.Assign {
		if d != 0 {
			t.Fatal("single part must assign everything to 0")
		}
	}
}

func TestPartitionBeatsRoundRobinCut(t *testing.T) {
	g := testGraph(3, 80, 120)
	k := 4
	mp := Partition(g, Options{Parts: k, Seed: 1})
	rr := stream.NewPlacement(g.NumNodes(), k)
	for v := range rr.Assign {
		rr.Assign[v] = v % k
	}
	if Cut(g, mp) >= Cut(g, rr) {
		t.Fatalf("metis cut %.3g not better than round-robin %.3g", Cut(g, mp), Cut(g, rr))
	}
}

func TestPartitionBeatsRandomReward(t *testing.T) {
	c := sim.DefaultCluster(5, 1000)
	g := testGraph(4, 80, 120)
	mp := Partition(g, Options{Parts: 5, Seed: 1})
	mp.Devices = 5
	rng := rand.New(rand.NewSource(9))
	var bestRandom float64
	for trial := 0; trial < 5; trial++ {
		rp := stream.NewPlacement(g.NumNodes(), 5)
		for v := range rp.Assign {
			rp.Assign[v] = rng.Intn(5)
		}
		if r := sim.Reward(g, rp, c); r > bestRandom {
			bestRandom = r
		}
	}
	if sim.Reward(g, mp, c) <= bestRandom {
		t.Fatalf("metis reward %.3g not better than best of 5 random %.3g",
			sim.Reward(g, mp, c), bestRandom)
	}
}

func TestOracleNeverWorseThanFullMetis(t *testing.T) {
	c := sim.DefaultCluster(5, 1000)
	g := testGraph(5, 40, 80)
	full := Partition(g, Options{Parts: c.Devices, Seed: 3})
	full.Devices = c.Devices
	op, k := Oracle(g, c, 3)
	if k < 1 || k > c.Devices {
		t.Fatalf("oracle picked k=%d", k)
	}
	if sim.Reward(g, op, c) < sim.Reward(g, full, c)-1e-12 {
		t.Fatal("oracle worse than fixed-k metis")
	}
}

func TestInferCollapsedEdgesReproducesGrouping(t *testing.T) {
	g := testGraph(6, 30, 60)
	p := Partition(g, Options{Parts: 3, Seed: 2})
	collapse := InferCollapsedEdges(g, p)
	cm := stream.CollapseEdges(g, collapse)
	// Every super-node's members must lie in one part, and the super-nodes
	// must exactly be the connected components of the intra-part subgraphs.
	for _, members := range cm.Members() {
		d := p.Assign[members[0]]
		for _, v := range members[1:] {
			if p.Assign[v] != d {
				t.Fatal("super-node spans two parts")
			}
		}
	}
	// No collapsed edge crosses parts.
	for ei, c := range collapse {
		if c && p.Assign[g.Edges[ei].Src] != p.Assign[g.Edges[ei].Dst] {
			t.Fatal("collapsed edge crosses parts")
		}
	}
}

func TestInferCollapsedPrefersHeavyEdges(t *testing.T) {
	// Construct a triangle-ish graph in one part where the MST must pick
	// the two heaviest of three intra-part edges.
	g := stream.NewGraph(100)
	for i := 0; i < 3; i++ {
		g.AddNode(stream.Node{IPT: 1, Payload: 1})
	}
	e1 := g.AddEdge(0, 1, 10)   // traffic 1000
	e2 := g.AddEdge(0, 2, 1000) // traffic 100000
	e3 := g.AddEdge(1, 2, 100)  // traffic 10000
	p := stream.NewPlacement(3, 1)
	collapse := InferCollapsedEdges(g, p)
	if !collapse[e2] || !collapse[e3] || collapse[e1] {
		t.Fatalf("collapse = %v, want heaviest two", collapse)
	}
}

func TestCoarsenHEMReducesToTarget(t *testing.T) {
	g := testGraph(7, 100, 150)
	target := 20
	cm := CoarsenHEM(g, target, 1)
	if cm.NumSuper > g.NumNodes() {
		t.Fatal("coarsening grew the graph")
	}
	// HEM halves per round; it should get within 2× of the target.
	if cm.NumSuper > 2*target {
		t.Fatalf("coarsened to %d, target %d", cm.NumSuper, target)
	}
	if cm.NumSuper < 1 {
		t.Fatal("empty coarse graph")
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

func TestCutComputation(t *testing.T) {
	g := stream.NewGraph(10)
	g.AddNode(stream.Node{IPT: 1, Payload: 100})
	g.AddNode(stream.Node{IPT: 1, Payload: 100})
	g.AddEdge(0, 1, 100)
	p := stream.NewPlacement(2, 2)
	if Cut(g, p) != 0 {
		t.Fatal("intra-device edge counted as cut")
	}
	p.Assign[1] = 1
	if math.Abs(Cut(g, p)-1000) > 1e-9 { // 100 payload × 10 rate
		t.Fatalf("cut = %g", Cut(g, p))
	}
}

// Property: partitions are always complete and in range, for random
// graphs and part counts.
func TestQuickPartitionValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testGraph(seed, 10, 60)
		k := 2 + rng.Intn(6)
		p := Partition(g, Options{Parts: k, Seed: seed})
		if len(p.Assign) != g.NumNodes() {
			return false
		}
		for _, d := range p.Assign {
			if d < 0 || d >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: InferCollapsedEdges never collapses a cross-part edge and the
// induced collapse is acyclic per part (spanning forest ⇒ #collapsed <
// #nodes).
func TestQuickInferCollapsedForest(t *testing.T) {
	f := func(seed int64) bool {
		g := testGraph(seed+1000, 20, 80)
		p := Partition(g, Options{Parts: 4, Seed: seed})
		collapse := InferCollapsedEdges(g, p)
		count := 0
		for ei, c := range collapse {
			if !c {
				continue
			}
			count++
			if p.Assign[g.Edges[ei].Src] != p.Assign[g.Edges[ei].Dst] {
				return false
			}
		}
		return count < g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionHeterogeneousTargets(t *testing.T) {
	g := testGraph(11, 80, 120)
	// Device 0 should receive ~4x the load of each of the others.
	fr := []float64{0.5, 0.125, 0.125, 0.125, 0.125}
	p := Partition(g, Options{Parts: 5, Seed: 1, TargetFractions: fr})
	load := g.NodeLoad()
	parts := make([]float64, 5)
	var total float64
	for v, d := range p.Assign {
		parts[d] += load[v]
		total += load[v]
	}
	// Part 0's share must be clearly larger than a uniform share.
	if parts[0]/total < 0.3 {
		t.Fatalf("big device got %.2f of load, want ≥0.3 (target 0.5)", parts[0]/total)
	}
	for d := 1; d < 5; d++ {
		if parts[d]/total > 0.3 {
			t.Fatalf("small device %d got %.2f of load", d, parts[d]/total)
		}
	}
}

// TestPartitionGolden pins the exact output of Partition and CoarsenHEM
// on fixed graphs of 30–500 operators. The behavioural tests above
// accept any valid, balanced, low-cut answer, so a reordered refinement
// pass or a changed tie-break would pass them all; this hash fails on any
// change to a single assignment. Update it only with a
// change that argues for the new partitions on quality.
func TestPartitionGolden(t *testing.T) {
	const want = "e75328e4ff15eca636ccbe6f21603b9c1973f6467f0b6fcb03d6989d36d70015"
	h := sha256.New()
	put := func(xs ...int) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	for i, size := range [][2]int{{30, 40}, {60, 100}, {150, 250}, {400, 500}} {
		g := testGraph(int64(31+i), size[0], size[1])
		for _, k := range []int{2, 3, 5, 10, 17} {
			// Heterogeneous shares: part p gets a share ∝ p+1.
			fr := make([]float64, k)
			for p := range fr {
				fr[p] = float64(2*(p+1)) / float64(k*(k+1))
			}
			for _, opts := range []Options{
				{Parts: k, Seed: 1},
				{Parts: k, Seed: 2, TargetFractions: fr},
			} {
				p := Partition(g, opts)
				put(p.Devices)
				put(p.Assign...)
			}
		}
		cm := CoarsenHEM(g, g.NumNodes()/4, 1)
		put(cm.NumSuper)
		put(cm.Super...)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Metis outputs changed: sha256 %s, want %s", got, want)
	}
}

// buildWGraphInsertion is the builder buildWGraph replaced: half-edges
// bucketed by owner in input order, then each run stable-insertion-sorted
// by neighbor, O(d²) at a hub whose edges arrive in descending order. It
// defines the order, and so the summation order of parallel edges, that
// the counting sorts must reproduce.
func buildWGraphInsertion(nw []float64, eu, ev []int32, ew []float64) *wgraph {
	n := len(nw)
	cnt := make([]int32, n+1)
	for i := range eu {
		if eu[i] != ev[i] {
			cnt[eu[i]+1]++
			cnt[ev[i]+1]++
		}
	}
	for v := 0; v < n; v++ {
		cnt[v+1] += cnt[v]
	}
	nbr := make([]int32, cnt[n])
	w := make([]float64, cnt[n])
	cur := append([]int32(nil), cnt[:n]...)
	for i := range eu {
		u, v := eu[i], ev[i]
		if u == v {
			continue
		}
		nbr[cur[u]], w[cur[u]] = v, ew[i]
		cur[u]++
		nbr[cur[v]], w[cur[v]] = u, ew[i]
		cur[v]++
	}
	off := make([]int32, n+1)
	var wp, start int32
	for v := 0; v < n; v++ {
		end := cnt[v+1]
		for i := start + 1; i < end; i++ {
			nv, wv := nbr[i], w[i]
			j := i
			for j > start && nbr[j-1] > nv {
				nbr[j], w[j] = nbr[j-1], w[j-1]
				j--
			}
			nbr[j], w[j] = nv, wv
		}
		off[v] = wp
		for i := start; i < end; i++ {
			if wp > off[v] && nbr[wp-1] == nbr[i] {
				w[wp-1] += w[i]
			} else {
				nbr[wp], w[wp] = nbr[i], w[i]
				wp++
			}
		}
		start = end
	}
	off[n] = wp
	return &wgraph{nw: nw, off: off, nbr: nbr[:wp], w: w[:wp]}
}

// TestBuildWGraphMatchesInsertionSort compares the counting-sort builder
// with the insertion-sort reference, Float64bits on the merged weights, on
// random multigraphs with self-loops and parallel edges in both
// directions, and on a hub whose edges arrive in descending order. The
// weights span 2^±30, so a changed summation order changes bits.
func TestBuildWGraphMatchesInsertionSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	weight := func() float64 { return (rng.Float64() - 0.25) * math.Ldexp(1, rng.Intn(61)-30) }
	type input struct {
		name   string
		n      int
		eu, ev []int32
		ew     []float64
	}
	var inputs []input
	for _, n := range []int{0, 1, 2, 7, 50, 300} {
		in := input{name: fmt.Sprintf("random-%d", n), n: n}
		if n > 0 {
			for i := 0; i < 4*n; i++ {
				u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
				switch rng.Intn(6) {
				case 0: // self-loop
					v = u
				case 1: // parallel edge, reversed
					in.eu, in.ev, in.ew = append(in.eu, v), append(in.ev, u), append(in.ew, weight())
				case 2: // parallel edge, same direction
					in.eu, in.ev, in.ew = append(in.eu, u), append(in.ev, v), append(in.ew, weight())
				}
				in.eu, in.ev, in.ew = append(in.eu, u), append(in.ev, v), append(in.ew, weight())
			}
		}
		inputs = append(inputs, in)
	}
	hub := input{name: "reverse-hub", n: 2000}
	for rep := 0; rep < 3; rep++ {
		for v := int32(hub.n - 1); v > 0; v-- {
			u, x := int32(0), v
			if rep == 1 {
				u, x = x, u
			}
			hub.eu, hub.ev, hub.ew = append(hub.eu, u), append(hub.ev, x), append(hub.ew, weight())
		}
	}
	inputs = append(inputs, hub)

	// One workspace and one destination graph serve every input, so each
	// build reuses buffers a larger or smaller build left stale.
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	var got wgraph
	for _, in := range append(inputs, inputs...) {
		nw := make([]float64, in.n)
		for v := range nw {
			nw[v] = rng.Float64()
		}
		want := buildWGraphInsertion(nw, in.eu, in.ev, in.ew)
		got.nw = nw
		ws.buildWGraph(&got, in.eu, in.ev, in.ew)
		if !slices.Equal(got.off, want.off) || !slices.Equal(got.nbr, want.nbr) {
			t.Fatalf("%s: adjacency differs from the insertion-sort builder", in.name)
		}
		for i := range want.w {
			if math.Float64bits(got.w[i]) != math.Float64bits(want.w[i]) {
				t.Fatalf("%s: merged weight %d = %v, insertion-sort builder %v", in.name, i, got.w[i], want.w[i])
			}
		}
	}
}

// reverseStar is operator 0 feeding `leaves` operators, its edges added
// in descending leaf order.
func reverseStar(leaves int) *stream.Graph {
	g := stream.NewGraph(1000)
	for i := 0; i <= leaves; i++ {
		g.AddNode(stream.Node{IPT: 100, Payload: 10, Selectivity: 1})
	}
	for v := leaves; v > 0; v-- {
		g.AddEdge(0, v, 0)
	}
	return g
}

type namedGraph struct {
	name string
	g    *stream.Graph
}

// adversarialGraphs returns the shapes on which heavy-edge matching
// stalls or neighbor lists arrive out of order: a Medium graph with 500,
// 2,000 and 4,000 leaves hung off operator 0, a bare 4,000-leaf star
// whose edges arrive in descending order, a hub with four parallel edges
// to each of 1,000 leaves, a 4,000-operator chain and K_{64,64}.
func adversarialGraphs() []namedGraph {
	var out []namedGraph
	add := func(name string, g *stream.Graph) { out = append(out, namedGraph{name, g}) }
	node := stream.Node{IPT: 100, Payload: 10, Selectivity: 1}
	for _, leaves := range []int{500, 2000, 4000} {
		g := testGraph(41, 100, 200)
		for i := 0; i < leaves; i++ {
			g.AddEdge(0, g.AddNode(node), 0)
		}
		add(fmt.Sprintf("medium+star-%d", leaves), g)
	}
	add("reverse-star-4000", reverseStar(4000))

	hub := stream.NewGraph(1000)
	for i := 0; i <= 1000; i++ {
		hub.AddNode(node)
	}
	for rep := 0; rep < 4; rep++ {
		for v := 1000; v > 0; v-- {
			hub.AddEdge(0, v, 0)
		}
	}
	add("parallel-hub-1000x4", hub)

	chain := stream.NewGraph(1000)
	for i := 0; i < 4000; i++ {
		chain.AddNode(node)
		if i > 0 {
			chain.AddEdge(i-1, i, 0)
		}
	}
	add("chain-4000", chain)

	kmm := stream.NewGraph(1000)
	for i := 0; i < 128; i++ {
		kmm.AddNode(node)
	}
	for u := 0; u < 64; u++ {
		for v := 64; v < 128; v++ {
			kmm.AddEdge(u, v, 0)
		}
	}
	add("K64,64", kmm)
	return out
}

// TestPartitionWorkBoundedOnAdversarialShapes bounds the FM refinement
// passes of one Partition call on adversarial shapes, read from
// metis_refine_passes_total: at most 8 (RefinePasses) per level, with
// levels logarithmic in n. Without the stall rule heavy-edge matching
// shrinks a star by one node per level and the 4,000-leaf shapes take
// tens of thousands of passes.
func TestPartitionWorkBoundedOnAdversarialShapes(t *testing.T) {
	for _, tc := range adversarialGraphs() {
		n := tc.g.NumNodes()
		bound := uint64(8 * (bits.Len(uint(n)) + 1))
		for _, k := range []int{2, 10} {
			before := obsRefinePasses.Value()
			p := Partition(tc.g, Options{Parts: k, Seed: 1})
			passes := obsRefinePasses.Value() - before
			if err := p.Validate(tc.g); err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			t.Logf("%s k=%d: %d nodes, %d refine passes", tc.name, k, n, passes)
			if passes > bound {
				t.Errorf("%s k=%d: %d refine passes on %d nodes, want ≤ %d", tc.name, k, passes, n, bound)
			}
		}
	}
}

// TestPartitionConcurrentMatchesSerial partitions graphs of 20 to 4,000
// operators into 2, 5 and 10 parts from several goroutines at once. Each
// worker walks every job twice with a stride of 7 (coprime to the 15
// jobs) from its own start, so consecutive calls alternate sizes and part
// counts and pooled workspaces pass between goroutines, growing and
// shrinking. Every answer must equal the serial one. Run it under -race
// (make chaos).
func TestPartitionConcurrentMatchesSerial(t *testing.T) {
	var graphs []*stream.Graph
	for i, size := range [][2]int{{20, 30}, {100, 200}, {400, 500}, {1500, 2000}} {
		graphs = append(graphs, testGraph(int64(51+i), size[0], size[1]))
	}
	graphs = append(graphs, reverseStar(4000))
	type job struct {
		g    *stream.Graph
		opts Options
	}
	var jobs []job
	for _, g := range graphs {
		for _, k := range []int{2, 5, 10} {
			jobs = append(jobs, job{g, Options{Parts: k, Seed: 1}})
		}
	}
	want := make([][]int, len(jobs))
	for i, j := range jobs {
		want[i] = Partition(j.g, j.opts).Assign
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 2*len(jobs); r++ {
				i := (4*w + 7*r) % len(jobs)
				if got := Partition(jobs[i].g, jobs[i].opts).Assign; !slices.Equal(got, want[i]) {
					t.Errorf("worker %d: job %d partitioned differently than serially", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// refineRef is refine as it was before settled nodes: it computes every
// node's gains on every pass. It returns the number of those gain
// evaluations, n per pass, and leaves the obs counters alone.
func refineRef(g *wgraph, part []int, opts Options, rng *rand.Rand) uint64 {
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
	var evals uint64
	conn := make([]float64, opts.Parts) // reused across nodes
	for pass := 0; pass < opts.RefinePasses; pass++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		improved := false
		for _, v := range order {
			evals++
			from := part[v]
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
	return evals
}

// TestRefineMatchesReference runs refine and refineRef from the same
// partition and seed on random multigraphs of 2–300 nodes, a quarter of
// whose edges weigh zero (a gain of exactly 0 never moves a node, so such
// a node settles), with node weights spanning three orders of magnitude,
// 2–40 parts with uniform or random target shares, and starting
// partitions that are random, all on one part or all on the last part
// (overloaded, so balance moves fire). Both must end in the same
// partition and leave the generator in the same state.
func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	var skipped, evaluated uint64
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(299)
		var g wgraph
		g.nw = make([]float64, n)
		for v := range g.nw {
			g.nw[v] = math.Pow(10, 3*rng.Float64())
		}
		var eu, ev []int32
		var ew []float64
		for i := 0; i < (1+rng.Intn(4))*n; i++ {
			w := rng.Float64() * 100
			if rng.Intn(4) == 0 {
				w = 0
			}
			eu, ev, ew = append(eu, int32(rng.Intn(n))), append(ev, int32(rng.Intn(n))), append(ew, w)
		}
		ws.buildWGraph(&g, eu, ev, ew)
		opts := Options{Parts: 2 + rng.Intn(39), RefinePasses: 1 + rng.Intn(10)}
		if rng.Intn(2) == 0 {
			opts.TargetFractions = make([]float64, opts.Parts)
			var sum float64
			for p := range opts.TargetFractions {
				opts.TargetFractions[p] = 0.1 + rng.Float64()
				sum += opts.TargetFractions[p]
			}
			for p := range opts.TargetFractions {
				opts.TargetFractions[p] /= sum
			}
		}
		opts = opts.withDefaults()
		start := make([]int, n)
		switch trial % 3 {
		case 0:
			for v := range start {
				start[v] = rng.Intn(opts.Parts)
			}
		case 2:
			for v := range start {
				start[v] = opts.Parts - 1
			}
		}
		seed := rng.Int63()
		want := slices.Clone(start)
		refRNG := rand.New(rand.NewSource(seed))
		refEvals := refineRef(&g, want, opts, refRNG)
		got := slices.Clone(start)
		ws.rng.Seed(seed)
		before := obsRefineEvals.Value()
		ws.refine(&g, got, opts)
		evals := obsRefineEvals.Value() - before
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d, parts=%d): refine and refineRef end in different partitions", trial, n, opts.Parts)
		}
		if a, b := ws.rng.Int63(), refRNG.Int63(); a != b {
			t.Fatalf("trial %d: refine left the generator in another state than refineRef", trial)
		}
		if evals > refEvals {
			t.Fatalf("trial %d: refine evaluated %d nodes, refineRef %d", trial, evals, refEvals)
		}
		skipped += refEvals - evals
		evaluated += refEvals
	}
	t.Logf("settled nodes skipped %d of %d gain evaluations", skipped, evaluated)
	if skipped == 0 {
		t.Fatal("refine never skipped a settled node")
	}
}

// partitionRef is Partition with refineRef in place of refine, on the
// same hierarchy and random stream. It returns the partition and the
// number of gain evaluations refineRef made, n per pass per level.
func partitionRef(g *stream.Graph, opts Options) ([]int, uint64) {
	opts = opts.withDefaults()
	ws := &workspace{rng: rand.New(rand.NewSource(opts.Seed))}
	ws.load(g)
	top := ws.coarsen(opts.CoarsenTo, true)
	part := make([]int, ws.levels[top].g.n())
	ws.initialPartition(&ws.levels[top].g, part, opts)
	evals := refineRef(&ws.levels[top].g, part, opts, ws.rng)
	for li := top - 1; li >= 0; li-- {
		lv := ws.levels[li]
		fine := make([]int, lv.g.n())
		for v := range fine {
			fine[v] = part[lv.cmap[v]]
		}
		part = fine
		evals += refineRef(&lv.g, part, opts, ws.rng)
	}
	return part, evals
}

// TestRefineEvalsBoundedOnLargeGraphs partitions two Large graphs onto
// the Large cluster's 10 devices and reads metis_refine_evals_total: the
// partitions must equal partitionRef's, and refine must compute gains on
// at most 0.7 of the n × passes node visits refineRef evaluates.
func TestRefineEvalsBoundedOnLargeGraphs(t *testing.T) {
	s := gen.Large()
	for seed := int64(1); seed <= 2; seed++ {
		g := gen.Generate(s.Config, rand.New(rand.NewSource(seed)))
		opts := Options{Parts: s.Cluster.Devices, Seed: 1}
		want, refEvals := partitionRef(g, opts)
		before := obsRefineEvals.Value()
		got := Partition(g, opts).Assign
		evals := obsRefineEvals.Value() - before
		if !slices.Equal(got, want) {
			t.Fatalf("graph %d: Partition differs from partitionRef", seed)
		}
		t.Logf("graph %d (%d nodes): refine evaluated %d of refineRef's %d (%.2f)",
			seed, g.NumNodes(), evals, refEvals, float64(evals)/float64(refEvals))
		if 10*evals > 7*refEvals {
			t.Errorf("graph %d: refine evaluated %d nodes, want ≤ 0.7 × refineRef's %d", seed, evals, refEvals)
		}
	}
}

// TestPartitionAllocatesOnlyPlacement partitions a pinned Large graph
// with a warm workspace: the Placement and its Assign slice must be the
// only allocations.
func TestPartitionAllocatesOnlyPlacement(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under the race detector")
	}
	s := gen.Large()
	g := gen.Generate(s.Config, rand.New(rand.NewSource(1))).PinDemands()
	opts := Options{Parts: s.Cluster.Devices, Seed: 1}
	Partition(g, opts) // grow a pooled workspace to g
	if allocs := testing.AllocsPerRun(20, func() { Partition(g, opts) }); allocs != 2 {
		t.Fatalf("Partition made %v allocations per call, want 2 (the Placement and its Assign)", allocs)
	}
}
