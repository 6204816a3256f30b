package stream

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// chain builds a linear graph src → a → b → ... with n nodes.
func chain(n int, rate float64) *Graph {
	g := NewGraph(rate)
	for i := 0; i < n; i++ {
		g.AddNode(Node{IPT: 100, Payload: 1000, Selectivity: 1})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 0)
	}
	return g
}

// diamond builds src → {a, b} → sink.
func diamond(rate float64) *Graph {
	g := NewGraph(rate)
	for i := 0; i < 4; i++ {
		g.AddNode(Node{IPT: 100, Payload: 1000})
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	g.AddEdge(1, 3, 0)
	g.AddEdge(2, 3, 0)
	return g
}

func TestValidateChain(t *testing.T) {
	g := chain(5, 1000)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	g := chain(3, 1000)
	g.AddEdge(2, 0, 0)
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsDisconnected(t *testing.T) {
	g := chain(3, 1000)
	g.AddNode(Node{IPT: 1, Payload: 1})
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "connected") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsBadFeatures(t *testing.T) {
	g := chain(3, 1000)
	g.Nodes[1].IPT = -5
	if err := g.Validate(); err == nil {
		t.Fatal("negative IPT accepted")
	}
	g = chain(3, 0)
	if err := g.Validate(); err == nil {
		t.Fatal("zero source rate accepted")
	}
}

// TestValidateRejectsNonFiniteFeatures pins that NaN and ±Inf fail
// validation in every numeric field, not only out-of-range finite values
// (NaN passes a plain "< 0" check), and so do finite features whose
// steady-state loads or traffic overflow.
func TestValidateRejectsNonFiniteFeatures(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(g *Graph){
		"source rate NaN":   func(g *Graph) { g.SourceRate = nan },
		"source rate +Inf":  func(g *Graph) { g.SourceRate = inf },
		"node IPT NaN":      func(g *Graph) { g.Nodes[1].IPT = nan },
		"node IPT +Inf":     func(g *Graph) { g.Nodes[1].IPT = inf },
		"node payload NaN":  func(g *Graph) { g.Nodes[1].Payload = nan },
		"node payload +Inf": func(g *Graph) { g.Nodes[1].Payload = inf },
		"selectivity NaN":   func(g *Graph) { g.Nodes[1].Selectivity = nan },
		"selectivity +Inf":  func(g *Graph) { g.Nodes[1].Selectivity = inf },
		"state NaN":         func(g *Graph) { g.Nodes[1].State = nan },
		"state +Inf":        func(g *Graph) { g.Nodes[1].State = inf },
		"state negative":    func(g *Graph) { g.Nodes[1].State = -1 },
		"edge payload NaN":  func(g *Graph) { g.Edges[0].Payload = nan },
		"edge payload +Inf": func(g *Graph) { g.Edges[0].Payload = inf },
		"edge payload -Inf": func(g *Graph) { g.Edges[0].Payload = -inf },
		// Finite features whose steady-state demands overflow to +Inf.
		"every edge payload 1e308": func(g *Graph) {
			for i := range g.Edges {
				g.Edges[i].Payload = 1e308
			}
		},
		"one IPT 1e308": func(g *Graph) { g.Nodes[1].IPT = 1e308 },
		"every selectivity 1e300": func(g *Graph) {
			for i := range g.Nodes {
				g.Nodes[i].Selectivity = 1e300
			}
		},
	} {
		g := chain(3, 1000)
		mut(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestAddEdgeSelfLoopRejectedByValidate(t *testing.T) {
	g := chain(3, 100)
	g.Edges = append(g.Edges, Edge{Src: 1, Dst: 1, Payload: 1})
	g.invalidate()
	if err := g.Validate(); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestTopoOrderRespectsEdges(t *testing.T) {
	g := diamond(100)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges {
		if pos[e.Src] >= pos[e.Dst] {
			t.Fatalf("edge (%d,%d) violates order", e.Src, e.Dst)
		}
	}
}

func TestSourcesSinks(t *testing.T) {
	g := diamond(100)
	if s := g.Sources(); len(s) != 1 || s[0] != 0 {
		t.Fatalf("sources = %v", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != 3 {
		t.Fatalf("sinks = %v", s)
	}
}

func TestSteadyRatesChain(t *testing.T) {
	g := chain(3, 500)
	rates := g.SteadyRates()
	for v, r := range rates {
		if r != 500 {
			t.Fatalf("node %d rate %g, want 500", v, r)
		}
	}
}

func TestSteadyRatesFanInAddsUp(t *testing.T) {
	g := diamond(100)
	rates := g.SteadyRates()
	// Sink receives 100 from each branch → outputs 200 (selectivity 1).
	if rates[3] != 200 {
		t.Fatalf("sink rate %g, want 200", rates[3])
	}
}

func TestSteadyRatesSelectivity(t *testing.T) {
	g := chain(3, 100)
	g.Nodes[1].Selectivity = 0.5
	rates := g.SteadyRates()
	if rates[1] != 50 || rates[2] != 50 {
		t.Fatalf("rates = %v", rates)
	}
}

func TestNodeLoadChain(t *testing.T) {
	g := chain(3, 100)
	load := g.NodeLoad()
	for v, l := range load {
		if l != 100*100 { // IPT 100 × rate 100
			t.Fatalf("node %d load %g", v, l)
		}
	}
}

func TestEdgeTraffic(t *testing.T) {
	g := chain(2, 100)
	tr := g.EdgeTraffic()
	if tr[0] != 1000*100 {
		t.Fatalf("traffic %g", tr[0])
	}
}

func TestPlacementValidate(t *testing.T) {
	g := chain(4, 100)
	p := NewPlacement(4, 2)
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
	p.Assign[2] = 5
	if err := p.Validate(g); err == nil {
		t.Fatal("out-of-range device accepted")
	}
	short := NewPlacement(3, 2)
	if err := short.Validate(g); err == nil {
		t.Fatal("short placement accepted")
	}
}

func TestUsedDevices(t *testing.T) {
	p := &Placement{Assign: []int{0, 2, 2, 0}, Devices: 5}
	if got := p.UsedDevices(); got != 2 {
		t.Fatalf("used = %d", got)
	}
}

func TestCollapseEdgesChain(t *testing.T) {
	g := chain(4, 100)
	cm := CollapseEdges(g, []bool{true, false, true})
	if cm.NumSuper != 2 {
		t.Fatalf("supers = %d", cm.NumSuper)
	}
	if cm.Super[0] != cm.Super[1] || cm.Super[2] != cm.Super[3] || cm.Super[0] == cm.Super[2] {
		t.Fatalf("super = %v", cm.Super)
	}
}

func TestCollapseNothingIsIdentity(t *testing.T) {
	g := diamond(100)
	cm := CollapseEdges(g, make([]bool, g.NumEdges()))
	if cm.NumSuper != g.NumNodes() {
		t.Fatalf("supers = %d", cm.NumSuper)
	}
	if cm.CompressionRatio() != 1 {
		t.Fatalf("ratio = %g", cm.CompressionRatio())
	}
}

func TestCollapseAllMergesEverything(t *testing.T) {
	g := diamond(100)
	all := make([]bool, g.NumEdges())
	for i := range all {
		all[i] = true
	}
	cm := CollapseEdges(g, all)
	if cm.NumSuper != 1 {
		t.Fatalf("supers = %d", cm.NumSuper)
	}
	if cm.CompressionRatio() != 4 {
		t.Fatalf("ratio = %g", cm.CompressionRatio())
	}
}

func TestCoarseGraphConservesLoadAndTraffic(t *testing.T) {
	g := diamond(100)
	cm := CollapseEdges(g, []bool{true, false, false, false}) // merge 0,1
	cg := CoarseGraph(g, cm)
	if cg.NumNodes() != 3 {
		t.Fatalf("coarse nodes = %d", cg.NumNodes())
	}
	// Total CPU demand is conserved.
	if math.Abs(cg.TotalLoad()-g.TotalLoad()) > 1e-6 {
		t.Fatalf("load %g != %g", cg.TotalLoad(), g.TotalLoad())
	}
	// Total traffic equals original cross-super traffic.
	var want float64
	tr := g.EdgeTraffic()
	for ei, e := range g.Edges {
		if cm.Super[e.Src] != cm.Super[e.Dst] {
			want += tr[ei]
		}
	}
	var got float64
	for _, x := range cg.EdgeTraffic() {
		got += x
	}
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("traffic %g != %g", got, want)
	}
}

// CoarseGraphMapReference is the map-based CoarseGraph, kept as the
// reference TestCoarseGraphMatchesMapReference compares CoarseGraph
// against bit for bit: super-edge traffic summed in a map keyed by
// (source, destination) super-node, keys sorted, nodes named. It is
// exported because that test needs the gen package and so lives in
// package stream_test (coarse_test.go).
func CoarseGraphMapReference(g *Graph, cm *CoarseMap) *Graph {
	load := g.NodeLoad()
	traffic := g.EdgeTraffic()
	cg := NewGraph(g.SourceRate)
	superLoad := make([]float64, cm.NumSuper)
	for v, s := range cm.Super {
		superLoad[s] += load[v]
	}
	for s := 0; s < cm.NumSuper; s++ {
		cg.AddNode(Node{
			IPT:         superLoad[s] / g.SourceRate,
			Payload:     0,
			Selectivity: 1,
			Name:        fmt.Sprintf("s%d", s),
		})
	}
	agg := make(map[int]float64)
	for ei, e := range g.Edges {
		su, sv := cm.Super[e.Src], cm.Super[e.Dst]
		if su == sv {
			continue
		}
		agg[su*cm.NumSuper+sv] += traffic[ei]
	}
	keys := make([]int, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	superTraffic := make([]float64, 0, len(keys))
	for _, k := range keys {
		su, sv := k/cm.NumSuper, k%cm.NumSuper
		cg.AddEdge(su, sv, agg[k]/g.SourceRate)
		superTraffic = append(superTraffic, agg[k])
	}
	cg.SetDemandOverrides(superLoad, superTraffic)
	return cg
}

func TestExpandPlacement(t *testing.T) {
	g := chain(4, 100)
	cm := CollapseEdges(g, []bool{true, false, true})
	cp := NewPlacement(2, 3)
	cp.Assign = []int{2, 0}
	p := ExpandPlacement(cm, cp)
	if p.Assign[0] != 2 || p.Assign[1] != 2 || p.Assign[2] != 0 || p.Assign[3] != 0 {
		t.Fatalf("assign = %v", p.Assign)
	}
}

func TestMembersSortedAndComplete(t *testing.T) {
	g := chain(5, 100)
	cm := CollapseEdges(g, []bool{false, true, true, false})
	members := cm.Members()
	total := 0
	for _, grp := range members {
		total += len(grp)
		for i := 1; i < len(grp); i++ {
			if grp[i] <= grp[i-1] {
				t.Fatal("members not sorted")
			}
		}
	}
	if total != 5 {
		t.Fatalf("member total = %d", total)
	}
}

// Property: for random graphs and random collapse decisions, the coarse
// graph conserves total CPU demand, and every super id is in range.
func TestQuickCoarseningConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := NewGraph(100)
		for i := 0; i < n; i++ {
			g.AddNode(Node{IPT: 1 + rng.Float64()*100, Payload: 1 + rng.Float64()*1000})
		}
		// Random DAG edges forward in index order; connect i to i-1 to stay connected.
		for i := 1; i < n; i++ {
			g.AddEdge(rng.Intn(i), i, 0)
			if rng.Float64() < 0.4 && i >= 2 {
				u := rng.Intn(i)
				g.AddEdge(u, i, 0)
			}
		}
		collapse := make([]bool, g.NumEdges())
		for i := range collapse {
			collapse[i] = rng.Float64() < 0.5
		}
		cm := CollapseEdges(g, collapse)
		for _, s := range cm.Super {
			if s < 0 || s >= cm.NumSuper {
				return false
			}
		}
		cg := CoarseGraph(g, cm)
		if math.Abs(cg.TotalLoad()-g.TotalLoad()) > 1e-5*g.TotalLoad() {
			return false
		}
		// Coarse graph has no self-loops.
		for _, e := range cg.Edges {
			if e.Src == e.Dst {
				return false
			}
		}
		return cg.NumNodes() == cm.NumSuper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: expanding any coarse placement yields a valid placement where
// all members of a super-node share a device.
func TestQuickExpandPlacementConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(15)
		g := NewGraph(10)
		for i := 0; i < n; i++ {
			g.AddNode(Node{IPT: 1, Payload: 1})
		}
		for i := 1; i < n; i++ {
			g.AddEdge(rng.Intn(i), i, 0)
		}
		collapse := make([]bool, g.NumEdges())
		for i := range collapse {
			collapse[i] = rng.Float64() < 0.3
		}
		cm := CollapseEdges(g, collapse)
		devices := 1 + rng.Intn(5)
		cp := NewPlacement(cm.NumSuper, devices)
		for i := range cp.Assign {
			cp.Assign[i] = rng.Intn(devices)
		}
		p := ExpandPlacement(cm, cp)
		if err := p.Validate(g); err != nil {
			return false
		}
		for v, s := range cm.Super {
			if p.Assign[v] != cp.Assign[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDOTContainsNodesAndEdges(t *testing.T) {
	g := chain(3, 100)
	p := NewPlacement(3, 2)
	dot := g.DOT(p)
	if !strings.Contains(dot, "n0 -> n1") || !strings.Contains(dot, "fillcolor") {
		t.Fatalf("dot output:\n%s", dot)
	}
}
