package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/autodiff"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

func testSetup(t *testing.T) (*stream.Graph, sim.Cluster, *Model) {
	t.Helper()
	c := sim.DefaultCluster(5, 1000)
	cfg := gen.DefaultConfig(40, 60, 10_000, c)
	g := gen.Generate(cfg, rand.New(rand.NewSource(3)))
	m := New(Config{Hidden: 8, EdgeDim: 4, MergeDim: 8, Hops: 2, Seed: 1,
		UseEdgeEncoding: true, UseEdgeCollapse: true})
	return g, c, m
}

func TestProbsInUnitInterval(t *testing.T) {
	g, c, m := testSetup(t)
	probs := m.Probs(g, c)
	if len(probs) != g.NumEdges() {
		t.Fatalf("probs length %d, edges %d", len(probs), g.NumEdges())
	}
	for i, p := range probs {
		if p <= 0 || p >= 1 || math.IsNaN(p) {
			t.Fatalf("prob[%d] = %g", i, p)
		}
	}
}

func TestInitialBiasTowardSparseCollapse(t *testing.T) {
	g, c, m := testSetup(t)
	probs := m.Probs(g, c)
	var mean float64
	for _, p := range probs {
		mean += p
	}
	mean /= float64(len(probs))
	if mean > 0.4 {
		t.Fatalf("untrained mean collapse prob %g; want sparse (<0.4)", mean)
	}
}

func TestGreedyMatchesProbsThreshold(t *testing.T) {
	g, c, m := testSetup(t)
	probs := m.Probs(g, c)
	d := m.Greedy(g, c)
	for i := range d {
		if d[i] != (probs[i] >= 0.5) {
			t.Fatal("greedy decision mismatch")
		}
	}
}

// sampleDecision draws Bernoulli collapse decisions from the model's
// merge probabilities.
func sampleDecision(m *Model, g *stream.Graph, c sim.Cluster, rng *rand.Rand) Decision {
	probs := m.Probs(g, c)
	d := make(Decision, len(probs))
	for i, p := range probs {
		d[i] = rng.Float64() < p
	}
	return d
}

func TestLogProbLossGradientDirection(t *testing.T) {
	// With positive advantage, a gradient step must increase the
	// probability of the sampled decisions.
	g, c, m := testSetup(t)
	d := sampleDecision(m, g, c, rand.New(rand.NewSource(7)))
	before := m.Probs(g, c)

	f := gnn.BuildFeatures(g, c)
	opt := nn.NewAdam(0.01)
	for i := 0; i < 20; i++ {
		tape := autodiff.NewTape()
		b := nn.NewBinder(tape)
		probs := m.EdgeProbs(b, f)
		loss := LogProbLoss(b, probs, d, 1.0/float64(len(d)))
		m.PS.ZeroGrads()
		tape.Backward(loss, nil)
		b.Collect()
		opt.Step(m.PS)
	}
	after := m.Probs(g, c)
	var likBefore, likAfter float64
	for i := range d {
		if d[i] {
			likBefore += math.Log(before[i])
			likAfter += math.Log(after[i])
		} else {
			likBefore += math.Log(1 - before[i])
			likAfter += math.Log(1 - after[i])
		}
	}
	if likAfter <= likBefore {
		t.Fatalf("likelihood did not increase: %g -> %g", likBefore, likAfter)
	}
}

func TestAblationTogglesChangeOutput(t *testing.T) {
	g, c, _ := testSetup(t)
	base := New(Config{Hidden: 8, EdgeDim: 4, MergeDim: 8, Seed: 1, UseEdgeEncoding: true, UseEdgeCollapse: true})
	noEnc := New(Config{Hidden: 8, EdgeDim: 4, MergeDim: 8, Seed: 1, UseEdgeEncoding: false, UseEdgeCollapse: true})
	noCol := New(Config{Hidden: 8, EdgeDim: 4, MergeDim: 8, Seed: 1, UseEdgeEncoding: true, UseEdgeCollapse: false})
	pb, pe, pc := base.Probs(g, c), noEnc.Probs(g, c), noCol.Probs(g, c)
	if equalFloats(pb, pe) {
		t.Fatal("edge-encoding toggle had no effect")
	}
	if equalFloats(pb, pc) {
		t.Fatal("edge-collapse toggle had no effect")
	}
}

func equalFloats(a, b []float64) bool {
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			return false
		}
	}
	return true
}

func TestAllocateDecisionRoundTrip(t *testing.T) {
	g, c, m := testSetup(t)
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	d := sampleDecision(m, g, c, rand.New(rand.NewSource(8)))
	a := pipe.AllocateDecision(g, c, d)
	if err := a.Placement.Validate(g); err != nil {
		t.Fatal(err)
	}
	if a.CoarseGraph.NumNodes() != a.Coarse.NumSuper {
		t.Fatal("coarse graph size mismatch")
	}
	// All members of a super-node share a device.
	for v, s := range a.Coarse.Super {
		for w, s2 := range a.Coarse.Super {
			if s == s2 && a.Placement.Assign[v] != a.Placement.Assign[w] {
				t.Fatal("super-node split across devices")
			}
		}
	}
}

func TestAllocateNeverWorseThanNoCoarsen(t *testing.T) {
	// The ranked sweep includes the no-coarsening candidate, so its result
	// can never be worse than handing the raw graph to the placer.
	g, c, m := testSetup(t)
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	a := pipe.Allocate(g, c)
	raw := pipe.AllocateDecision(g, c, make(Decision, g.NumEdges()))
	if sim.Reward(g, a.Placement, c) < sim.Reward(g, raw.Placement, c)-1e-12 {
		t.Fatal("sweep returned worse than the no-coarsen candidate")
	}
}

func TestAllocateGreedyValid(t *testing.T) {
	g, c, m := testSetup(t)
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	a := pipe.AllocateGreedy(g, c)
	if err := a.Placement.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateRankedRespectsRanking(t *testing.T) {
	// Rank exactly one edge first with a huge score; any coarsening the
	// sweep evaluates beyond the no-op must include that edge.
	g, c, m := testSetup(t)
	pipe := &Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	score := make([]float64, g.NumEdges())
	score[3] = 100
	a := pipe.AllocateRanked(g, c, score)
	if a.Coarse.NumSuper < g.NumNodes() { // some coarsening won
		e := g.Edges[3]
		if a.Coarse.Super[e.Src] != a.Coarse.Super[e.Dst] {
			t.Fatal("top-ranked edge not collapsed in a coarsened winner")
		}
	}
}

// recordingPlacer wraps a placer and keeps every coarse graph it is
// handed, with the placement it returned and a print of both taken then.
type recordingPlacer struct {
	inner  placer.Placer
	graphs []*stream.Graph
	places []*stream.Placement
	prints []string
}

func (r *recordingPlacer) Place(g *stream.Graph, c sim.Cluster) *stream.Placement {
	p := r.inner.Place(g, c)
	r.graphs = append(r.graphs, g)
	r.places = append(r.places, p)
	r.prints = append(r.prints, placedPrint(g, p))
	return p
}

func (r *recordingPlacer) Name() string { return "recording-" + r.inner.Name() }

// placedPrint renders a coarse graph's nodes, edges and demands and a
// placement of it. %v prints the shortest decimal that reads back as the
// same float64, so equal prints mean bit-equal values.
func placedPrint(g *stream.Graph, p *stream.Placement) string {
	return fmt.Sprint(g.SourceRate, g.Nodes, g.Edges, g.NodeLoad(), g.EdgeTraffic(), p.Devices, p.Assign)
}

// TestAllocateRankedLeavesRetainedOutputsIntact keeps every coarse graph
// and placement the sweep hands its placer, as perfbench's timed placer
// does, and requires each to read as it did when handed over, after
// AllocateRanked returns and again after a second call on another graph:
// nothing a caller may keep can share memory with the partitioner's
// pooled workspaces.
func TestAllocateRankedLeavesRetainedOutputsIntact(t *testing.T) {
	s := gen.Large()
	model := New(DefaultConfig())
	rec := &recordingPlacer{inner: placer.Metis{Seed: 1}}
	pipe := &Pipeline{Model: model, Placer: rec}
	for seed := int64(1); seed <= 2; seed++ {
		g := gen.Generate(s.Config, rand.New(rand.NewSource(seed)))
		pipe.AllocateRanked(g, s.Cluster, model.Probs(g, s.Cluster))
		for i, cg := range rec.graphs {
			if placedPrint(cg, rec.places[i]) != rec.prints[i] {
				t.Fatalf("after call %d: candidate %d's coarse graph or placement changed after Place returned", seed, i)
			}
		}
	}
	if len(rec.graphs) < 20 {
		t.Fatalf("two sweeps placed %d candidates, want the 16-candidate grid twice over", len(rec.graphs))
	}
}

// TestAllocateRankedReturnsBestScoredCandidate pins the sweep's contract:
// rebuilding every candidate the placer saw (CoarsenToRanked at its
// super-node count → CollapseEdges → ExpandPlacement → sim.Reward), the
// result is the first candidate that reaches the maximum reward, since the
// sweep keeps only strict improvements, and the Allocation records that
// candidate's index and reward. Each graph also runs on a cluster
// roomy enough that every candidate scores 1, where only the first may win.
func TestAllocateRankedReturnsBestScoredCandidate(t *testing.T) {
	model := New(DefaultConfig())
	for _, s := range []gen.Setting{gen.Small(), gen.Medium(), gen.Large(), gen.Excess()} {
		g := gen.Generate(s.Config, rand.New(rand.NewSource(17)))
		probs := model.Probs(g, s.Cluster)
		roomy := s.Cluster
		roomy.MIPS *= 1e9
		roomy.Bandwidth *= 1e9
		for _, tc := range []struct {
			inner placer.Placer
			c     sim.Cluster
			name  string
		}{
			{placer.Metis{Seed: 1}, s.Cluster, "metis"},
			{placer.RoundRobin{}, s.Cluster, "round-robin"},
			{placer.RoundRobin{}, roomy, "round-robin-roomy"},
		} {
			label := s.Name + "/" + tc.name
			rec := &recordingPlacer{inner: tc.inner}
			a := (&Pipeline{Model: model, Placer: rec}).AllocateRanked(g, tc.c, probs)
			best, bestR := -1, math.Inf(-1)
			var bestP *stream.Placement
			for i, cg := range rec.graphs {
				cm := stream.CollapseEdges(g, CoarsenToRanked(g, cg.NumNodes(), probs))
				if cm.NumSuper != cg.NumNodes() {
					t.Fatalf("%s: candidate %d rebuilt %d super-nodes, the placer saw %d", label, i, cm.NumSuper, cg.NumNodes())
				}
				p := stream.ExpandPlacement(cm, rec.places[i])
				if r := sim.Reward(g, p, tc.c); r > bestR {
					best, bestR, bestP = i, r, p
				}
			}
			if best < 0 {
				t.Fatalf("%s: the sweep placed no candidate", label)
			}
			if a.CoarseGraph != rec.graphs[best] {
				got := slices.Index(rec.graphs, a.CoarseGraph)
				t.Fatalf("%s: sweep returned candidate %d of %d, want %d (reward %v)", label, got, len(rec.graphs), best, bestR)
			}
			if !slices.Equal(a.Placement.Assign, bestP.Assign) {
				t.Fatalf("%s: placement differs from the rebuilt best candidate's", label)
			}
			if r := sim.Reward(g, a.Placement, tc.c); math.Float64bits(r) != math.Float64bits(bestR) {
				t.Fatalf("%s: reward %v, rebuilt best %v", label, r, bestR)
			}
			if a.Candidate != best || math.Float64bits(a.Reward) != math.Float64bits(bestR) {
				t.Fatalf("%s: recorded candidate %d reward %v, rebuilt best %d reward %v", label, a.Candidate, a.Reward, best, bestR)
			}
		}
	}
}

// randomPlacer assigns every operator to a uniformly random device.
type randomPlacer struct{ rng *rand.Rand }

func (r randomPlacer) Place(g *stream.Graph, c sim.Cluster) *stream.Placement {
	p := stream.NewPlacement(g.NumNodes(), c.Devices)
	for v := range p.Assign {
		p.Assign[v] = r.rng.Intn(c.Devices)
	}
	return p
}

func (randomPlacer) Name() string { return "random" }

// TestSweepTargetsPinned pins the rank sweep's schedule at the (nodes,
// devices) shapes of the Small, Medium, Large, XLarge and Excess presets.
func TestSweepTargetsPinned(t *testing.T) {
	for _, tc := range []struct {
		preset     string
		n, devices int
		want       []int
	}{
		{"small", 4, 5, []int{4, 3, 2, 1}},
		{"small", 26, 5, []int{26, 23, 21, 19, 16, 14, 11, 9, 6, 5, 3, 2, 1}},
		{"medium", 150, 10, []int{150, 138, 126, 112, 97, 82, 67, 52, 37, 20, 10, 7, 5, 2}},
		{"large", 450, 10, []int{450, 414, 378, 337, 292, 247, 202, 157, 112, 80, 40, 20, 10, 7, 5, 2}},
		{"xlarge", 1500, 20, []int{1500, 1380, 1260, 1125, 975, 825, 675, 525, 375, 160, 80, 40, 20, 15, 10, 5}},
		{"excess", 412, 10, []int{412, 379, 346, 309, 267, 226, 185, 144, 103, 80, 40, 20, 10, 7, 5, 2}},
	} {
		if got := sweepTargets(tc.n, tc.devices); !slices.Equal(got, tc.want) {
			t.Errorf("%s: sweepTargets(%d, %d) = %v, want %v", tc.preset, tc.n, tc.devices, got, tc.want)
		}
	}
}

// TestCollapseExpandProperties checks two properties of the paper's model
// on Small, Medium and Large graphs with random decision vectors, from no
// edge collapsed to every edge, under random, round-robin and Metis
// placements of the coarse graph: CollapseEdges∘ExpandPlacement puts both
// endpoints of every collapsed edge on one device, and sim.Reward of the
// expanded placement is finite and in [0,1].
func TestCollapseExpandProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range []gen.Setting{gen.Small(), gen.Medium(), gen.Large()} {
		for gi, g := range gen.GenerateSet(s.Config, 3, 29) {
			for _, pl := range []placer.Placer{randomPlacer{rng}, placer.RoundRobin{}, placer.Metis{Seed: 1}} {
				for _, frac := range []float64{0, 0.1, 0.5, 0.9, 1} {
					label := fmt.Sprintf("%s graph %d, %s, collapse fraction %g", s.Name, gi, pl.Name(), frac)
					d := make(Decision, len(g.Edges))
					for e := range d {
						d[e] = rng.Float64() < frac
					}
					a := (&Pipeline{Placer: pl}).AllocateDecision(g, s.Cluster, d)
					if err := a.Placement.Validate(g); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for e, ed := range g.Edges {
						if d[e] && a.Placement.Assign[ed.Src] != a.Placement.Assign[ed.Dst] {
							t.Fatalf("%s: collapsed edge %d (%d→%d) split over devices %d and %d", label,
								e, ed.Src, ed.Dst, a.Placement.Assign[ed.Src], a.Placement.Assign[ed.Dst])
						}
					}
					if r := sim.Reward(g, a.Placement, s.Cluster); math.IsNaN(r) || r < 0 || r > 1 {
						t.Fatalf("%s: reward %v outside [0,1]", label, r)
					}
				}
			}
		}
	}
}

func TestCoarsenOnlyTargetsDeviceCount(t *testing.T) {
	g, c, m := testSetup(t)
	a := m.CoarsenOnly(g, c)
	if a.Coarse.NumSuper > c.Devices {
		// Only possible when the graph is disconnected beyond repair; our
		// generated graphs are weakly connected, so this must reach the
		// device count.
		t.Fatalf("coarsen-only left %d super-nodes for %d devices", a.Coarse.NumSuper, c.Devices)
	}
	if err := a.Placement.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Each super-node maps to a distinct device (round-robin over ≤ k).
	if a.Placement.UsedDevices() != a.Coarse.NumSuper {
		t.Fatalf("used %d devices for %d super-nodes", a.Placement.UsedDevices(), a.Coarse.NumSuper)
	}
}

// Property: EdgeProbs output is finite and in (0,1) for random graphs.
func TestQuickEdgeProbsWellFormed(t *testing.T) {
	c := sim.DefaultCluster(5, 1000)
	cfg := gen.DefaultConfig(10, 40, 10_000, c)
	m := New(Config{Hidden: 6, EdgeDim: 3, MergeDim: 6, Seed: 2, UseEdgeEncoding: true, UseEdgeCollapse: true})
	f := func(seed int64) bool {
		g := gen.Generate(cfg, rand.New(rand.NewSource(seed)))
		for _, p := range m.Probs(g, c) {
			if p <= 0 || p >= 1 || math.IsNaN(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDefaultsFilledIn(t *testing.T) {
	m := New(Config{Seed: 1, UseEdgeEncoding: true, UseEdgeCollapse: true})
	if m.Cfg.Hidden == 0 || m.Cfg.MergeDim == 0 || m.Cfg.Hops == 0 {
		t.Fatal("defaults not applied")
	}
}

func TestCoarsenToTargets(t *testing.T) {
	g, c, m := testSetup(t)
	probs := m.Probs(g, c)
	for _, target := range []int{1, 3, 10, g.NumNodes()} {
		d := CoarsenToRanked(g, target, probs)
		cm := stream.CollapseEdges(g, d)
		if cm.NumSuper > target && target >= 1 {
			// Only reachable if the graph is disconnected; generated
			// graphs are weakly connected.
			t.Fatalf("target %d: got %d super-nodes", target, cm.NumSuper)
		}
	}
	// Target = node count means no collapsing at all.
	d := CoarsenToRanked(g, g.NumNodes(), probs)
	for _, x := range d {
		if x {
			t.Fatal("collapsed edges despite identity target")
		}
	}
}
