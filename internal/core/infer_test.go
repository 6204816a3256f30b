package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// TestInferProbsBitIdentical pins the serving contract: the tape-free
// forward pass must produce bit-for-bit the same merge probabilities as
// the training-path tape, for the live values and for a snapshot, across
// a spread of graph sizes and both ablation configs.
func TestInferProbsBitIdentical(t *testing.T) {
	for _, s := range []gen.Setting{gen.Small(), gen.Medium5K()} {
		graphs := s.Generate().Test
		if len(graphs) > 4 {
			graphs = graphs[:4]
		}
		for _, cfg := range []Config{
			DefaultConfig(),
			{UseEdgeEncoding: false, UseEdgeCollapse: false, Seed: 7},
		} {
			mo := New(cfg)
			snap := nn.NewSnapshot(mo.PS)
			for gi, g := range graphs {
				want := mo.Probs(g, s.Cluster)
				gotLive := mo.InferProbs(g, s.Cluster, nn.LiveValues{})
				gotSnap := mo.InferProbs(g, s.Cluster, snap)
				if len(want) != len(gotLive) || len(want) != len(gotSnap) {
					t.Fatalf("%s graph %d: length mismatch %d/%d/%d",
						s.Name, gi, len(want), len(gotLive), len(gotSnap))
				}
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(gotLive[i]) {
						t.Fatalf("%s graph %d edge %d (live): tape %v infer %v",
							s.Name, gi, i, want[i], gotLive[i])
					}
					if math.Float64bits(want[i]) != math.Float64bits(gotSnap[i]) {
						t.Fatalf("%s graph %d edge %d (snapshot): tape %v infer %v",
							s.Name, gi, i, want[i], gotSnap[i])
					}
				}
			}
		}
	}
}

// TestInferProbsAcrossGOMAXPROCS pins that the tape-free path is
// bit-identical whether the blocked kernels run serial or parallel.
func TestInferProbsAcrossGOMAXPROCS(t *testing.T) {
	s := gen.Medium5K()
	g := s.Generate().Test[0]
	mo := New(DefaultConfig())

	prev := runtime.GOMAXPROCS(1)
	one := mo.InferProbs(g, s.Cluster, nn.LiveValues{})
	runtime.GOMAXPROCS(prev)
	many := mo.InferProbs(g, s.Cluster, nn.LiveValues{})
	for i := range one {
		if math.Float64bits(one[i]) != math.Float64bits(many[i]) {
			t.Fatalf("edge %d: GOMAXPROCS=1 %v, GOMAXPROCS=%d %v", i, one[i], prev, many[i])
		}
	}
}

// TestAllocateRankedOnInferProbs pins the end-to-end serving claim at the
// core layer: ranking the zero-tape probabilities yields exactly the
// placement the offline Pipeline.Allocate computes.
func TestAllocateRankedOnInferProbs(t *testing.T) {
	s := gen.Small()
	pl := &Pipeline{Model: New(DefaultConfig()), Placer: placer.Metis{Seed: 1}}
	snap := nn.NewSnapshot(pl.Model.PS)
	for gi, g := range s.Generate().Test[:4] {
		offline := pl.Allocate(g, s.Cluster)
		served := pl.AllocateRanked(g, s.Cluster, pl.Model.InferProbs(g, s.Cluster, snap))
		if len(offline.Placement.Assign) != len(served.Placement.Assign) {
			t.Fatalf("graph %d: assign length mismatch", gi)
		}
		for i := range offline.Placement.Assign {
			if offline.Placement.Assign[i] != served.Placement.Assign[i] {
				t.Fatalf("graph %d node %d: offline device %d, served device %d",
					gi, i, offline.Placement.Assign[i], served.Placement.Assign[i])
			}
		}
		ro := sim.Reward(g, offline.Placement, s.Cluster)
		rs := sim.Reward(g, served.Placement, s.Cluster)
		if math.Float64bits(ro) != math.Float64bits(rs) {
			t.Fatalf("graph %d: reward mismatch %v vs %v", gi, ro, rs)
		}
	}
}

// gatherThenProjectProbs is EdgeProbs with the edge head's endpoint
// projections written as the MatMul∘GatherRows pair that GatherMatMul
// replaces: every edge projects its own gathered endpoint row.
func gatherThenProjectProbs(mo *Model, b *nn.Binder, f *gnn.Features) *autodiff.Node {
	t := b.Tape
	h := mo.Enc.Encode(b, f)
	hHead := t.MatMul(t.GatherRows(h, f.Src), t.Transpose(b.Node(mo.wHead)))
	hTail := t.MatMul(t.GatherRows(h, f.Dst), t.Transpose(b.Node(mo.wTail)))
	var eProj *autodiff.Node
	if mo.Cfg.UseEdgeCollapse {
		eProj = t.MatMul(t.Const(f.Edge), t.Transpose(b.Node(mo.wEdge)))
	} else {
		eProj = t.Const(tensor.New(f.Edge.Rows, mo.Cfg.EdgeDim))
	}
	hEdge := t.MatMul(t.ConcatCols(hHead, hTail, eProj), t.Transpose(b.Node(mo.w1m)))
	return mo.head.Apply(b, hEdge)
}

// randEdgeFeatures builds random features straight from Src/Dst vectors,
// leaving the last `isolated` nodes without incident edges.
func randEdgeFeatures(rng *rand.Rand, nodes, edges, isolated int) *gnn.Features {
	nf := tensor.New(nodes, gnn.NodeFeatureDim)
	nf.RandUniform(rng, 1)
	ef := tensor.New(edges, gnn.EdgeFeatureDim)
	ef.RandUniform(rng, 1)
	src := make([]int, edges)
	dst := make([]int, edges)
	for e := range src {
		src[e] = rng.Intn(nodes - isolated)
		dst[e] = rng.Intn(nodes - isolated)
	}
	f := &gnn.Features{Node: nf, Edge: ef, Src: src, Dst: dst}
	f.EnsureCSR()
	return f
}

// TestEdgeProbsBitIdenticalToGatherThenProject pins the node-level edge
// head: probabilities (tape and zero-tape) and every parameter gradient
// match the gather-then-project reference by Float64bits, on graphs with
// isolated nodes, odd M and a shape above the kernels' parallel gate, at
// GOMAXPROCS 1 and NumCPU.
func TestEdgeProbsBitIdenticalToGatherThenProject(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := []struct {
		nodes, edges, isolated, m, k int
	}{
		{9, 14, 3, 4, 2},
		{40, 70, 5, 7, 2},
		{120, 260, 1, 6, 3},
		{700, 3200, 10, 24, 2},
	}
	for si, sh := range shapes {
		rng := rand.New(rand.NewSource(int64(70 + si)))
		f := randEdgeFeatures(rng, sh.nodes, sh.edges, sh.isolated)
		seed := tensor.New(sh.edges, 1)
		seed.RandUniform(rng, 1)
		for _, collapse := range []bool{true, false} {
			mo := New(Config{Hidden: sh.m, EdgeDim: 5, MergeDim: 9, Hops: sh.k, Seed: int64(si),
				UseEdgeEncoding: true, UseEdgeCollapse: collapse})
			run := func(probs func(*Model, *nn.Binder, *gnn.Features) *autodiff.Node) []*tensor.Matrix {
				b := nn.NewBinder(autodiff.NewTape())
				p := probs(mo, b, f)
				b.Tape.Backward(p, seed)
				mo.PS.ZeroGrads()
				b.Collect()
				out := []*tensor.Matrix{p.Value.Clone()}
				for _, prm := range mo.PS.All() {
					out = append(out, prm.Grad.Clone())
				}
				return out
			}
			runtime.GOMAXPROCS(1)
			want := run(gatherThenProjectProbs)
			for _, procs := range []int{1, runtime.NumCPU()} {
				runtime.GOMAXPROCS(procs)
				got := run((*Model).EdgeProbs)
				for i, w := range want {
					name := "probs"
					if i > 0 {
						name = mo.PS.All()[i-1].Name + " grad"
					}
					for j := range w.Data {
						if math.Float64bits(got[i].Data[j]) != math.Float64bits(w.Data[j]) {
							t.Fatalf("shape %d collapse %v procs %d: %s[%d] %v vs reference %v",
								si, collapse, procs, name, j, got[i].Data[j], w.Data[j])
						}
					}
				}
				inf := mo.InferProbsInto(nn.LiveValues{}, f, make([]float64, sh.edges))
				for j, v := range inf {
					if math.Float64bits(v) != math.Float64bits(want[0].Data[j]) {
						t.Fatalf("shape %d collapse %v procs %d: InferProbsInto[%d] %v vs reference %v",
							si, collapse, procs, j, v, want[0].Data[j])
					}
				}
			}
		}
	}
}
