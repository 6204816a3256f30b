package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// sameBits fails unless got and want hold the same float64 bit patterns.
func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: edge %d got %v, want %v", label, i, got[i], want[i])
		}
	}
}

// perturb scales every live parameter so its values (and the model's
// probabilities) change.
func perturb(mo *Model) {
	for _, p := range mo.PS.All() {
		for i := range p.Value.Data {
			p.Value.Data[i] *= 1.5
		}
	}
}

// snapshotProbs runs the snapshot-bound forward pass on g.
func snapshotProbs(mo *Model, snap *nn.Snapshot, g *stream.Graph, c sim.Cluster) []float64 {
	return mo.ProbsInto(snap, gnn.BuildFeatures(g, c), make([]float64, g.NumEdges()))
}

// TestProbsPathIndependent pins that the forward pass does not depend on
// where its parameters come from: a pass bound to a snapshot equals the
// live-parameter pass by Float64bits, across graph sizes, both ablation
// configs and GOMAXPROCS 1 and NumCPU. Once the live parameters change,
// the snapshot pass keeps returning the captured bits while Probs follows
// the new values — the contract the serving daemon's hot swap rests on.
func TestProbsPathIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, s := range []gen.Setting{gen.Small(), gen.Medium5K()} {
		graphs := s.Generate().Test[:4]
		for ci, cfg := range []Config{
			DefaultConfig(),
			{UseEdgeEncoding: false, UseEdgeCollapse: false, Seed: 7},
		} {
			for _, procs := range []int{1, runtime.NumCPU()} {
				runtime.GOMAXPROCS(procs)
				mo := New(cfg)
				snap := nn.NewSnapshot(mo.PS)
				old := make([][]float64, len(graphs))
				for gi, g := range graphs {
					old[gi] = mo.Probs(g, s.Cluster)
					sameBits(t, s.Name+" snapshot vs live", snapshotProbs(mo, snap, g, s.Cluster), old[gi])
				}

				perturb(mo)
				for gi, g := range graphs {
					sameBits(t, s.Name+" snapshot after live change", snapshotProbs(mo, snap, g, s.Cluster), old[gi])
					changed := false
					for i, p := range mo.Probs(g, s.Cluster) {
						changed = changed || math.Float64bits(p) != math.Float64bits(old[gi][i])
					}
					if !changed {
						t.Fatalf("%s config %d procs %d graph %d: Probs ignored the live parameter change",
							s.Name, ci, procs, gi)
					}
				}
			}
		}
	}
}

// TestProbsIntoConcurrent drives the shared binder pool from several
// goroutines at once, mixing live and snapshot passes. The live values
// differ from the snapshot's, so a binder that leaked a binding or a
// cached leaf into another caller's pass would change its bits.
func TestProbsIntoConcurrent(t *testing.T) {
	s := gen.Small()
	graphs := s.Generate().Test[:8]
	mo := New(DefaultConfig())
	snap := nn.NewSnapshot(mo.PS)
	perturb(mo)

	feats := make([]*gnn.Features, len(graphs))
	wantLive := make([][]float64, len(graphs))
	wantSnap := make([][]float64, len(graphs))
	for i, g := range graphs {
		feats[i] = gnn.BuildFeatures(g, s.Cluster)
		wantLive[i] = mo.ProbsInto(nil, feats[i], make([]float64, g.NumEdges()))
		wantSnap[i] = mo.ProbsInto(snap, feats[i], make([]float64, g.NumEdges()))
	}

	const workers, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(graphs)
				bind, want := (*nn.Snapshot)(nil), wantLive[i]
				if (w+r)%2 == 1 {
					bind, want = snap, wantSnap[i]
				}
				got := mo.ProbsInto(bind, feats[i], make([]float64, len(want)))
				for e := range want {
					if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
						errs <- "worker result differs from the serial reference"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// TestProbsIntoAfterPanic pins that a snapshot pass which panics does not
// poison the pool: the next live pass must equal EdgeProbs on a fresh
// binder. Two malformed inputs cover both panic points — before anything
// is recorded (no CSR buckets, so bucketing the bad Src panics) and
// mid-recording (valid buckets, so the message gather panics after the
// encoder's snapshot-bound leaves exist).
func TestProbsIntoAfterPanic(t *testing.T) {
	s := gen.Small()
	g := s.Generate().Test[0]
	for _, withCSR := range []bool{false, true} {
		mo := New(DefaultConfig())
		snap := nn.NewSnapshot(mo.PS)

		bad := gnn.BuildFeatures(g, s.Cluster)
		if !withCSR {
			bad.InOff, bad.OutOff, bad.InEdge, bad.OutEdge = nil, nil, nil, nil
		}
		bad.Src = append([]int(nil), bad.Src...)
		bad.Src[0] = g.NumNodes()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("csr %v: out-of-range Src did not panic", withCSR)
				}
			}()
			mo.ProbsInto(snap, bad, make([]float64, g.NumEdges()))
		}()

		perturb(mo)
		b := nn.NewBinder(autodiff.NewTape())
		want := mo.EdgeProbs(b, gnn.BuildFeatures(g, s.Cluster)).Value.Data
		sameBits(t, fmt.Sprintf("csr %v: Probs after a panicked pass", withCSR), mo.Probs(g, s.Cluster), want)
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
// head: probabilities and every parameter gradient match the
// gather-then-project reference by Float64bits, on graphs with isolated
// nodes, odd M and a shape above the kernels' parallel gate, at
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
			}
		}
	}
}
