// Package core implements the paper's primary contribution: the
// edge-collapsing coarsening model (§IV) and the coarsening–partitioning
// pipeline built around it (§III).
//
// The model encodes a stream graph with the edge-aware GNN
// (internal/gnn), builds an edge representation from the head node's
// projected embedding, the tail node's projected embedding, and the edge
// features, and emits a per-edge merge probability through an MLP with a
// sigmoid output (§IV-B). Sampling these Bernoulli decisions yields a
// coarse map; the coarse graph is partitioned by a pluggable placer and
// the placement is expanded back to the original operators.
package core

import (
	"math/rand"
	"sync"

	"repro/internal/autodiff"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// Config sets the coarsening model's dimensions.
type Config struct {
	// Hidden is the GNN half-embedding width M (node representations are
	// 2M). The paper uses 256 halves (512 total); the default here is CPU
	// friendly and configurable up to paper scale.
	Hidden int
	// EdgeDim is the width of the projected edge-feature vector inside the
	// edge representation (paper: 128).
	EdgeDim int
	// MergeDim is the edge-representation width fed to the merge MLP.
	MergeDim int
	// Hops is the number of GNN iterations K (paper: 2).
	Hops int
	// Seed initializes the parameters.
	Seed int64
	// UseEdgeEncoding toggles edge features inside the GNN (Table II
	// "w/o edge-encoding" ablation sets this false).
	UseEdgeEncoding bool
	// UseEdgeCollapse toggles edge features inside the edge representation
	// (Table II "w/o edge-collapsing [features]" ablation sets this false).
	UseEdgeCollapse bool
}

// DefaultConfig returns a CPU-scale configuration.
func DefaultConfig() Config {
	return Config{
		Hidden:          24,
		EdgeDim:         8,
		MergeDim:        32,
		Hops:            2,
		Seed:            1,
		UseEdgeEncoding: true,
		UseEdgeCollapse: true,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Hidden == 0 {
		c.Hidden = d.Hidden
	}
	if c.EdgeDim == 0 {
		c.EdgeDim = d.EdgeDim
	}
	if c.MergeDim == 0 {
		c.MergeDim = d.MergeDim
	}
	if c.Hops == 0 {
		c.Hops = d.Hops
	}
	return c
}

// Model is the edge-collapsing coarsening model.
type Model struct {
	Cfg Config
	PS  *nn.ParamSet
	Enc *gnn.Encoder

	wHead *nn.Param // M×2M head-node projection
	wTail *nn.Param // M×2M tail-node projection
	wEdge *nn.Param // EdgeDim×EdgeFeatureDim edge-feature projection
	w1m   *nn.Param // MergeDim×(2M+EdgeDim) merge projection
	head  *nn.MLP   // MergeDim → MergeDim → 1, sigmoid output
}

// New constructs a model with freshly initialized parameters.
func New(cfg Config) *Model {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	ps := nn.NewParamSet()
	m := cfg.Hidden
	enc := gnn.NewEncoder(ps, "enc", m, cfg.Hops, rng)
	enc.UseEdgeFeatures = cfg.UseEdgeEncoding
	head := nn.NewMLP(ps, "merge.head", []int{cfg.MergeDim, cfg.MergeDim, 1}, nn.ActTanh, nn.ActSigmoid, rng)
	// Bias the initial merge probability toward sparse collapsing (~0.2):
	// an untrained symmetric head collapses half of all edges per sample,
	// which is a uniformly catastrophic region of the search space and
	// stalls REINFORCE during the cold start (§IV-C).
	lastBias := ps.Get("merge.head.l1.b")
	lastBias.Value.Data[0] = -1.4
	return &Model{
		Cfg:   cfg,
		PS:    ps,
		Enc:   enc,
		wHead: ps.NewXavier("head.W", m, 2*m, rng),
		wTail: ps.NewXavier("tail.W", m, 2*m, rng),
		wEdge: ps.NewXavier("edge.W", cfg.EdgeDim, gnn.EdgeFeatureDim, rng),
		w1m:   ps.NewXavier("merge.W1", cfg.MergeDim, 2*m+cfg.EdgeDim, rng),
		head:  head,
	}
}

// EdgeProbs records the full forward pass on the binder's tape and returns
// the E×1 vector of merge probabilities.
func (mo *Model) EdgeProbs(b *nn.Binder, f *gnn.Features) *autodiff.Node {
	t := b.Tape
	h := mo.Enc.Encode(b, f) // N×2M

	// Endpoint projections gather rows of h·wHeadᵀ / h·wTailᵀ, so each
	// node is projected once rather than once per incident edge.
	hHead := t.GatherMatMul(h, f.Src, t.Transpose(b.Node(mo.wHead))) // E×M
	hTail := t.GatherMatMul(h, f.Dst, t.Transpose(b.Node(mo.wTail))) // E×M

	var eProj *autodiff.Node
	if mo.Cfg.UseEdgeCollapse {
		eProj = t.MatMul(t.Const(f.Edge), t.Transpose(b.Node(mo.wEdge))) // E×EdgeDim
	} else {
		eProj = t.Const(tensor.New(f.Edge.Rows, mo.Cfg.EdgeDim))
	}
	hEdge := t.MatMul(t.ConcatCols(hHead, hTail, eProj), t.Transpose(b.Node(mo.w1m)))
	return mo.head.Apply(b, hEdge) // E×1, sigmoid
}

// fwdPool recycles binder+tape pairs across inference forward passes —
// offline (Pipeline.Allocate, batch evaluation, multilevel) and the
// serving daemon alike — so repeated passes reuse the node slab instead
// of rebuilding the tape from nothing. A pooled binder is always reset
// and bound to the live parameters; sync.Pool keeps it safe under
// concurrent callers, each goroutine driving its own binder.
var fwdPool = sync.Pool{
	New: func() any { return nn.NewBinder(autodiff.NewTape()) },
}

// ProbsInto runs EdgeProbs on a pooled binder bound to snap (nil reads the
// live parameters) and copies the merge probabilities into out, which must
// have length f.Edge.Rows. Training, offline inference and serving thus
// share one forward pass. The binder returns to the pool reset and
// unbound, so the pool pins no retired snapshot; a pass that panics drops
// its binder instead, so no half-recorded tape is ever reused.
func (mo *Model) ProbsInto(snap *nn.Snapshot, f *gnn.Features, out []float64) []float64 {
	b := fwdPool.Get().(*nn.Binder)
	b.BindSnapshot(snap)
	copy(out, mo.EdgeProbs(b, f).Value.Data)
	b.BindSnapshot(nil)
	b.Reset()
	fwdPool.Put(b)
	return out
}

// Probs computes merge probabilities from the live parameters outside any
// training loop.
func (mo *Model) Probs(g *stream.Graph, c sim.Cluster) []float64 {
	return mo.ProbsInto(nil, gnn.BuildFeatures(g, c), make([]float64, g.NumEdges()))
}

// Decision is a per-edge collapse decision vector.
type Decision []bool

// Greedy thresholds merge probabilities at 0.5.
func (mo *Model) Greedy(g *stream.Graph, c sim.Cluster) Decision {
	probs := mo.Probs(g, c)
	d := make(Decision, len(probs))
	for i, p := range probs {
		d[i] = p >= 0.5
	}
	return d
}

// LogProb records Σ_e [d_e·log p_e + (1−d_e)·log(1−p_e)] weighted by a
// scalar advantage, as the REINFORCE objective for one sampled decision
// vector. The caller accumulates gradients of the returned scalar.
func LogProbLoss(b *nn.Binder, probs *autodiff.Node, d Decision, advantage float64) *autodiff.Node {
	t := b.Tape
	e := probs.Value.Rows
	// mask: 1 where collapsed; loss = Σ adv·[mask·log p + (1-mask)·log(1-p)].
	mask := tensor.New(e, 1)
	inv := tensor.New(e, 1)
	for i, di := range d {
		if di {
			mask.Data[i] = 1
		} else {
			inv.Data[i] = 1
		}
	}
	ones := tensor.New(e, 1)
	ones.Fill(1)
	logP := t.Log(probs)
	log1mP := t.Log(t.Sub(t.Const(ones), probs))
	term := t.Add(t.Mul(t.Const(mask), logP), t.Mul(t.Const(inv), log1mP))
	// Negative advantage-weighted log-likelihood: minimizing this ascends
	// the REINFORCE objective.
	return t.Scale(t.Sum(term), -advantage)
}

// Pipeline is the full coarsening–partitioning framework: coarsen with the
// model, partition the coarse graph with Placer, expand back.
type Pipeline struct {
	Model  *Model
	Placer placer.Placer
}

// Allocation bundles the outputs of one end-to-end allocation.
type Allocation struct {
	Placement *stream.Placement
	Coarse    *stream.CoarseMap
	// CoarseGraph is the graph the placer saw.
	CoarseGraph *stream.Graph
	// Reward is sim.Reward of Placement on the graph, and Candidate the
	// index of the sweep candidate that won (0 is the uncoarsened
	// graph). Only AllocateRanked, and so Allocate, scores its result
	// and sets both; every other entry point leaves them zero, which
	// there means not computed, not a zero reward.
	Reward    float64
	Candidate int
}

// AllocateDecision runs the pipeline with an explicit decision vector.
func (pl *Pipeline) AllocateDecision(g *stream.Graph, c sim.Cluster, d Decision) Allocation {
	return pl.allocateMap(g, c, stream.CollapseEdges(g, d))
}

// allocateMap partitions the coarse graph of cm with the placer and
// expands the placement back onto g.
func (pl *Pipeline) allocateMap(g *stream.Graph, c sim.Cluster, cm *stream.CoarseMap) Allocation {
	cg := stream.CoarseGraph(g, cm)
	cp := pl.Placer.Place(cg, c)
	return Allocation{
		Placement:   stream.ExpandPlacement(cm, cp),
		Coarse:      cm,
		CoarseGraph: cg,
	}
}

// Allocate runs deployment-time inference: one forward pass produces the
// model's merge probabilities; edges are ranked by probability and a small
// grid of collapse counts along that ranking is evaluated through the
// pipeline with the fast fluid simulator, keeping the best.
//
// This ranking-sweep inference is a documented adaptation of the paper's
// direct thresholding (DESIGN.md §2): at CPU-scale training the Bernoulli
// policy converges to a discriminative but unsaturated equilibrium, so a
// fixed 0.5 threshold discards what the model learned; the ranking is
// still entirely the model's. The sweep costs |fractions| extra simulator
// calls (microseconds each), mirroring how Metis itself re-runs with
// different coarsening scales.
func (pl *Pipeline) Allocate(g *stream.Graph, c sim.Cluster) Allocation {
	g = g.PinDemands()
	probs := pl.Model.Probs(g, c)
	return pl.AllocateRanked(g, c, probs)
}

// AllocateRanked sweeps coarsening ratios along an edge ranking: one
// stream.Collapser sweep collapses edges in descending score order
// (skipping edges inside one super-node), and each time the super-node
// count reaches the next of sweepTargets the walk's current coarse map is
// evaluated end-to-end. The best allocation wins.
func (pl *Pipeline) AllocateRanked(g *stream.Graph, c sim.Cluster, score []float64) Allocation {
	// Every candidate's coarse graph and reward reads g's demands: pin
	// them once rather than re-propagating rates per candidate (a no-op
	// when the caller pinned them already).
	g = g.PinDemands()
	walk := stream.NewCollapser(g)
	var best Allocation
	bestR := -1.0
	walk.Sweep(stream.RankEdges(score), sweepTargets(g.NumNodes(), c.Devices), nil, func(i int) {
		a := pl.allocateMap(g, c, walk.Map())
		if r := sim.Reward(g, a.Placement, c); r > bestR {
			a.Reward, a.Candidate = r, i
			best, bestR = a, r
		}
	})
	return best
}

// sweepTargets is the rank sweep's schedule of super-node counts for an
// n-node graph on the given devices, strictly descending from n: light
// coarsenings as fractions of n (where most of the benefit typically
// lies), then heavy ones as multiples of the device count, the same knob
// Metis exposes as its coarsening scale. A count not below the last one
// kept, or below 1, is dropped.
func sweepTargets(n, devices int) []int {
	targets := []int{n}
	add := func(t int) {
		if t >= 1 && t < targets[len(targets)-1] {
			targets = append(targets, t)
		}
	}
	for _, f := range []float64{1, 0.92, 0.84, 0.75, 0.65, 0.55, 0.45, 0.35, 0.25} {
		add(int(f * float64(n)))
	}
	// Sub-device-count targets let the pipeline use fewer devices than
	// available — essential in the excess-device setting, where the
	// optimal allocation leaves devices idle.
	for _, m := range []float64{8, 4, 2, 1, 0.75, 0.5, 0.25} {
		add(int(m * float64(devices)))
	}
	return targets
}

// AllocateGreedy runs pure threshold-0.5 inference (used by ablations).
func (pl *Pipeline) AllocateGreedy(g *stream.Graph, c sim.Cluster) Allocation {
	return pl.AllocateDecision(g, c, pl.Model.Greedy(g, c))
}

// CoarsenToRanked collapses edges by descending score (index ascending on
// ties, so equal scores coarsen deterministically) until at most target
// super-nodes remain; edges whose endpoints already share a super-node are
// skipped. The multilevel driver and the coarse-graph placer's training
// set reuse one forward pass's scores through it.
func CoarsenToRanked(g *stream.Graph, target int, score []float64) Decision {
	return collapseTo(g, target, stream.RankEdges(score)).Decision()
}

// collapseTo is a one-target sweep along order: it stops at the first
// grouping of at most target super-nodes, or, when no grouping is that
// coarse, with every edge collapsed.
func collapseTo(g *stream.Graph, target int, order []int32) *stream.Collapser {
	walk := stream.NewCollapser(g)
	walk.Sweep(order, []int{target}, nil, func(int) {})
	return walk
}

// CoarsenOnly implements the "Coarsen-only" ablation (Table II): collapse
// edges by descending merge probability until the number of super-nodes
// equals the device count, then give each super-node its own device. No
// partitioning model is involved.
func (mo *Model) CoarsenOnly(g *stream.Graph, c sim.Cluster) Allocation {
	cm := collapseTo(g, c.Devices, stream.RankEdges(mo.Probs(g, c))).Map()
	cg := stream.CoarseGraph(g, cm)
	cp := stream.NewPlacement(cm.NumSuper, c.Devices)
	for s := 0; s < cm.NumSuper; s++ {
		cp.Assign[s] = s % c.Devices
	}
	return Allocation{
		Placement:   stream.ExpandPlacement(cm, cp),
		Coarse:      cm,
		CoarseGraph: cg,
	}
}
