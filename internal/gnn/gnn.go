// Package gnn implements the paper's edge-aware directed graph encoder
// (§IV-A). Each node carries two sub-embeddings of size M — an
// upstream-view half updated from in-edges and a downstream-view half
// updated from out-edges — and edge features enter the aggregation through
// dedicated projection matrices. The update is run K times (K=2 in the
// paper) and the final node representation is the concatenation of both
// halves (dimension 2M).
//
// The forward pass is expressed with matrix-level autodiff ops (gather →
// edge transform → segment mean → node update), so a full pass over a
// 2,000-node graph records only a handful of tape entries per iteration.
package gnn

import (
	"math"
	"math/rand"

	"repro/internal/autodiff"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// NodeFeatureDim is the per-node input feature width produced by
// BuildFeatures: CPU utilization, emitted payload saturation, log degree
// in/out, source flag, sink flag.
const NodeFeatureDim = 6

// EdgeFeatureDim is the per-edge input feature width: data saturation
// rate, saturation relative to the graph mean, and log traffic.
const EdgeFeatureDim = 3

// Features is the tensor form of one stream graph, ready for encoding.
type Features struct {
	Node *tensor.Matrix // N × NodeFeatureDim
	Edge *tensor.Matrix // E × EdgeFeatureDim
	Src  []int          // E: source node of each edge
	Dst  []int          // E: destination node of each edge

	// CSR incidence buckets (node v's in-edges are
	// InEdge[InOff[v]:InOff[v+1]], ascending by edge id; OutOff/OutEdge
	// mirror it for out-edges). BuildFeatures shares them with the graph's
	// Adjacency view; EnsureCSR derives them from Src/Dst for features
	// assembled directly (e.g. the serving layer's block-diagonal stack).
	// The encode paths consume these instead of re-bucketing Src/Dst on
	// every forward pass.
	InOff, OutOff   []int32
	InEdge, OutEdge []int
}

// EnsureCSR builds the incidence buckets from Src/Dst when absent. Not
// safe for concurrent callers on the same Features; build before sharing.
func (f *Features) EnsureCSR() {
	if f.InOff != nil {
		return
	}
	n := f.Node.Rows
	f.InOff, f.InEdge = bucketEdges(f.Dst, n)
	f.OutOff, f.OutEdge = bucketEdges(f.Src, n)
}

// bucketEdges counting-sorts edge positions by endpoint, preserving
// ascending edge order inside each bucket — the same structure (and
// therefore the same accumulation order) stream.Graph.Adjacency produces.
func bucketEdges(key []int, n int) ([]int32, []int) {
	offs := make([]int32, n+1)
	for _, v := range key {
		offs[v+1]++
	}
	for v := 0; v < n; v++ {
		offs[v+1] += offs[v]
	}
	members := make([]int, len(key))
	cursor := append([]int32(nil), offs[:n]...)
	for ei, v := range key {
		members[cursor[v]] = ei
		cursor[v]++
	}
	return offs, members
}

// BuildFeatures extracts normalized node and edge features, using the
// cluster's capacities as the normalization scale (this is what makes the
// same trained model transferable across settings: features are
// utilizations, not raw magnitudes).
func BuildFeatures(g *stream.Graph, c sim.Cluster) *Features {
	n, e := g.NumNodes(), g.NumEdges()
	load := g.NodeLoad()
	traffic := g.EdgeTraffic()
	capI := c.InstructionCapacity()
	adj := g.Adjacency()

	// Emitted payload saturation (total egress traffic if all out-edges
	// were cut) accumulates in a single pass over the edge list: O(N+E),
	// where looping OutEdges(v) inside the node loop was O(N·deg). Edge ids
	// ascend within each node's bucket either way, so the per-node partial
	// sums are bit-identical.
	nf := tensor.New(n, NodeFeatureDim)
	for ei := range g.Edges {
		nf.Data[g.Edges[ei].Src*NodeFeatureDim+1] += traffic[ei]
	}
	for v := 0; v < n; v++ {
		row := nf.Row(v)
		row[0] = load[v] / capI
		row[1] /= c.Bandwidth
		row[2] = math.Log1p(float64(adj.InDegree(v)))
		row[3] = math.Log1p(float64(adj.OutDegree(v)))
		if adj.InDegree(v) == 0 {
			row[4] = 1
		}
		if adj.OutDegree(v) == 0 {
			row[5] = 1
		}
	}

	var meanTr float64
	for _, t := range traffic {
		meanTr += t
	}
	if e > 0 {
		meanTr /= float64(e)
	}
	ef := tensor.New(e, EdgeFeatureDim)
	src := make([]int, e)
	dst := make([]int, e)
	for ei, ed := range g.Edges {
		row := ef.Row(ei)
		row[0] = traffic[ei] / c.Bandwidth
		if meanTr > 0 {
			row[1] = traffic[ei] / meanTr
		}
		row[2] = math.Log1p(traffic[ei] / 1e6)
		src[ei] = ed.Src
		dst[ei] = ed.Dst
	}
	return &Features{
		Node: nf, Edge: ef, Src: src, Dst: dst,
		InOff: adj.InOff, OutOff: adj.OutOff, InEdge: adj.InEdge, OutEdge: adj.OutEdge,
	}
}

// Encoder is the edge-aware GNN.
type Encoder struct {
	// In projects raw node features to the initial 2M embedding.
	In *nn.Linear
	// W1 transforms a neighbor's full 2M embedding into an M-dim message.
	W1 *nn.Param
	// WeUp / WeDown project edge features into the message (separate for
	// the two directions, per §IV-A; W1/W2 are shared).
	WeUp, WeDown *nn.Param
	// W2 maps [own half : aggregated messages] (2M) to the next half (M).
	W2 *nn.Param
	// K is the number of message-passing iterations.
	K int
	// M is the half-embedding width; node representations are 2M wide.
	M int
	// UseEdgeFeatures disables the We terms when false (Table II ablation
	// "w/o edge-encoding").
	UseEdgeFeatures bool
}

// NewEncoder registers encoder parameters on ps.
func NewEncoder(ps *nn.ParamSet, name string, m, k int, rng *rand.Rand) *Encoder {
	return &Encoder{
		In:              nn.NewLinear(ps, name+".in", NodeFeatureDim, 2*m, rng),
		W1:              ps.NewXavier(name+".W1", m, 2*m, rng),
		WeUp:            ps.NewXavier(name+".WeUp", m, EdgeFeatureDim, rng),
		WeDown:          ps.NewXavier(name+".WeDown", m, EdgeFeatureDim, rng),
		W2:              ps.NewXavier(name+".W2", m, 2*m, rng),
		K:               k,
		M:               m,
		UseEdgeFeatures: true,
	}
}

// OutDim returns the node representation width (2M).
func (e *Encoder) OutDim() int { return 2 * e.M }

// Encode records the forward pass and returns the N×2M node
// representations. The graph must have at least one edge.
func (e *Encoder) Encode(b *nn.Binder, f *Features) *autodiff.Node {
	t := b.Tape
	f.EnsureCSR()
	h := e.In.ApplyTanh(b, t.Const(f.Node)) // N×2M, fused affine+tanh

	w1T := t.Transpose(b.Node(e.W1)) // 2M×M
	w2T := t.Transpose(b.Node(e.W2)) // 2M×M

	// The edge-feature projections ef·WeUpᵀ and ef·WeDownᵀ are
	// loop-invariant: compute each once and reuse it as the additive term
	// of the fused message transform in all K iterations.
	var efUp, efDown *autodiff.Node
	if e.UseEdgeFeatures {
		ef := t.Const(f.Edge)
		efUp = t.MatMulT2(ef, b.Node(e.WeUp))     // E×M
		efDown = t.MatMulT2(ef, b.Node(e.WeDown)) // E×M
	}

	for k := 0; k < e.K; k++ {
		// Every message is tanh(P[endpoint] + edge term) with P = h·W1ᵀ,
		// so each node row is projected once per hop and P is shared by
		// both directions: O(N·2M·M + E·M) instead of O(E·2M·M). P is
		// forward-only scratch (the backward passes read h and W1ᵀ), so it
		// returns to the arena once both message ops have read it.
		proj := tensor.MatMulInto(h.Value, w1T.Value, tensor.Get(h.Value.Rows, e.M))

		// Upstream messages: for edge (u→v), transform u's embedding (+
		// edge features) and mean-pool at v. Gather, add and activation
		// run as one fused tape entry, and the mean pools through the
		// graph's CSR in-buckets, so no per-call bucketing or count
		// scratch is allocated.
		msgIn := t.GatherMatMulAddTanhCSR(h, f.Src, w1T, efUp, proj, f.OutOff, f.OutEdge)
		aggIn := t.SegmentMeanCSR(msgIn, f.InOff, f.InEdge)

		// Downstream messages: for edge (u→v), transform v's embedding and
		// mean-pool at u.
		msgOut := t.GatherMatMulAddTanhCSR(h, f.Dst, w1T, efDown, proj, f.InOff, f.InEdge)
		aggOut := t.SegmentMeanCSR(msgOut, f.OutOff, f.OutEdge)
		tensor.Put(proj)

		// [own half : aggregated messages] → next half. The fused op feeds
		// each concatenated row straight to the product kernel, so the
		// sliced halves and concatenated operands never hit the tape.
		nextUp := t.ConcatMatMulTanh(h, 0, e.M, aggIn, w2T)
		nextDown := t.ConcatMatMulTanh(h, e.M, 2*e.M, aggOut, w2T)
		h = t.ConcatCols(nextUp, nextDown)
	}
	return h
}
