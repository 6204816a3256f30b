// Package baselines implements the three learned direct-placement
// baselines the paper compares against:
//
//   - Graph-enc-dec [9]: the edge-aware GNN encoder followed by an LSTM
//     decoder that assigns devices to operators sequentially in
//     topological order, feeding back the previous assignment.
//   - GDP [7]: a GNN encoder followed by a self-attention placement
//     network producing per-node device logits in one shot (our
//     single-block simplification of Transformer-XL; see DESIGN.md §2).
//   - Hierarchical [6]: a grouper MLP assigning operators to a fixed
//     number of groups (25 in the paper) and an LSTM placer assigning a
//     device to each group.
//
// Each model is an rl.Policy whose action picks one device per
// operator (Hierarchical: one group per operator, then one device per
// group), rewarded with the placement's simulated relative throughput.
// They train through rl.Trainer, the coarsening model's trainer: Metis
// imitation, a memory buffer seeded with the Metis placement, and
// REINFORCE with advantages normalized by the batch's reward spread. Each
// exposes a greedy Place method, so any of them can also serve as the
// partitioning stage of the coarsening–partitioning framework
// (Coarsen+Graph-enc-dec in Tables I and II).
package baselines

import (
	"encoding/binary"
	"math"
	"math/rand"
	randv2 "math/rand/v2"

	"repro/internal/autodiff"
	"repro/internal/gnn"
	"repro/internal/metis"
	"repro/internal/nn"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tensor"
)

// MaxDevices bounds the device-logit width so one trained model transfers
// across cluster sizes (logits beyond the active device count are masked).
const MaxDevices = 32

// negInf masks inactive device columns in logits.
const negInf = -1e9

// maskLogits sets columns ≥ devices to -inf on a logits matrix value.
func maskLogits(m *tensor.Matrix, devices int) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := devices; j < len(row); j++ {
			row[j] = negInf
		}
	}
}

// Model is the common interface of the learned direct-placement baselines.
type Model interface {
	// Place greedily assigns every operator to a device.
	Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement
	// Name identifies the baseline in reports.
	Name() string
}

// direct holds the policy methods of a placer whose action is one device
// per operator (GDP, Graph-enc-dec). Hierarchical embeds it too and
// overrides Guided and Reward.
type direct struct{}

// Size implements rl.Policy: advantages are normalized per operator.
func (direct) Size(g *stream.Graph) int { return g.NumNodes() }

// Guided implements rl.Policy: the Metis placement (at CPU scale,
// REINFORCE from scratch cannot reach what the originals did in GPU-days).
func (direct) Guided(g *stream.Graph, c sim.Cluster, seed int64) []int {
	return metis.Partition(g, metis.Options{Parts: c.Devices, Seed: seed}).Assign
}

// Reward implements rl.Policy: the placement's simulated relative
// throughput.
func (direct) Reward(g *stream.Graph, c sim.Cluster, assign []int) float64 {
	return sim.Reward(g, &stream.Placement{Assign: assign, Devices: c.Devices}, c)
}

// Key implements rl.Policy: the graph index, then every choice, as
// uvarints (self-delimiting, so distinct actions get distinct keys).
func (direct) Key(gi int, a []int) string {
	buf := binary.AppendUvarint(make([]byte, 0, 8+len(a)), uint64(gi))
	for _, x := range a {
		buf = binary.AppendUvarint(buf, uint64(x))
	}
	return string(buf)
}

// chooser picks step i's index among the first n entries of the step's
// log-probability row lp.
type chooser func(i int, lp []float64, n int) int

// drawDist is a placer's action distribution over one graph. draw records
// one fresh action and its summed log-probability on the tape, with
// choose picking every step: a sample, a replay of a given action
// (teacher forcing), or the most likely choice (greedy placement). The
// loss of a sampled action reuses the draw that sampled it, recognized by
// its backing array: the trainer hands back the very slice Sample
// returned.
type drawDist struct {
	b    *nn.Binder
	draw func(choose chooser) ([]int, *autodiff.Node)
	acts [][]int
	lps  []*autodiff.Node
}

// Sample implements rl.Dist.
func (d *drawDist) Sample(rng *randv2.Rand) []int {
	a, lp := d.draw(func(_ int, lp []float64, n int) int { return sampleLogProbs(rng, lp, n) })
	d.acts, d.lps = append(d.acts, a), append(d.lps, lp)
	return a
}

// LogProb implements rl.Dist.
func (d *drawDist) LogProb(a []int, w float64) *autodiff.Node {
	for i, s := range d.acts {
		if len(a) > 0 && len(s) == len(a) && &s[0] == &a[0] {
			return d.b.Tape.Scale(d.lps[i], -w)
		}
	}
	_, lp := d.draw(func(i int, _ []float64, _ int) int { return a[i] })
	return d.b.Tape.Scale(lp, -w)
}

// greedy returns p's most likely action on g (the first maximum at every
// step), drawn on a fresh tape.
func greedy(p rl.Policy[[]int], g *stream.Graph, c sim.Cluster) []int {
	d := p.Forward(nn.NewBinder(autodiff.NewTape()), g, c).(*drawDist)
	a, _ := d.draw(func(_ int, lp []float64, n int) int {
		best := 0
		for i := 1; i < n; i++ {
			if lp[i] > lp[best] {
				best = i
			}
		}
		return best
	})
	return a
}

// ---------------------------------------------------------------------------
// Graph-enc-dec [9]
// ---------------------------------------------------------------------------

// GraphEncDec is the GNN + LSTM sequential placer.
type GraphEncDec struct {
	direct
	PS     *nn.ParamSet
	Enc    *gnn.Encoder
	Cell   *nn.LSTMCell
	Out    *nn.Linear // hidden → MaxDevices logits
	DevEmb *nn.Param  // MaxDevices+1 × devDim embedding of previous device
	Hidden int
	DevDim int
}

// NewGraphEncDec builds the model. m is the GNN half-width; hidden the
// LSTM width.
func NewGraphEncDec(m, hidden int, seed int64) *GraphEncDec {
	rng := rand.New(rand.NewSource(seed))
	ps := nn.NewParamSet()
	devDim := 8
	enc := gnn.NewEncoder(ps, "enc", m, 2, rng)
	return &GraphEncDec{
		PS:     ps,
		Enc:    enc,
		Cell:   nn.NewLSTMCell(ps, "dec", 2*m+devDim, hidden, rng),
		Out:    nn.NewLinear(ps, "out", hidden, MaxDevices, rng),
		DevEmb: ps.NewXavier("devemb", MaxDevices+1, devDim, rng),
		Hidden: hidden,
		DevDim: devDim,
	}
}

// Name implements Model.
func (m *GraphEncDec) Name() string { return "graph-enc-dec" }

// decode runs the LSTM decoder over nodes in topological order; choose
// picks node v's device (step v) from the step's masked log-probability
// row. It returns the assignment and the summed log-probability node of
// the chosen devices.
func (m *GraphEncDec) decode(b *nn.Binder, g *stream.Graph, cluster sim.Cluster, h *autodiff.Node, choose chooser) ([]int, *autodiff.Node) {
	t := b.Tape
	order := g.PseudoTopoOrder()
	zero := tensor.New(1, m.Hidden)
	hh, cc := t.Const(zero), t.Const(zero.Clone())
	prevDev := MaxDevices // "no previous device" embedding row
	assign := make([]int, g.NumNodes())
	var logProbSum *autodiff.Node
	for _, v := range order {
		nodeEmb := t.GatherRows(h, []int{v})
		devEmb := t.GatherRows(b.Node(m.DevEmb), []int{prevDev})
		x := t.ConcatCols(nodeEmb, devEmb)
		hh, cc = m.Cell.Step(b, x, hh, cc)
		logits := m.Out.Apply(b, hh)
		maskLogits(logits.Value, cluster.Devices)
		logProbs := t.LogSoftmaxRows(logits)
		d := choose(v, logProbs.Value.Row(0), cluster.Devices)
		assign[v] = d
		picked := t.PickCols(logProbs, []int{d})
		if logProbSum == nil {
			logProbSum = picked
		} else {
			logProbSum = t.Add(logProbSum, picked)
		}
		prevDev = d
	}
	return assign, logProbSum
}

// Place implements Model with greedy decoding.
func (m *GraphEncDec) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	return &stream.Placement{Assign: greedy(m, g, cluster), Devices: cluster.Devices}
}

// Params implements rl.Policy.
func (m *GraphEncDec) Params() *nn.ParamSet { return m.PS }

// Forward implements rl.Policy: g is encoded once, and every draw
// decodes on top of that encoding.
func (m *GraphEncDec) Forward(b *nn.Binder, g *stream.Graph, c sim.Cluster) rl.Dist[[]int] {
	h := m.Enc.Encode(b, gnn.BuildFeatures(g, c))
	return &drawDist{b: b, draw: func(choose chooser) ([]int, *autodiff.Node) {
		return m.decode(b, g, c, h, choose)
	}}
}

// sampleLogProbs draws a device from a masked log-probability row.
func sampleLogProbs(rng *randv2.Rand, lp []float64, devices int) int {
	u := rng.Float64()
	var acc float64
	for d := 0; d < devices; d++ {
		acc += expFast(lp[d])
		if u < acc {
			return d
		}
	}
	return devices - 1
}

func expFast(x float64) float64 {
	if x < -50 {
		return 0
	}
	return math.Exp(x)
}

// ---------------------------------------------------------------------------
// GDP [7]
// ---------------------------------------------------------------------------

// GDP is the GNN + self-attention one-shot placer.
type GDP struct {
	direct
	PS   *nn.ParamSet
	Enc  *gnn.Encoder
	Attn *nn.MultiHeadAttention
	Out  *nn.MLP
}

// NewGDP builds the model; m is the GNN half-width (attention dim = 2m).
func NewGDP(m int, seed int64) *GDP {
	rng := rand.New(rand.NewSource(seed))
	ps := nn.NewParamSet()
	return &GDP{
		PS:   ps,
		Enc:  gnn.NewEncoder(ps, "enc", m, 2, rng),
		Attn: nn.NewMultiHeadAttention(ps, "attn", 2*m, 2, rng),
		Out:  nn.NewMLP(ps, "out", []int{2 * m, 2 * m, MaxDevices}, nn.ActTanh, nn.ActNone, rng),
	}
}

// Name implements Model.
func (m *GDP) Name() string { return "gdp" }

// Place implements Model: per-node argmax.
func (m *GDP) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	return &stream.Placement{Assign: greedy(m, g, cluster), Devices: cluster.Devices}
}

// Params implements rl.Policy.
func (m *GDP) Params() *nn.ParamSet { return m.PS }

// Forward implements rl.Policy: one forward pass yields every
// operator's masked device log-probabilities, and every draw picks from
// them.
func (m *GDP) Forward(b *nn.Binder, g *stream.Graph, c sim.Cluster) rl.Dist[[]int] {
	t := b.Tape
	logits := m.Out.Apply(b, m.Attn.Apply(b, m.Enc.Encode(b, gnn.BuildFeatures(g, c))))
	maskLogits(logits.Value, c.Devices)
	lp := t.LogSoftmaxRows(logits)
	return &drawDist{b: b, draw: func(choose chooser) ([]int, *autodiff.Node) {
		a := make([]int, lp.Value.Rows)
		for v := range a {
			a[v] = choose(v, lp.Value.Row(v), c.Devices)
		}
		return a, t.Sum(t.PickCols(lp, a))
	}}
}

// ---------------------------------------------------------------------------
// Hierarchical [6]
// ---------------------------------------------------------------------------

// Hierarchical is the grouper + placer model with a fixed group count. As
// a policy, its action holds N+Groups entries: each operator's group,
// then each group's device.
type Hierarchical struct {
	direct
	PS      *nn.ParamSet
	Grouper *nn.MLP // node features → group logits
	Cell    *nn.LSTMCell
	Out     *nn.Linear
	Groups  int
	Hidden  int
}

// NewHierarchical builds the model with the paper's 25 groups by default.
func NewHierarchical(groups, hidden int, seed int64) *Hierarchical {
	if groups <= 0 {
		groups = 25
	}
	rng := rand.New(rand.NewSource(seed))
	ps := nn.NewParamSet()
	return &Hierarchical{
		PS:      ps,
		Grouper: nn.NewMLP(ps, "grouper", []int{gnn.NodeFeatureDim, hidden, groups}, nn.ActTanh, nn.ActNone, rng),
		Cell:    nn.NewLSTMCell(ps, "placer", gnn.NodeFeatureDim+1, hidden, rng),
		Out:     nn.NewLinear(ps, "out", hidden, MaxDevices, rng),
		Groups:  groups,
		Hidden:  hidden,
	}
}

// Name implements Model.
func (m *Hierarchical) Name() string { return "hierarchical" }

// placeGroups runs the LSTM placer over group summary embeddings (mean of
// member node features plus member count) of the groups a[:n], with
// choose picking group gi's device (step n+gi) into a[n+gi]. It returns
// the summed log-probability of the devices.
func (m *Hierarchical) placeGroups(b *nn.Binder, f *gnn.Features, cluster sim.Cluster, a []int, choose chooser) *autodiff.Node {
	t := b.Tape
	n := f.Node.Rows
	groupOf := a[:n]
	// Group summaries from hard assignments (computed outside the tape:
	// the grouper's gradient flows through its log-probs, not the
	// summaries, as in the original two-network design).
	sum := tensor.New(m.Groups, gnn.NodeFeatureDim+1)
	counts := make([]float64, m.Groups)
	for v := 0; v < n; v++ {
		gIdx := groupOf[v]
		counts[gIdx]++
		row := sum.Row(gIdx)
		nf := f.Node.Row(v)
		for j, x := range nf {
			row[j] += x
		}
	}
	for gi := 0; gi < m.Groups; gi++ {
		row := sum.Row(gi)
		if counts[gi] > 0 {
			for j := 0; j < gnn.NodeFeatureDim; j++ {
				row[j] /= counts[gi]
			}
		}
		row[gnn.NodeFeatureDim] = counts[gi] / float64(n)
	}
	zero := tensor.New(1, m.Hidden)
	hh, cc := t.Const(zero), t.Const(zero.Clone())
	var lpSum *autodiff.Node
	for gi := 0; gi < m.Groups; gi++ {
		x := t.Const(tensor.FromSlice(1, gnn.NodeFeatureDim+1, sum.Row(gi)))
		hh, cc = m.Cell.Step(b, x, hh, cc)
		logits := m.Out.Apply(b, hh)
		maskLogits(logits.Value, cluster.Devices)
		lp := t.LogSoftmaxRows(logits)
		d := choose(n+gi, lp.Value.Row(0), cluster.Devices)
		a[n+gi] = d
		picked := t.PickCols(lp, []int{d})
		if lpSum == nil {
			lpSum = picked
		} else {
			lpSum = t.Add(lpSum, picked)
		}
	}
	return lpSum
}

// Place implements Model: argmax groups, then argmax devices.
func (m *Hierarchical) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	return m.placement(greedy(m, g, cluster), cluster)
}

// Params implements rl.Policy.
func (m *Hierarchical) Params() *nn.ParamSet { return m.PS }

// Forward implements rl.Policy: the group distribution is recorded
// once, and every draw decodes the devices of its own groups.
func (m *Hierarchical) Forward(b *nn.Binder, g *stream.Graph, c sim.Cluster) rl.Dist[[]int] {
	t := b.Tape
	f := gnn.BuildFeatures(g, c)
	glp := t.LogSoftmaxRows(m.Grouper.Apply(b, t.Const(f.Node))) // N×Groups
	return &drawDist{b: b, draw: func(choose chooser) ([]int, *autodiff.Node) {
		n := f.Node.Rows
		a := make([]int, n+m.Groups)
		for v := 0; v < n; v++ {
			a[v] = choose(v, glp.Value.Row(v), m.Groups)
		}
		devLP := m.placeGroups(b, f, c, a, choose)
		return a, t.Add(t.Sum(t.PickCols(glp, a[:n])), devLP)
	}}
}

// Guided implements rl.Policy: Metis device labels as the groups, and
// group g on device g mod D.
func (m *Hierarchical) Guided(g *stream.Graph, c sim.Cluster, seed int64) []int {
	a := m.direct.Guided(g, c, seed)
	for gi := 0; gi < m.Groups; gi++ {
		a = append(a, gi%c.Devices)
	}
	return a
}

// Reward implements rl.Policy.
func (m *Hierarchical) Reward(g *stream.Graph, c sim.Cluster, a []int) float64 {
	return sim.Reward(g, m.placement(a, c), c)
}

// placement runs each operator on its group's device.
func (m *Hierarchical) placement(a []int, c sim.Cluster) *stream.Placement {
	n := len(a) - m.Groups
	p := stream.NewPlacement(n, c.Devices)
	for v := range p.Assign {
		p.Assign[v] = a[n+a[v]]
	}
	return p
}
