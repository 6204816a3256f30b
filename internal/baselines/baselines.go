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
// All three train with the same REINFORCE objective as the coarsening
// model (relative simulated throughput as reward, mean-of-batch baseline)
// and expose a greedy Place method, so any of them can also serve as the
// partitioning stage of the coarsening–partitioning framework
// (Coarsen+Graph-enc-dec in Tables I and II).
package baselines

import (
	"math"
	"math/rand"

	"repro/internal/autodiff"
	"repro/internal/gnn"
	"repro/internal/metis"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
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

// TrainConfig controls baseline REINFORCE training.
type TrainConfig struct {
	Epochs  int
	Samples int
	LR      float64
	Seed    int64
	// PretrainEpochs runs maximum-likelihood imitation of Metis placements
	// before REINFORCE — the same cold-start device the coarsening trainer
	// uses (the original baselines trained for GPU-days; at CPU scale,
	// REINFORCE from scratch cannot reach their reported competence).
	PretrainEpochs int
	Quiet          bool
	Logf           func(format string, args ...any)
}

// DefaultTrainConfig mirrors the coarsening trainer's scale.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 6, Samples: 4, LR: 0.002, Seed: 17, PretrainEpochs: 10}
}

// metisTargets computes the imitation labels for pretraining.
func metisTargets(graphs []*stream.Graph, cluster sim.Cluster, seed int64) [][]int {
	return parallel.Map(len(graphs), 0, func(i int) []int {
		p := metis.Partition(graphs[i], metis.Options{Parts: cluster.Devices, Seed: seed})
		return p.Assign
	})
}

func (c TrainConfig) logf(format string, args ...any) {
	if c.Quiet {
		return
	}
	if c.Logf != nil {
		c.Logf(format, args...)
		return
	}
	obs.Log.Infof(format, args...)
}

// Model is the common interface of the learned direct-placement baselines.
type Model interface {
	// Place greedily assigns every operator to a device.
	Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement
	// TrainOn runs REINFORCE over the training graphs.
	TrainOn(graphs []*stream.Graph, cluster sim.Cluster, cfg TrainConfig)
	// Name identifies the baseline in reports.
	Name() string
}

// ---------------------------------------------------------------------------
// Graph-enc-dec [9]
// ---------------------------------------------------------------------------

// GraphEncDec is the GNN + LSTM sequential placer.
type GraphEncDec struct {
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

// decode runs the LSTM decoder over nodes in topological order. pick
// chooses the device for node v given the step's masked log-probability
// row. It returns the assignment and the summed log-probability node of
// the chosen actions.
func (m *GraphEncDec) decode(
	b *nn.Binder,
	g *stream.Graph,
	cluster sim.Cluster,
	h *autodiff.Node,
	pick func(v int, logProbs []float64) int,
) ([]int, *autodiff.Node) {
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
		d := pick(v, logProbs.Value.Row(0))
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
	b := nn.NewBinder(autodiff.NewTape())
	f := gnn.BuildFeatures(g, cluster)
	h := m.Enc.Encode(b, f)
	assign, _ := m.decode(b, g, cluster, h, func(_ int, lp []float64) int {
		best, bestV := 0, lp[0]
		for d := 1; d < cluster.Devices; d++ {
			if lp[d] > bestV {
				best, bestV = d, lp[d]
			}
		}
		return best
	})
	p := stream.NewPlacement(g.NumNodes(), cluster.Devices)
	copy(p.Assign, assign)
	return p
}

// TrainOn implements Model: optional Metis-imitation pretraining followed
// by REINFORCE.
func (m *GraphEncDec) TrainOn(graphs []*stream.Graph, cluster sim.Cluster, cfg TrainConfig) {
	if cfg.PretrainEpochs > 0 {
		targets := metisTargets(graphs, cluster, cfg.Seed)
		opt := nn.NewAdam(cfg.LR)
		for epoch := 0; epoch < cfg.PretrainEpochs; epoch++ {
			for i, g := range graphs {
				b := nn.NewBinder(autodiff.NewTape())
				h := m.Enc.Encode(b, gnn.BuildFeatures(g, cluster))
				target := targets[i]
				_, lp := m.decode(b, g, cluster, h, func(v int, _ []float64) int {
					return target[v]
				})
				seed := tensor.New(1, 1)
				seed.Data[0] = -1 / float64(g.NumNodes())
				m.PS.ZeroGrads()
				b.Tape.Backward(lp, seed)
				b.Collect()
				opt.Step(m.PS)
			}
			cfg.logf("baselines: %s pretrain epoch %d/%d", m.Name(), epoch+1, cfg.PretrainEpochs)
		}
	}
	trainSequential(m.PS, nn.NewAdam(cfg.LR), graphs, cluster, cfg, m.Name(),
		func(b *nn.Binder, g *stream.Graph, rng *rand.Rand) ([]int, *autodiff.Node) {
			f := gnn.BuildFeatures(g, cluster)
			h := m.Enc.Encode(b, f)
			return m.decode(b, g, cluster, h, func(_ int, lp []float64) int {
				return sampleLogProbs(rng, lp, cluster.Devices)
			})
		})
}

// sampleLogProbs draws a device from a masked log-probability row.
func sampleLogProbs(rng *rand.Rand, lp []float64, devices int) int {
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

// trainSequential is the shared REINFORCE loop for models whose sampling
// requires a fresh forward pass per sample (LSTM decoders). It steps opt,
// so a model can carry its pretraining optimizer state into REINFORCE.
func trainSequential(
	ps *nn.ParamSet,
	opt *nn.Adam,
	graphs []*stream.Graph,
	cluster sim.Cluster,
	cfg TrainConfig,
	name string,
	sampleOne func(b *nn.Binder, g *stream.Graph, rng *rand.Rand) ([]int, *autodiff.Node),
) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var meanR float64
		for _, g := range graphs {
			type sample struct {
				assign []int
				lp     *autodiff.Node
				binder *nn.Binder
				reward float64
			}
			samples := make([]sample, cfg.Samples)
			for s := range samples {
				b := nn.NewBinder(autodiff.NewTape())
				assign, lp := sampleOne(b, g, rng)
				samples[s] = sample{assign: assign, lp: lp, binder: b}
			}
			parallel.ForEach(len(samples), 0, func(s int) {
				p := stream.NewPlacement(g.NumNodes(), cluster.Devices)
				copy(p.Assign, samples[s].assign)
				samples[s].reward = sim.Reward(g, p, cluster)
			})
			var base float64
			for _, s := range samples {
				base += s.reward
			}
			base /= float64(len(samples))
			meanR += base
			ps.ZeroGrads()
			for _, s := range samples {
				adv := (s.reward - base) / float64(len(samples)*g.NumNodes())
				if adv == 0 {
					continue
				}
				// Ascend adv·logπ: seed backward with -adv on the summed
				// log-prob (optimizer descends).
				seed := tensor.New(s.lp.Value.Rows, 1)
				seed.Fill(-adv)
				s.binder.Tape.Backward(s.lp, seed)
				s.binder.Collect()
			}
			opt.Step(ps)
		}
		cfg.logf("baselines: %s epoch %d/%d mean reward %.4f", name, epoch+1, cfg.Epochs, meanR/float64(len(graphs)))
	}
}

// ---------------------------------------------------------------------------
// GDP [7]
// ---------------------------------------------------------------------------

// GDP is the GNN + self-attention one-shot placer.
type GDP struct {
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

// logits runs the forward pass and returns masked per-node logits (N×MaxDevices).
func (m *GDP) logits(b *nn.Binder, g *stream.Graph, cluster sim.Cluster) *autodiff.Node {
	f := gnn.BuildFeatures(g, cluster)
	h := m.Enc.Encode(b, f)
	h = m.Attn.Apply(b, h)
	logits := m.Out.Apply(b, h)
	maskLogits(logits.Value, cluster.Devices)
	return logits
}

// Place implements Model: per-node argmax.
func (m *GDP) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	b := nn.NewBinder(autodiff.NewTape())
	lg := m.logits(b, g, cluster)
	p := stream.NewPlacement(g.NumNodes(), cluster.Devices)
	for v := 0; v < g.NumNodes(); v++ {
		row := lg.Value.Row(v)
		best := 0
		for d := 1; d < cluster.Devices; d++ {
			if row[d] > row[best] {
				best = d
			}
		}
		p.Assign[v] = best
	}
	return p
}

// TrainOn implements Model: optional Metis-imitation pretraining, then
// REINFORCE with one forward pass per step and N samples drawn from the
// per-node categorical distributions.
func (m *GDP) TrainOn(graphs []*stream.Graph, cluster sim.Cluster, cfg TrainConfig) {
	opt := nn.NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	if cfg.PretrainEpochs > 0 {
		targets := metisTargets(graphs, cluster, cfg.Seed)
		for epoch := 0; epoch < cfg.PretrainEpochs; epoch++ {
			for i, g := range graphs {
				b := nn.NewBinder(autodiff.NewTape())
				t := b.Tape
				lp := t.LogSoftmaxRows(m.logits(b, g, cluster))
				loss := t.Scale(t.Sum(t.PickCols(lp, targets[i])), -1/float64(g.NumNodes()))
				m.PS.ZeroGrads()
				t.Backward(loss, nil)
				b.Collect()
				opt.Step(m.PS)
			}
			cfg.logf("baselines: gdp pretrain epoch %d/%d", epoch+1, cfg.PretrainEpochs)
		}
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var meanR float64
		for _, g := range graphs {
			b := nn.NewBinder(autodiff.NewTape())
			t := b.Tape
			logProbs := t.LogSoftmaxRows(m.logits(b, g, cluster))
			n := g.NumNodes()
			assigns := make([][]int, cfg.Samples)
			rewards := make([]float64, cfg.Samples)
			for s := range assigns {
				a := make([]int, n)
				for v := 0; v < n; v++ {
					a[v] = sampleLogProbs(rng, logProbs.Value.Row(v), cluster.Devices)
				}
				assigns[s] = a
			}
			parallel.ForEach(cfg.Samples, 0, func(s int) {
				p := stream.NewPlacement(n, cluster.Devices)
				copy(p.Assign, assigns[s])
				rewards[s] = sim.Reward(g, p, cluster)
			})
			var base float64
			for _, r := range rewards {
				base += r
			}
			base /= float64(cfg.Samples)
			meanR += base
			var loss *autodiff.Node
			for s := range assigns {
				adv := (rewards[s] - base) / float64(cfg.Samples*n)
				if adv == 0 {
					continue
				}
				lp := t.PickCols(logProbs, assigns[s])
				term := t.Scale(t.Sum(lp), -adv)
				if loss == nil {
					loss = term
				} else {
					loss = t.Add(loss, term)
				}
			}
			if loss != nil {
				m.PS.ZeroGrads()
				t.Backward(loss, nil)
				b.Collect()
				opt.Step(m.PS)
			}
		}
		cfg.logf("baselines: gdp epoch %d/%d mean reward %.4f", epoch+1, cfg.Epochs, meanR/float64(len(graphs)))
	}
}

// ---------------------------------------------------------------------------
// Hierarchical [6]
// ---------------------------------------------------------------------------

// Hierarchical is the grouper + placer model with a fixed group count.
type Hierarchical struct {
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

// forward computes group log-probs for every node (N×Groups).
func (m *Hierarchical) groupLogProbs(b *nn.Binder, f *gnn.Features) *autodiff.Node {
	return b.Tape.LogSoftmaxRows(m.Grouper.Apply(b, b.Tape.Const(f.Node)))
}

// placeGroups runs the LSTM placer over group summary embeddings (mean of
// member node features plus member count), with pick choosing each
// group's device.
func (m *Hierarchical) placeGroups(
	b *nn.Binder,
	f *gnn.Features,
	cluster sim.Cluster,
	groupOf []int,
	pick func(step int, lp []float64) int,
) ([]int, *autodiff.Node) {
	t := b.Tape
	n := f.Node.Rows
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
	devOf := make([]int, m.Groups)
	var lpSum *autodiff.Node
	for gi := 0; gi < m.Groups; gi++ {
		x := t.Const(tensor.FromSlice(1, gnn.NodeFeatureDim+1, sum.Row(gi)))
		hh, cc = m.Cell.Step(b, x, hh, cc)
		logits := m.Out.Apply(b, hh)
		maskLogits(logits.Value, cluster.Devices)
		lp := t.LogSoftmaxRows(logits)
		d := pick(gi, lp.Value.Row(0))
		devOf[gi] = d
		picked := t.PickCols(lp, []int{d})
		if lpSum == nil {
			lpSum = picked
		} else {
			lpSum = t.Add(lpSum, picked)
		}
	}
	return devOf, lpSum
}

// Place implements Model: argmax groups, then argmax devices.
func (m *Hierarchical) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	b := nn.NewBinder(autodiff.NewTape())
	f := gnn.BuildFeatures(g, cluster)
	glp := m.groupLogProbs(b, f)
	n := g.NumNodes()
	groupOf := make([]int, n)
	for v := 0; v < n; v++ {
		row := glp.Value.Row(v)
		best := 0
		for gi := 1; gi < m.Groups; gi++ {
			if row[gi] > row[best] {
				best = gi
			}
		}
		groupOf[v] = best
	}
	devOf, _ := m.placeGroups(b, f, cluster, groupOf, func(_ int, lp []float64) int {
		best := 0
		for d := 1; d < cluster.Devices; d++ {
			if lp[d] > lp[best] {
				best = d
			}
		}
		return best
	})
	p := stream.NewPlacement(n, cluster.Devices)
	for v := 0; v < n; v++ {
		p.Assign[v] = devOf[groupOf[v]]
	}
	return p
}

// TrainOn implements Model: optional pretraining that imitates Metis by
// using device labels as group targets (group g ↦ device g), then joint
// REINFORCE over group and device choices.
func (m *Hierarchical) TrainOn(graphs []*stream.Graph, cluster sim.Cluster, cfg TrainConfig) {
	opt := nn.NewAdam(cfg.LR)
	if cfg.PretrainEpochs > 0 {
		targets := metisTargets(graphs, cluster, cfg.Seed)
		devTargets := make([]int, m.Groups)
		for gi := range devTargets {
			devTargets[gi] = gi % cluster.Devices
		}
		for epoch := 0; epoch < cfg.PretrainEpochs; epoch++ {
			for i, g := range graphs {
				f := gnn.BuildFeatures(g, cluster)
				b := nn.NewBinder(autodiff.NewTape())
				glp := m.groupLogProbs(b, f)
				groupOf := make([]int, g.NumNodes())
				for v := range groupOf {
					groupOf[v] = targets[i][v] // device label as group id
				}
				_, devLP := m.placeGroups(b, f, cluster, groupOf, func(gi int, _ []float64) int {
					return devTargets[gi]
				})
				t := b.Tape
				loss := t.Add(
					t.Scale(t.Sum(t.PickCols(glp, groupOf)), -1/float64(g.NumNodes())),
					t.Scale(t.Sum(devLP), -1/float64(m.Groups)),
				)
				loss = t.Scale(loss, 1)
				m.PS.ZeroGrads()
				t.Backward(loss, nil)
				b.Collect()
				opt.Step(m.PS)
			}
			cfg.logf("baselines: hierarchical pretrain epoch %d/%d", epoch+1, cfg.PretrainEpochs)
		}
	}
	trainSequential(m.PS, opt, graphs, cluster, cfg, m.Name(),
		func(b *nn.Binder, g *stream.Graph, rng *rand.Rand) ([]int, *autodiff.Node) {
			f := gnn.BuildFeatures(g, cluster)
			glp := m.groupLogProbs(b, f)
			groupOf := make([]int, g.NumNodes())
			for v := range groupOf {
				groupOf[v] = sampleLogProbs(rng, glp.Value.Row(v), m.Groups)
			}
			devOf, devLP := m.placeGroups(b, f, cluster, groupOf, func(_ int, lp []float64) int {
				return sampleLogProbs(rng, lp, cluster.Devices)
			})
			assign := make([]int, len(groupOf))
			for v, gi := range groupOf {
				assign[v] = devOf[gi]
			}
			groupLP := b.Tape.Sum(b.Tape.PickCols(glp, groupOf))
			return assign, b.Tape.Add(groupLP, b.Tape.Sum(devLP))
		})
}

// ---------------------------------------------------------------------------
// Placer adapter
// ---------------------------------------------------------------------------

// AsPlacer adapts any baseline Model into the framework's partitioning
// interface (Coarsen+Graph-enc-dec etc.).
type AsPlacer struct {
	Model Model
}

// Place implements placer.Placer.
func (a AsPlacer) Place(g *stream.Graph, cluster sim.Cluster) *stream.Placement {
	return a.Model.Place(g, cluster)
}

// Name implements placer.Placer.
func (a AsPlacer) Name() string { return a.Model.Name() }
