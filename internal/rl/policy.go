package rl

import (
	"encoding/json"
	"math"
	randv2 "math/rand/v2"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/gnn"
	"repro/internal/metis"
	"repro/internal/nn"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Policy is one learned model trained by Trainer: the coarsening model, or
// a learned direct placer (internal/baselines). A is its action, which the
// trainer buffers and checkpoints as JSON but never looks inside.
type Policy[A any] interface {
	// Params returns the trained parameters.
	Params() *nn.ParamSet
	// Forward records g's action distribution on b's tape.
	Forward(b *nn.Binder, g *stream.Graph, c sim.Cluster) Dist[A]
	// Size is the action count that normalizes advantages and the
	// imitation loss: edges for the coarsening model, operators for a
	// placer.
	Size(g *stream.Graph) int
	// Guided returns the Metis-guided action for g: both the imitation
	// target of pretraining and the memory buffer's seed.
	Guided(g *stream.Graph, c sim.Cluster, seed int64) A
	// Reward scores a on g. It must be deterministic and safe for
	// concurrent use.
	Reward(g *stream.Graph, c sim.Cluster, a A) float64
	// Key is the exact reward-memo key of a on training graph gi: two
	// actions share a key only if they earn the same reward.
	Key(gi int, a A) string
}

// Dist is one graph's action distribution, recorded on a step's tape.
type Dist[A any] interface {
	// Sample draws an action from rng.
	Sample(rng *randv2.Rand) A
	// LogProb records −w·log π(a), the summed log-probability of a
	// weighted for the loss, on the tape. a may be an action this Dist
	// sampled, a buffered one or the imitation target.
	LogProb(a A, w float64) *autodiff.Node
}

// erased is a Policy with its action type erased, so that one
// Trainer type trains every model: actions travel through the trainer as
// values of type any and reach the policy as A again.
type erased[A any] struct{ Policy[A] }

func (p erased[A]) Forward(b *nn.Binder, g *stream.Graph, c sim.Cluster) Dist[any] {
	return erasedDist[A]{p.Policy.Forward(b, g, c)}
}

func (p erased[A]) Guided(g *stream.Graph, c sim.Cluster, seed int64) any {
	return p.Policy.Guided(g, c, seed)
}

func (p erased[A]) Reward(g *stream.Graph, c sim.Cluster, a any) float64 {
	return p.Policy.Reward(g, c, a.(A))
}

func (p erased[A]) Key(gi int, a any) string { return p.Policy.Key(gi, a.(A)) }

type erasedDist[A any] struct{ Dist[A] }

func (d erasedDist[A]) Sample(rng *randv2.Rand) any { return d.Dist.Sample(rng) }

func (d erasedDist[A]) LogProb(a any, w float64) *autodiff.Node { return d.Dist.LogProb(a.(A), w) }

// Entropy is the distribution's mean per-action entropy, the training
// curve's exploration signal, or 0 when it does not report one.
func (d erasedDist[A]) Entropy() float64 {
	if e, ok := d.Dist.(interface{ Entropy() float64 }); ok {
		return e.Entropy()
	}
	return 0
}

// decodeAction reads an action back from a checkpoint.
func decodeAction[A any](raw json.RawMessage) (any, error) {
	var a A
	err := json.Unmarshal(raw, &a)
	return a, err
}

// coarsening is the coarsening model's policy (§III): per-edge Bernoulli
// collapse decisions, each scored by collapsing, placing the coarse graph,
// expanding and simulating.
type coarsening struct{ pipe *core.Pipeline }

func (c coarsening) Params() *nn.ParamSet { return c.pipe.Model.PS }

func (c coarsening) Forward(b *nn.Binder, g *stream.Graph, cl sim.Cluster) Dist[core.Decision] {
	f := gnn.BuildFeatures(g, cl)
	return edgeDist{b: b, probs: c.pipe.Model.EdgeProbs(b, f)}
}

func (coarsening) Size(g *stream.Graph) int { return g.NumEdges() }

// Guided infers the collapse decisions behind a Metis partition by
// maximum-spanning-tree collapse inference (§IV-C).
func (coarsening) Guided(g *stream.Graph, cl sim.Cluster, seed int64) core.Decision {
	mp := metis.Partition(g, metis.Options{Parts: cl.Devices, Seed: seed})
	mp.Devices = cl.Devices
	return core.Decision(metis.InferCollapsedEdges(g, mp))
}

func (c coarsening) Reward(g *stream.Graph, cl sim.Cluster, d core.Decision) float64 {
	alloc := c.pipe.AllocateDecision(g, cl, d)
	return sim.Reward(g, alloc.Placement, cl)
}

func (coarsening) Key(gi int, d core.Decision) string { return core.DecisionKey(gi, d) }

// edgeDist is the per-edge collapse probabilities on a step's tape.
type edgeDist struct {
	b     *nn.Binder
	probs *autodiff.Node
}

func (e edgeDist) Sample(rng *randv2.Rand) core.Decision {
	pv := e.probs.Value
	d := make(core.Decision, pv.Rows)
	for i := 0; i < pv.Rows; i++ {
		d[i] = rng.Float64() < pv.Data[i]
	}
	return d
}

func (e edgeDist) LogProb(d core.Decision, w float64) *autodiff.Node {
	return core.LogProbLoss(e.b, e.probs, d, w)
}

// Entropy is the mean per-edge Bernoulli entropy. It reads the
// probabilities only and never perturbs them.
func (e edgeDist) Entropy() float64 {
	pv := e.probs.Value
	var h float64
	for i := 0; i < pv.Rows; i++ {
		p := pv.Data[i]
		if p > 1e-12 && p < 1-1e-12 {
			h -= p*math.Log(p) + (1-p)*math.Log(1-p)
		}
	}
	if pv.Rows == 0 {
		return 0
	}
	return h / float64(pv.Rows)
}
