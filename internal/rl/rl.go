// Package rl trains learned policies with REINFORCE (§III):
//
//	∇J(θ) = (1/N) Σ_n ∇log π_θ(a^n) · [r(a^n) − b]
//
// A Policy supplies π_θ and the reward r. The coarsening model's π_θ
// factorizes over per-edge Bernoulli collapse decisions and r is the
// simulated relative throughput of the resulting allocation; a learned
// direct placer (internal/baselines) picks one device per operator and r
// simulates that placement. The baseline b is the mean reward of the
// on-policy samples plus the historically best samples kept in a
// per-graph memory buffer. Metis-guided training (§IV-C) first imitates
// each policy's Metis-guided action, then seeds the buffer with it; for
// the coarsening model that action is the decision vector inferred from
// a Metis partition via maximum-spanning-tree collapse inference. Guided
// entries are evicted as soon as the policy finds better samples,
// exactly as described in the paper.
//
// Training is fault-tolerant: the context-aware entry points
// (TrainOnCtx, CurriculumCtx) cancel cleanly between steps and persist a
// full-state checkpoint — parameters, Adam moments, memory buffers, RNG
// state, and curriculum position — so an interrupted run resumes
// step-for-step identical to an uninterrupted one. A divergence guard
// detects non-finite losses or gradients, rolls the model back to the
// last good state, and halves the learning rate instead of corrupting
// the parameters; panics in simulator-scoring workers surface as errors
// rather than crashing the process.
package rl

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	randv2 "math/rand/v2"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
	"repro/internal/stream"

	"repro/internal/autodiff"
)

// Process-wide training metrics. The counters are always live (a few
// atomic adds per optimizer step); the per-phase timing below is only
// taken when a Tracer or Curve sink is configured.
var (
	obsSteps       = obs.Default.Counter("rl_train_steps_total")
	obsDivergences = obs.Default.Counter("rl_divergences_total")
	obsCacheHits   = obs.Default.Counter("reward_cache_hits_total")
	obsCacheMisses = obs.Default.Counter("reward_cache_misses_total")
)

// Config controls one training run.
type Config struct {
	// Epochs is the number of passes over the training graphs (paper: 20
	// from scratch, 3–10 when fine-tuning).
	Epochs int
	// OnPolicySamples per graph per step (paper: 3).
	OnPolicySamples int
	// BufferSamples is the maximum number of memory-buffer samples mixed
	// into each step (paper: up to 3).
	BufferSamples int
	// LR is the Adam learning rate (paper: 0.001).
	LR float64
	// MetisGuided seeds memory buffers with the policy's Metis-guided
	// actions.
	MetisGuided bool
	// PretrainEpochs is the number of maximum-likelihood imitation epochs
	// over the Metis-guided actions run before REINFORCE. This is the
	// paper's Metis-guided cold-start signal (§IV-C) in its strongest
	// form: at CPU-scale training budgets the pure buffer-mixing variant
	// cannot transfer the collapse concept before lucky on-policy samples
	// evict the guided entries.
	PretrainEpochs int
	// Seed drives sampling.
	Seed int64
	// CheckpointPath, when set, receives full-state checkpoints: on every
	// AutosaveEvery-th step and whenever training is interrupted by its
	// context. Resume with LoadCheckpoint on a fresh trainer.
	CheckpointPath string
	// AutosaveEvery is the autosave cadence in REINFORCE steps (one step
	// = one graph visit). 0 disables periodic autosave; interruption
	// still checkpoints when CheckpointPath is set.
	AutosaveEvery int
	// GraphBatch is the number of graphs trained per optimizer step
	// (0 or 1 = classic serial REINFORCE: one Adam update per graph).
	// For GraphBatch=N, the N graphs of a batch all run their forward,
	// sampling, reward scoring, and backward passes against the same
	// parameter snapshot on concurrent model replicas; gradients are
	// reduced in fixed graph-index order into one Adam update. The
	// trajectory depends on N but never on TrainWorkers or scheduling.
	GraphBatch int
	// TrainWorkers caps the number of concurrent model replicas driving a
	// graph batch (0 = GOMAXPROCS). It is a pure wall-clock knob: any
	// value produces the bit-identical trajectory for a given GraphBatch.
	TrainWorkers int
	// Quiet suppresses progress logging.
	Quiet bool
	// Tracer, when set, records per-phase spans (encode / sample /
	// simulate / backward / all-reduce / checkpoint) on per-worker lanes,
	// exportable as Chrome trace-event JSON. Observation only: phase
	// timing never feeds back into training, so trajectories stay
	// bit-identical with tracing on or off.
	Tracer *obs.Tracer
	// Curve, when set, receives one JSONL training-curve record per
	// optimizer step (reward, baseline, loss, entropy, grad norm, cache
	// hit rate, per-phase wall milliseconds). Same observation-only
	// contract as Tracer.
	Curve *obs.CurveWriter
}

// DefaultConfig mirrors the paper's hyperparameters at CPU scale.
func DefaultConfig() Config {
	return Config{
		Epochs:          6,
		OnPolicySamples: 4,
		BufferSamples:   3,
		LR:              0.002,
		MetisGuided:     true,
		PretrainEpochs:  16,
		Seed:            7,
	}
}

// scored is an action with its achieved reward.
type scored struct {
	a      any
	reward float64
	guided bool // true for Metis-seeded entries
}

// Progress locates a trainer inside its training plan so a checkpoint can
// resume exactly where the previous process stopped: curriculum level,
// pretraining epoch, REINFORCE epoch, the shuffled graph order of the
// epoch in flight, the next step inside it, and the partial reward sum
// feeding that epoch's History entry.
type Progress struct {
	// Level is the current curriculum level (0 outside curricula).
	Level int `json:"level"`
	// Pretrain counts completed guided-imitation epochs on this dataset.
	Pretrain int `json:"pretrain"`
	// Seeded records that the memory buffers hold the Metis-guided seeds.
	Seeded bool `json:"seeded"`
	// Epoch is the current REINFORCE epoch on this dataset.
	Epoch int `json:"epoch"`
	// Step indexes the next unprocessed entry of Order.
	Step int `json:"step"`
	// Order is the shuffled graph visit order of the epoch in flight
	// (nil between epochs).
	Order []int `json:"order,omitempty"`
	// RewardSum accumulates on-policy rewards of the epoch in flight.
	RewardSum float64 `json:"reward_sum"`
}

// Trainer holds the mutable training state for one policy.
type Trainer struct {
	Cfg Config
	// Model and Pipeline are the coarsening model and the pipeline that
	// scores its decisions; both are nil when another policy trains.
	Model    *core.Model
	Pipeline *core.Pipeline
	Opt      *nn.Adam

	// Pos locates the trainer inside its training plan (checkpointed).
	Pos Progress
	// Divergences counts guard-triggered rollbacks.
	Divergences int

	// Rewards memoizes action rewards across steps, keyed by the policy's
	// Key, in rewardCacheSize entries; setting it to nil disables the memo.
	// Hit/miss counters are exported via Rewards.Stats().
	Rewards *cache.LRU[string, float64]

	// pol is the trained policy with its action type erased (policy.go);
	// decode reads one of its actions back from a checkpoint, and ps is
	// pol.Params().
	pol    Policy[any]
	decode func(json.RawMessage) (any, error)
	ps     *nn.ParamSet

	// buffer holds the best historical samples per training-graph index.
	buffer map[int][]scored
	pcg    *randv2.PCG
	rng    *randv2.Rand
	steps  int // total REINFORCE steps taken (drives autosave cadence)
	// sampleSeq is the substream cursor: every graph visit consumes one
	// per-(graph, step) PCG substream derived from (Cfg.Seed, sampleSeq,
	// graph index), so on-policy sampling is independent of batch shape
	// and worker scheduling. Persisted in checkpoints, never reset (not
	// even between curriculum levels), so -resume replays the exact
	// streams an uninterrupted run would have drawn.
	sampleSeq uint64

	// fwd is the reusable forward binder: one tape whose node slab and
	// arena-backed matrices are recycled every step (reset-on-acquire).
	fwd *nn.Binder

	// Data-parallel replica state (lazily grown by trainBatch): snap is
	// the per-batch parameter broadcast all replicas read, reps holds one
	// binder+tape per worker, and entryGrads one gradient accumulator per
	// batch entry so the leader can reduce in fixed graph-index order.
	snap       *nn.Snapshot
	reps       []*nn.Binder
	entryGrads []*nn.GradSet

	// good and goodOpt are the divergence guard's rollback target: the
	// parameters and Adam moments (nn.ParamSet.SaveState), in a buffer
	// allocated at the first snapshot and overwritten in place after.
	good    []float64
	goodOpt nn.AdamState

	// History records the mean on-policy reward per epoch.
	History []float64
}

// NewTrainer builds a trainer for the coarsening model; pipe scores its
// decisions.
func NewTrainer(cfg Config, model *core.Model, pipe *core.Pipeline) *Trainer {
	if pipe.Model != model {
		panic("rl: pipeline must wrap the trained model")
	}
	t := NewPolicyTrainer[core.Decision](cfg, coarsening{pipe})
	t.Model, t.Pipeline = model, pipe
	return t
}

// rewardCacheSize bounds the reward memo (Trainer.Rewards). The memo is an
// exact-key cache of the policy's deterministic reward (for the coarsening
// model, the coarsen → partition → simulate pipeline), so it never changes
// the training trajectory — only how often the reward actually runs.
const rewardCacheSize = 4096

// NewPolicyTrainer builds a trainer for any policy; the learned direct
// placers of internal/baselines train through it.
func NewPolicyTrainer[A any](cfg Config, p Policy[A]) *Trainer {
	pcg := randv2.NewPCG(uint64(cfg.Seed), 0x9E3779B97F4A7C15)
	rewards := cache.New[string, float64](rewardCacheSize)
	rewards.Instrument(obsCacheHits, obsCacheMisses)
	return &Trainer{
		Cfg:     cfg,
		Opt:     nn.NewAdam(cfg.LR),
		Rewards: rewards,
		pol:     erased[A]{p},
		decode:  decodeAction[A],
		ps:      p.Params(),
		buffer:  make(map[int][]scored),
		pcg:     pcg,
		rng:     randv2.New(pcg),
		fwd:     nn.NewBinder(autodiff.NewTape()),
	}
}

// score evaluates one action's reward through the policy, memoized on the
// policy's exact key for (graph id, action). Safe for concurrent use.
func (t *Trainer) score(gi int, g *stream.Graph, cluster sim.Cluster, a any) float64 {
	if t.Rewards == nil {
		return t.pol.Reward(g, cluster, a)
	}
	key := t.pol.Key(gi, a)
	if r, ok := t.Rewards.Get(key); ok {
		return r
	}
	r := t.pol.Reward(g, cluster, a)
	t.Rewards.Put(key, r)
	return r
}

func (t *Trainer) logf(format string, args ...any) {
	if !t.Cfg.Quiet {
		obs.Log.Infof(format, args...)
	}
}

// SeedMetisGuided populates the buffers with the policy's Metis-guided
// action for every training graph (run before the first epoch when
// MetisGuided).
func (t *Trainer) SeedMetisGuided(graphs []*stream.Graph, cluster sim.Cluster) error {
	entries := make([]scored, len(graphs))
	if err := parallel.ForEach(len(graphs), 0, func(_, i int) error {
		a := t.pol.Guided(graphs[i], cluster, t.Cfg.Seed)
		entries[i] = scored{a: a, reward: t.score(i, graphs[i], cluster, a), guided: true}
		return nil
	}); err != nil {
		return fmt.Errorf("rl: metis seeding failed: %w", err)
	}
	for i, e := range entries {
		t.buffer[i] = append(t.buffer[i], e)
	}
	t.Pos.Seeded = true
	return nil
}

// splitmix64 is the SplitMix64 finalizer — the standard way to expand one
// seed into decorrelated substream seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// sampleRNG derives the PCG substream for one (graph, step) visit. The
// stream is a pure function of the root seed, the global visit counter,
// and the graph index — never of batch shape, worker count, or scheduling
// — which is what makes batched training deterministic and -resume exact:
// a restored sampleSeq replays the identical streams.
func (t *Trainer) sampleRNG(seq uint64, gi int) *randv2.Rand {
	hi := splitmix64(uint64(t.Cfg.Seed)*0x9E3779B97F4A7C15 + seq)
	lo := splitmix64(hi + uint64(gi))
	return randv2.New(randv2.NewPCG(hi, lo))
}

// graphBatch returns the effective optimizer batch size.
func (t *Trainer) graphBatch() int {
	if t.Cfg.GraphBatch <= 1 {
		return 1
	}
	return t.Cfg.GraphBatch
}

// trainWorkers returns the effective replica count for a batch of b.
func (t *Trainer) trainWorkers(b int) int {
	w := t.Cfg.TrainWorkers
	if w <= 0 {
		w = parallel.DefaultWorkers()
	}
	if w > b {
		w = b
	}
	return w
}

// ensureReplicas grows the per-worker binders and per-entry gradient sets
// to cover `workers` replicas and `entries` batch slots. Replica binders
// bind the shared parameter snapshot, so their forward passes read a
// consistent copy while the leader owns the live values.
func (t *Trainer) ensureReplicas(workers, entries int) {
	if t.snap == nil {
		t.snap = nn.NewSnapshot(t.ps)
	}
	for len(t.reps) < workers {
		b := nn.NewBinder(autodiff.NewTape())
		b.BindSnapshot(t.snap)
		t.reps = append(t.reps, b)
	}
	for len(t.entryGrads) < entries {
		t.entryGrads = append(t.entryGrads, nn.NewGradSet(t.ps))
	}
}

// Phase indices for per-entry timing (curve + trace share one
// measurement; see stepEntry).
const (
	phaseEncode = iota
	phaseSample
	phaseSimulate
	phaseBackward
	numPhases
)

// phaseNames maps phase indices to span/curve labels.
var phaseNames = [numPhases]string{"encode", "sample", "simulate", "backward"}

// stepResult is one batch entry's contribution, exported by a replica and
// consumed by the leader in fixed graph-index order.
type stepResult struct {
	loss         float64
	hasLoss      bool
	samples      []scored
	onPolicyMean float64

	// Observability payload (populated only when a Curve or Tracer is
	// configured; zero-cost otherwise).
	baseline   float64
	entropy    float64
	bufferHits int
	phases     [numPhases]time.Duration
}

// stepEntry runs one graph's REINFORCE step on a replica binder: forward
// against the parameter snapshot, substream sampling, reward scoring,
// loss, backward, and gradient export into gs. It never touches the live
// parameters, the optimizer, or the memory buffers — those belong to the
// leader — so any number of entries can run concurrently.
func (t *Trainer) stepEntry(binder *nn.Binder, wid int, seq uint64, gi int, g *stream.Graph, cluster sim.Cluster, gs *nn.GradSet, innerWorkers int) (stepResult, error) {
	var res stepResult
	// Phase timing is taken only when a sink wants it; with observability
	// off the whole apparatus is one boolean test. One measurement feeds
	// both the tracer (span on this worker's lane) and the curve record.
	timed := t.Cfg.Tracer != nil || t.Cfg.Curve != nil
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	mark := func(ph int) {
		if !timed {
			return
		}
		now := time.Now()
		d := now.Sub(t0)
		res.phases[ph] = d
		t.Cfg.Tracer.Emit(phaseNames[ph], wid, t0, d)
		t0 = now
	}

	// The features and every sample's reward read g's demands: propagate
	// the rates once per step, not once per reader.
	g = g.PinDemands()
	binder.Reset()
	tape := binder.Tape
	dist := t.pol.Forward(binder, g, cluster)
	mark(phaseEncode)

	// Draw on-policy samples from this visit's private substream.
	rng := t.sampleRNG(seq, gi)
	n := t.Cfg.OnPolicySamples
	samples := make([]scored, n)
	for s := 0; s < n; s++ {
		samples[s] = scored{a: dist.Sample(rng)}
	}
	if t.Cfg.Curve != nil {
		// Every erased distribution reports one (erasedDist.Entropy).
		res.entropy = dist.(interface{ Entropy() float64 }).Entropy()
	}
	mark(phaseSample)
	// Evaluate rewards (for the coarsening model: coarsen → partition →
	// simulate), memoized on the policy's exact key so a duplicate sample
	// skips scoring entirely. Repeats within the step are grouped before
	// the fan-out: concurrent scorers of one action could otherwise all
	// miss the cache and score it twice, and the hit/miss split would
	// depend on timing. A repeat copies its first occurrence's reward,
	// then looks its key up so the cache counts the hit a serial scorer
	// would. A panic in one scorer surfaces here as an error; sibling
	// samples are still scored. When several batch entries already run
	// concurrently the scoring stays inside this worker (innerWorkers=1);
	// a serial batch fans it out across the machine.
	first := make([]int, n) // index of each sample's first occurrence
	firstOf := make(map[string]int, n)
	for s := range samples {
		k := t.pol.Key(gi, samples[s].a)
		if _, seen := firstOf[k]; !seen {
			firstOf[k] = s
		}
		first[s] = firstOf[k]
	}
	if err := parallel.ForEach(n, innerWorkers, func(_, s int) error {
		if first[s] == s {
			samples[s].reward = t.score(gi, g, cluster, samples[s].a)
		}
		return nil
	}); err != nil {
		return stepResult{}, fmt.Errorf("rl: sample scoring on graph %d failed: %w", gi, err)
	}
	for s, j := range first {
		if j != s {
			samples[s].reward = samples[j].reward
			if t.Rewards != nil {
				t.Rewards.Get(t.pol.Key(gi, samples[s].a))
			}
		}
	}
	mark(phaseSimulate)
	res.samples = samples
	finiteN := 0
	for _, s := range samples {
		if isFinite(s.reward) {
			res.onPolicyMean += s.reward
			finiteN++
		}
	}
	if finiteN > 0 {
		res.onPolicyMean /= float64(finiteN)
	}

	// Mix in buffered best samples. Non-finite on-policy rewards are
	// excluded from the whole batch — not just the on-policy mean — so a
	// single NaN/Inf sample cannot poison the baseline, the reward spread,
	// or the loss (buffered entries are always finite by construction).
	// The buffer is read-only for the whole batch; the leader applies
	// updates after the barrier.
	buf := t.buffer[gi]
	take := t.Cfg.BufferSamples
	if take > len(buf) {
		take = len(buf)
	}
	batch := make([]scored, 0, len(samples)+take)
	for _, s := range samples {
		if isFinite(s.reward) {
			batch = append(batch, s)
		}
	}
	batch = append(batch, buf[:take]...)
	res.bufferHits = take
	if len(batch) == 0 {
		// Every sample diverged and the buffer is empty: contribute no
		// gradient rather than feed NaNs to the optimizer.
		return res, nil
	}

	// Baseline: mean reward across the batch; advantages are normalized by
	// the batch reward spread so the gradient scale stays useful even when
	// rewards cluster tightly (they do once the policy is competent).
	var b float64
	for _, s := range batch {
		b += s.reward
	}
	b /= float64(len(batch))
	var sd float64
	for _, s := range batch {
		sd += (s.reward - b) * (s.reward - b)
	}
	sd = math.Sqrt(sd / float64(len(batch)))
	if sd < 1e-3 {
		sd = 1e-3
	}
	res.baseline = b

	// Accumulate the policy-gradient loss on the tape. The advantage is
	// divided by the policy's action count so the gradient scale is
	// independent of graph size (log π sums over every per-edge or
	// per-operator choice) and commensurate with the guided pretraining
	// loss.
	var loss *autodiff.Node
	inv := 1 / float64(len(batch)) / float64(t.pol.Size(g))
	for _, s := range batch {
		adv := (s.reward - b) / sd * inv
		if adv == 0 {
			continue
		}
		l := dist.LogProb(s.a, adv)
		if loss == nil {
			loss = l
		} else {
			loss = tape.Add(loss, l)
		}
	}
	if loss != nil {
		gs.Zero()
		tape.Backward(loss, nil)
		binder.CollectInto(gs)
		res.loss = scalarOf(loss)
		res.hasLoss = true
	}
	mark(phaseBackward)
	return res, nil
}

// batchEntry pairs a graph with its stable dataset index (which keys the
// memory buffer, the reward memo, and the RNG substream).
type batchEntry struct {
	gi int
	g  *stream.Graph
}

// step trains on one graph and returns the mean on-policy reward — the
// serial special case of trainBatch, kept as the unit the memoization and
// divergence tests drive directly.
func (t *Trainer) step(gi int, g *stream.Graph, cluster sim.Cluster) (float64, error) {
	return t.trainBatch(cluster, []batchEntry{{gi: gi, g: g}}, t.sampleSeq)
}

// trainBatch trains on one optimizer batch of graphs and returns the
// summed mean on-policy reward. Entries run on up to TrainWorkers
// concurrent model replicas, all reading the same parameter snapshot; the
// leader then reduces per-entry gradients in fixed batch order —
// independent of completion order — into one Adam update, applies the
// divergence guard once per batch, and updates the memory buffers. With
// GraphBatch=1 this degenerates to the classic serial step: one replica,
// one entry, one update per graph.
func (t *Trainer) trainBatch(cluster sim.Cluster, batch []batchEntry, seqBase uint64) (float64, error) {
	nB := len(batch)
	workers := t.trainWorkers(nB)
	t.ensureReplicas(workers, nB)
	// Broadcast: replicas read this batch's consistent parameter copy.
	t.snap.Capture()
	innerWorkers := 1
	if workers == 1 {
		// Serial batch: let sample scoring fan out across the machine.
		innerWorkers = 0
	}
	results := make([]stepResult, nB)
	if err := parallel.ForEach(nB, workers, func(w, j int) (err error) {
		// Worker lanes are 1-based in the trace; lane 0 belongs to the
		// leader (all-reduce, checkpoint).
		results[j], err = t.stepEntry(t.reps[w], w+1, seqBase+uint64(j), batch[j].gi, batch[j].g, cluster, t.entryGrads[j], innerWorkers)
		return err
	}); err != nil {
		return 0, err
	}

	timed := t.Cfg.Tracer != nil || t.Cfg.Curve != nil
	var tReduce time.Time
	if timed {
		tReduce = time.Now()
	}
	// Deterministic all-reduce: gradients fold into the live parameters
	// by ascending graph index, so the floating-point summation order —
	// and therefore the trajectory — is identical for any worker count.
	var lossSum float64
	hasLoss := false
	for j := range results {
		if results[j].hasLoss {
			lossSum += results[j].loss
			hasLoss = true
		}
	}
	var gradNorm float64
	if hasLoss {
		t.ps.ZeroGrads()
		for j := range results {
			if results[j].hasLoss {
				t.entryGrads[j].AddTo(t.ps)
			}
		}
		if t.Cfg.Curve != nil {
			gradNorm = t.gradNorm()
		}
		t.applyUpdate(lossSum)
	}
	var dReduce time.Duration
	if timed {
		dReduce = time.Since(tReduce)
		t.Cfg.Tracer.Emit("all-reduce", 0, tReduce, dReduce)
	}

	// Buffer updates and the reward sum also run in fixed order (graph
	// indices within one epoch batch are distinct, so this is the only
	// writer per buffer).
	var rewardSum float64
	for j := range results {
		t.updateBuffer(batch[j].gi, results[j].samples)
		rewardSum += results[j].onPolicyMean
	}
	obsSteps.Add(uint64(nB))
	if cw := t.Cfg.Curve; cw != nil {
		cw.Write(t.curveRecord(results, nB, rewardSum, lossSum, gradNorm, dReduce))
	}
	return rewardSum, nil
}

// gradNorm computes the L2 norm of the accumulated gradients (read-only;
// taken before the optimizer consumes them).
func (t *Trainer) gradNorm() float64 {
	var sq float64
	for _, p := range t.ps.All() {
		for _, g := range p.Grad.Data {
			sq += g * g
		}
	}
	return math.Sqrt(sq)
}

// curveRecord assembles one training-curve JSONL record from a finished
// optimizer batch. Step numbering counts graph visits, matching the
// autosave cadence (t.steps is advanced by the caller after the batch).
func (t *Trainer) curveRecord(results []stepResult, nB int, rewardSum, lossSum, gradNorm float64, dReduce time.Duration) obs.CurveRecord {
	rec := obs.CurveRecord{
		Step:     t.steps + nB,
		Level:    t.Pos.Level,
		Epoch:    t.Pos.Epoch,
		Graphs:   nB,
		Reward:   rewardSum / float64(nB),
		Loss:     lossSum,
		GradNorm: gradNorm,
		PhaseMS:  make(map[string]float64, numPhases+1),
	}
	for j := range results {
		rec.Baseline += results[j].baseline
		rec.Entropy += results[j].entropy
		rec.BufferHits += results[j].bufferHits
		for ph, d := range results[j].phases {
			rec.PhaseMS[phaseNames[ph]] += float64(d) / float64(time.Millisecond)
		}
	}
	rec.Baseline /= float64(nB)
	rec.Entropy /= float64(nB)
	rec.PhaseMS["all_reduce"] = float64(dReduce) / float64(time.Millisecond)
	if t.Rewards != nil {
		hits, misses := t.Rewards.Stats()
		if hits+misses > 0 {
			rec.CacheHitRate = float64(hits) / float64(hits+misses)
		}
	}
	return rec
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// scalarOf reads the scalar value of a loss node.
func scalarOf(n *autodiff.Node) float64 {
	if n == nil || len(n.Value.Data) == 0 {
		return 0
	}
	return n.Value.Data[0]
}

// applyUpdate runs the divergence guard and, when the step is healthy,
// the optimizer update. A non-finite loss, gradient, or post-update
// parameter rolls the model and optimizer back to the last good state
// and halves the learning rate — a NaN never propagates into the model.
// It returns false when the guard fired.
func (t *Trainer) applyUpdate(lossVal float64) bool {
	if !isFinite(lossVal) {
		t.rollback(fmt.Errorf("non-finite loss %v", lossVal))
		return false
	}
	if err := t.ps.CheckFiniteGrads(); err != nil {
		t.rollback(err)
		return false
	}
	t.Opt.Step(t.ps)
	if err := t.ps.CheckFiniteValues(); err != nil {
		t.rollback(err)
		return false
	}
	t.snapshotGood()
	return true
}

// snapshotGood records the current parameters and optimizer as the
// divergence guard's rollback target. It runs after every update, so it
// copies into the buffers of the first snapshot instead of allocating.
func (t *Trainer) snapshotGood() {
	if t.good == nil {
		t.good = make([]float64, 3*t.ps.Count())
	}
	t.ps.SaveState(t.good)
	t.goodOpt = t.Opt.State()
}

// rollback restores the last good state (when one exists) and halves the
// learning rate. Sampling RNG state is deliberately not rolled back:
// replaying the identical samples would reproduce the identical
// divergence.
func (t *Trainer) rollback(cause error) {
	t.Divergences++
	obsDivergences.Inc()
	// Halve the *current* learning rate, not the snapshot's: repeated
	// rollbacks without an intervening good step must keep compounding.
	halved := t.Opt.LR / 2
	if t.good != nil {
		t.ps.RestoreState(t.good)
		t.Opt.SetState(t.goodOpt)
	}
	t.Opt.LR = halved
	t.logf("rl: divergence guard: %v — rolled back to last good state, lr halved to %g (rollback #%d)",
		cause, t.Opt.LR, t.Divergences)
}

func (t *Trainer) updateBuffer(gi int, samples []scored) {
	buf := t.buffer[gi]
	for _, s := range samples {
		// Never admit non-finite rewards: one NaN would poison every
		// future baseline computed from this buffer.
		if isFinite(s.reward) {
			buf = append(buf, s)
		}
	}
	sort.SliceStable(buf, func(a, b int) bool {
		if buf[a].reward != buf[b].reward {
			return buf[a].reward > buf[b].reward
		}
		// Prefer on-policy over guided at equal reward so guided signals
		// phase out ("no longer affect model optimization", §IV-C).
		return !buf[a].guided && buf[b].guided
	})
	max := t.Cfg.BufferSamples
	if max < 1 {
		max = 1
	}
	if len(buf) > max {
		buf = buf[:max]
	}
	t.buffer[gi] = buf
}

// PretrainGuided runs maximum-likelihood imitation of the policy's
// Metis-guided actions for Cfg.PretrainEpochs epochs. It teaches the
// coarsening model which edges belong together (heavy intra-part spanning
// edges), and a placer which operators Metis puts together, before any
// reward signal is available — the cold-start guidance of §IV-C.
func (t *Trainer) PretrainGuided(graphs []*stream.Graph, cluster sim.Cluster) error {
	return t.PretrainGuidedCtx(context.Background(), graphs, cluster)
}

// PretrainGuidedCtx is PretrainGuided with cancellation between epochs;
// completed epochs are tracked in Pos.Pretrain so a resumed run continues
// rather than restarting.
func (t *Trainer) PretrainGuidedCtx(ctx context.Context, graphs []*stream.Graph, cluster sim.Cluster) error {
	if t.Cfg.PretrainEpochs <= 0 || t.Pos.Pretrain >= t.Cfg.PretrainEpochs {
		return nil
	}
	targets := make([]any, len(graphs))
	if err := parallel.ForEach(len(graphs), 0, func(_, i int) error {
		targets[i] = t.pol.Guided(graphs[i], cluster, t.Cfg.Seed)
		return nil
	}); err != nil {
		return fmt.Errorf("rl: pretrain target inference failed: %w", err)
	}
	for epoch := t.Pos.Pretrain; epoch < t.Cfg.PretrainEpochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return t.halt(err)
		}
		for i, g := range graphs {
			// Reset-on-acquire: the previous step's matrices go back to the
			// arena only after everything read from them was consumed.
			binder := t.fwd
			binder.Reset()
			loss := t.pol.Forward(binder, g, cluster).LogProb(targets[i], 1/float64(t.pol.Size(g)))
			t.ps.ZeroGrads()
			binder.Tape.Backward(loss, nil)
			binder.Collect()
			t.applyUpdate(scalarOf(loss))
		}
		t.Pos.Pretrain = epoch + 1
		t.logf("rl: pretrain epoch %d/%d", epoch+1, t.Cfg.PretrainEpochs)
	}
	return nil
}

// TrainOn runs guided pretraining (first call only) followed by
// Cfg.Epochs of REINFORCE over the graphs. It is TrainOnCtx without
// cancellation.
func (t *Trainer) TrainOn(graphs []*stream.Graph, cluster sim.Cluster) error {
	return t.TrainOnCtx(context.Background(), graphs, cluster)
}

// TrainOnCtx trains like TrainOn but honors ctx between pretraining
// epochs and between REINFORCE steps: on cancellation (SIGINT routed via
// signal.NotifyContext, a deadline, …) it checkpoints to
// Cfg.CheckpointPath (when set) and returns the context's error wrapped
// with where the state went. When Cfg.AutosaveEvery > 0 it additionally
// checkpoints every that-many steps, so even a SIGKILL loses at most one
// autosave interval.
func (t *Trainer) TrainOnCtx(ctx context.Context, graphs []*stream.Graph, cluster sim.Cluster) error {
	if t.Cfg.MetisGuided && !t.Pos.Seeded && len(t.buffer) == 0 {
		if err := t.PretrainGuidedCtx(ctx, graphs, cluster); err != nil {
			return err
		}
		if err := t.SeedMetisGuided(graphs, cluster); err != nil {
			return err
		}
	}
	for epoch := t.Pos.Epoch; epoch < t.Cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return t.halt(err)
		}
		t.Pos.Epoch = epoch
		if len(t.Pos.Order) != len(graphs) {
			order := make([]int, len(graphs))
			for i := range order {
				order[i] = i
			}
			t.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			t.Pos.Order = order
			t.Pos.Step = 0
			t.Pos.RewardSum = 0
		}
		// Walk the epoch order in optimizer batches of GraphBatch graphs.
		// The context is polled once per batch (= once per step when
		// GraphBatch is 1, preserving the classic cancellation cadence),
		// and autosave fires whenever the step counter crosses an
		// AutosaveEvery boundary — identical to the per-step modulo check
		// in the serial case.
		batchSize := t.graphBatch()
		for si := t.Pos.Step; si < len(t.Pos.Order); {
			if err := ctx.Err(); err != nil {
				return t.halt(err)
			}
			end := si + batchSize
			if end > len(t.Pos.Order) {
				end = len(t.Pos.Order)
			}
			entries := make([]batchEntry, end-si)
			for j := range entries {
				gi := t.Pos.Order[si+j]
				entries[j] = batchEntry{gi: gi, g: graphs[gi]}
			}
			r, err := t.trainBatch(cluster, entries, t.sampleSeq)
			if err != nil {
				return t.halt(err)
			}
			t.Pos.RewardSum += r
			t.Pos.Step = end
			stepsBefore := t.steps
			t.steps += end - si
			t.sampleSeq += uint64(end - si)
			si = end
			if a := t.Cfg.AutosaveEvery; a > 0 && t.Cfg.CheckpointPath != "" && t.steps/a > stepsBefore/a {
				sp := t.Cfg.Tracer.StartSpan("checkpoint", 0)
				err := t.SaveCheckpoint(t.Cfg.CheckpointPath)
				sp.End()
				if err != nil {
					return fmt.Errorf("rl: autosave failed: %w", err)
				}
			}
		}
		mean := t.Pos.RewardSum / float64(len(graphs))
		t.History = append(t.History, mean)
		t.Pos.Epoch = epoch + 1
		t.Pos.Step = 0
		t.Pos.Order = nil
		t.Pos.RewardSum = 0
		if t.Rewards != nil {
			hits, misses := t.Rewards.Stats()
			t.logf("rl: epoch %d/%d mean on-policy reward %.4f (reward cache: %d hits, %d misses)",
				epoch+1, t.Cfg.Epochs, mean, hits, misses)
		} else {
			t.logf("rl: epoch %d/%d mean on-policy reward %.4f", epoch+1, t.Cfg.Epochs, mean)
		}
	}
	// Dataset pass complete: clear the epoch cursor so a subsequent
	// TrainOn (fine-tuning on new data) starts a fresh pass while the
	// pretrain/seed markers keep their one-time semantics.
	t.Pos.Epoch = 0
	return nil
}

// halt checkpoints on interruption or step failure, then returns the
// cause annotated with where the state was saved.
func (t *Trainer) halt(cause error) error {
	if t.Cfg.CheckpointPath == "" {
		return fmt.Errorf("rl: training interrupted: %w", cause)
	}
	sp := t.Cfg.Tracer.StartSpan("checkpoint", 0)
	defer sp.End()
	if serr := t.SaveCheckpoint(t.Cfg.CheckpointPath); serr != nil {
		return fmt.Errorf("rl: training interrupted (%w); checkpoint also failed: %v", cause, serr)
	}
	return fmt.Errorf("rl: training interrupted (state saved to %s): %w", t.Cfg.CheckpointPath, cause)
}

// ResetBuffers clears the per-graph memory and the per-dataset progress
// markers (use when switching datasets during curriculum fine-tuning:
// graph indices change meaning, and the new dataset deserves its own
// guided cold start).
func (t *Trainer) ResetBuffers() {
	t.buffer = make(map[int][]scored)
	t.Pos = Progress{Level: t.Pos.Level}
	if t.Rewards != nil {
		// Graph ids index into the new dataset now; stale memoized rewards
		// would alias across levels.
		t.Rewards.Clear()
	}
}

// Level is one curriculum stage (§IV-C): a dataset plus epochs to train.
type Level struct {
	Name    string
	Graphs  []*stream.Graph
	Cluster sim.Cluster
	Epochs  int
}

// CurriculumCtx trains the model through the levels in order, carrying
// parameters forward and resetting per-graph buffers between levels (the
// paper's size-based curriculum: 100–200/10dev → 400–500/10dev →
// 1–2K/20dev). It honours cancellation and resumes: it starts at
// Pos.Level (restored by LoadCheckpoint), finishes the level in flight
// from its checkpointed epoch/step, and advances.
func (t *Trainer) CurriculumCtx(ctx context.Context, levels []Level) error {
	for li := t.Pos.Level; li < len(levels); li++ {
		lv := levels[li]
		t.Pos.Level = li
		saved := t.Cfg.Epochs
		if lv.Epochs > 0 {
			t.Cfg.Epochs = lv.Epochs
		}
		t.logf("rl: curriculum level %d/%d (%s): %d graphs, %d devices",
			li+1, len(levels), lv.Name, len(lv.Graphs), lv.Cluster.Devices)
		err := t.TrainOnCtx(ctx, lv.Graphs, lv.Cluster)
		t.Cfg.Epochs = saved
		if err != nil {
			return err
		}
		// Level complete: next level gets fresh buffers and markers.
		t.Pos.Level = li + 1
		t.ResetBuffers()
	}
	return nil
}

// Evaluate runs deployment-time inference (ranked coarsening sweep) on
// every graph and returns the per-graph relative throughputs. A panic in
// one graph's allocation is re-raised once every graph has run (see
// parallel.Map).
func Evaluate(pipe *core.Pipeline, graphs []*stream.Graph, cluster sim.Cluster) []float64 {
	return parallel.Map(len(graphs), 0, func(i int) float64 {
		return pipe.Allocate(graphs[i], cluster).Reward
	})
}

// EvaluateGreedy runs pure threshold-0.5 inference on every graph (used by
// inference-mode ablations).
func EvaluateGreedy(pipe *core.Pipeline, graphs []*stream.Graph, cluster sim.Cluster) []float64 {
	return parallel.Map(len(graphs), 0, func(i int) float64 {
		alloc := pipe.AllocateGreedy(graphs[i], cluster)
		return sim.Reward(graphs[i], alloc.Placement, cluster)
	})
}
