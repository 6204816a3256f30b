// Package rl trains the coarsening model with REINFORCE (§III):
//
//	∇J(θ) = (1/N) Σ_n ∇log π_θ(G_y^n) · [r(G_y^n) − b]
//
// where the policy π_θ factorizes over per-edge Bernoulli collapse
// decisions, r is the simulated relative throughput of the resulting
// allocation, and the baseline b is the mean reward of the on-policy
// samples plus the historically best samples kept in a per-graph memory
// buffer. Metis-guided training (§IV-C) seeds that buffer with decision
// vectors inferred from Metis partitions via maximum-spanning-tree
// collapse inference; guided entries are evicted as soon as the policy
// finds better samples, exactly as described in the paper.
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
	"fmt"
	"math"
	randv2 "math/rand/v2"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gnn"
	"repro/internal/metis"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/resilience"
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
	// MetisGuided seeds memory buffers with Metis-derived decisions.
	MetisGuided bool
	// PretrainEpochs is the number of maximum-likelihood imitation epochs
	// over the Metis-guided collapse decisions run before REINFORCE. This
	// is the paper's Metis-guided cold-start signal (§IV-C) in its
	// strongest form: at CPU-scale training budgets the pure
	// buffer-mixing variant cannot transfer the collapse concept before
	// lucky on-policy samples evict the guided entries.
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
	// RewardCacheSize bounds the reward-memoization LRU (entries). 0
	// selects the default (4096); negative disables memoization. The
	// cache is an exact-key memo of the deterministic coarsen → partition
	// → simulate pipeline, so it never changes the training trajectory —
	// only how often the pipeline actually runs.
	RewardCacheSize int
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
	// Logf receives progress lines when non-nil (and Quiet is false).
	Logf func(format string, args ...any)
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

// scored is a decision vector with its achieved reward.
type scored struct {
	d      core.Decision
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

// goodState is the in-memory rollback target of the divergence guard.
type goodState struct {
	params map[string]nn.ParamState
	opt    nn.AdamState
}

// Trainer holds the mutable training state for one model.
type Trainer struct {
	Cfg      Config
	Model    *core.Model
	Pipeline *core.Pipeline
	Opt      *nn.Adam

	// Pos locates the trainer inside its training plan (checkpointed).
	Pos Progress
	// Divergences counts guard-triggered rollbacks.
	Divergences int

	// Rewards memoizes decision rewards across steps (nil when disabled).
	// Hit/miss counters are exported via Rewards.Stats().
	Rewards *core.RewardCache

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

	lastGood *goodState

	// History records the mean on-policy reward per epoch.
	History []float64
}

// NewTrainer builds a trainer around a model and pipeline.
func NewTrainer(cfg Config, model *core.Model, pipe *core.Pipeline) *Trainer {
	if pipe.Model != model {
		panic("rl: pipeline must wrap the trained model")
	}
	pcg := randv2.NewPCG(uint64(cfg.Seed), 0x9E3779B97F4A7C15)
	var cache *core.RewardCache
	if cfg.RewardCacheSize >= 0 {
		size := cfg.RewardCacheSize
		if size == 0 {
			size = 4096
		}
		cache = core.NewRewardCache(size)
		cache.Instrument(obsCacheHits, obsCacheMisses)
	}
	return &Trainer{
		Cfg:      cfg,
		Model:    model,
		Pipeline: pipe,
		Opt:      nn.NewAdam(cfg.LR),
		Rewards:  cache,
		buffer:   make(map[int][]scored),
		pcg:      pcg,
		rng:      randv2.New(pcg),
		fwd:      nn.NewBinder(autodiff.NewTape()),
	}
}

// forward returns the trainer's reusable binder, recycled for a fresh
// step: reset-on-acquire returns the previous step's matrices to the
// arena only after everything read from them has been consumed.
func (t *Trainer) forward() *nn.Binder {
	t.fwd.Reset()
	return t.fwd
}

// scoreDecision evaluates one decision's reward through the pipeline,
// memoized on (graph id, exact decision bitset). Safe for concurrent use.
func (t *Trainer) scoreDecision(gi int, g *stream.Graph, cluster sim.Cluster, d core.Decision) float64 {
	if t.Rewards == nil {
		alloc := t.Pipeline.AllocateDecision(g, cluster, d)
		return sim.Reward(g, alloc.Placement, cluster)
	}
	key := core.DecisionKey(gi, d)
	if r, ok := t.Rewards.Get(key); ok {
		return r
	}
	alloc := t.Pipeline.AllocateDecision(g, cluster, d)
	r := sim.Reward(g, alloc.Placement, cluster)
	t.Rewards.Put(key, r)
	return r
}

func (t *Trainer) logf(format string, args ...any) {
	if t.Cfg.Quiet {
		return
	}
	if t.Cfg.Logf != nil {
		t.Cfg.Logf(format, args...)
		return
	}
	obs.Log.Infof(format, args...)
}

// SeedMetisGuided populates the buffers with Metis-derived decisions for
// every training graph (run before the first epoch when MetisGuided).
func (t *Trainer) SeedMetisGuided(graphs []*stream.Graph, cluster sim.Cluster) error {
	entries, err := resilience.Map(len(graphs), 0, func(i int) (scored, error) {
		g := graphs[i]
		mp := metis.Partition(g, metis.Options{Parts: cluster.Devices, Seed: t.Cfg.Seed})
		mp.Devices = cluster.Devices
		d := core.Decision(metis.InferCollapsedEdges(g, mp))
		return scored{d: d, reward: t.scoreDecision(i, g, cluster, d), guided: true}, nil
	})
	if err != nil {
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
		t.snap = nn.NewSnapshot(t.Model.PS)
	}
	for len(t.reps) < workers {
		b := nn.NewBinder(autodiff.NewTape())
		b.BindSnapshot(t.snap)
		t.reps = append(t.reps, b)
	}
	for len(t.entryGrads) < entries {
		t.entryGrads = append(t.entryGrads, nn.NewGradSet(t.Model.PS))
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

	f := gnn.BuildFeatures(g, cluster)
	binder.Reset()
	tape := binder.Tape
	probs := t.Model.EdgeProbs(binder, f)
	mark(phaseEncode)

	// Draw on-policy samples from this visit's private substream.
	rng := t.sampleRNG(seq, gi)
	n := t.Cfg.OnPolicySamples
	samples := make([]scored, n)
	pv := probs.Value
	for s := 0; s < n; s++ {
		d := make(core.Decision, pv.Rows)
		for i := 0; i < pv.Rows; i++ {
			d[i] = rng.Float64() < pv.Data[i]
		}
		samples[s] = scored{d: d}
	}
	if t.Cfg.Curve != nil {
		// Mean per-edge Bernoulli entropy of the policy — the curve's
		// exploration signal. Reads probabilities only; never perturbs them.
		var h float64
		for i := 0; i < pv.Rows; i++ {
			p := pv.Data[i]
			if p > 1e-12 && p < 1-1e-12 {
				h -= p*math.Log(p) + (1-p)*math.Log(1-p)
			}
		}
		if pv.Rows > 0 {
			res.entropy = h / float64(pv.Rows)
		}
	}
	mark(phaseSample)
	// Evaluate rewards (coarsen → partition → simulate), memoized on the
	// exact decision bitset so a duplicate sample skips the pipeline
	// entirely. Repeats within the step are grouped before the fan-out:
	// concurrent scorers of one decision could otherwise all miss the
	// cache and run the pipeline twice, and the hit/miss split would
	// depend on timing. A repeat copies its first occurrence's reward,
	// then looks its key up so the cache counts the hit a serial scorer
	// would. A panic in one scorer surfaces here as an error; sibling
	// samples are still scored. When several batch entries already run
	// concurrently the scoring stays inside this worker (innerWorkers=1);
	// a serial batch fans it out across the machine.
	first := make([]int, n) // index of each sample's first occurrence
	firstOf := make(map[string]int, n)
	for s := range samples {
		k := core.DecisionKey(gi, samples[s].d)
		if _, seen := firstOf[k]; !seen {
			firstOf[k] = s
		}
		first[s] = firstOf[k]
	}
	if err := resilience.ForEach(n, innerWorkers, func(s int) error {
		if first[s] == s {
			samples[s].reward = t.scoreDecision(gi, g, cluster, samples[s].d)
		}
		return nil
	}); err != nil {
		return stepResult{}, fmt.Errorf("rl: sample scoring on graph %d failed: %w", gi, err)
	}
	for s, j := range first {
		if j != s {
			samples[s].reward = samples[j].reward
			if t.Rewards != nil {
				t.Rewards.Get(core.DecisionKey(gi, samples[s].d))
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
	// divided by the edge count so the gradient scale is independent of
	// graph size (log π sums over all |E| Bernoulli decisions) and
	// commensurate with the guided pretraining loss.
	var loss *autodiff.Node
	inv := 1 / float64(len(batch)) / float64(g.NumEdges())
	for _, s := range batch {
		adv := (s.reward - b) / sd * inv
		if adv == 0 {
			continue
		}
		l := core.LogProbLoss(binder, probs, s.d, adv)
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
	err := resilience.ForEachWorker(nB, workers, func(w, j int) error {
		// Worker lanes are 1-based in the trace; lane 0 belongs to the
		// leader (all-reduce, checkpoint).
		res, err := t.stepEntry(t.reps[w], w+1, seqBase+uint64(j), batch[j].gi, batch[j].g, cluster, t.entryGrads[j], innerWorkers)
		if err != nil {
			return err
		}
		results[j] = res
		return nil
	})
	if err != nil {
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
		t.Model.PS.ZeroGrads()
		for j := range results {
			if results[j].hasLoss {
				t.entryGrads[j].AddTo(t.Model.PS)
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
	for _, p := range t.Model.PS.All() {
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
	if err := t.Model.PS.CheckFiniteGrads(); err != nil {
		t.rollback(err)
		return false
	}
	t.Opt.Step(t.Model.PS)
	if err := t.Model.PS.CheckFiniteValues(); err != nil {
		t.rollback(err)
		return false
	}
	t.snapshotGood()
	return true
}

// snapshotGood records the current parameters and optimizer as the
// divergence guard's rollback target.
func (t *Trainer) snapshotGood() {
	t.lastGood = &goodState{params: t.Model.PS.StateMap(), opt: t.Opt.State()}
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
	if t.lastGood != nil {
		if err := t.Model.PS.RestoreStateMap(t.lastGood.params); err != nil {
			panic(fmt.Sprintf("rl: rollback failed: %v", err))
		}
		t.Opt.SetState(t.lastGood.opt)
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

// PretrainGuided runs maximum-likelihood imitation of the Metis-guided
// collapse decisions for Cfg.PretrainEpochs epochs. It teaches the model
// which edges belong together (heavy intra-part spanning edges) before any
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
	targets, err := resilience.Map(len(graphs), 0, func(i int) (core.Decision, error) {
		mp := metis.Partition(graphs[i], metis.Options{Parts: cluster.Devices, Seed: t.Cfg.Seed})
		mp.Devices = cluster.Devices
		return core.Decision(metis.InferCollapsedEdges(graphs[i], mp)), nil
	})
	if err != nil {
		return fmt.Errorf("rl: pretrain target inference failed: %w", err)
	}
	for epoch := t.Pos.Pretrain; epoch < t.Cfg.PretrainEpochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return t.halt(err)
		}
		for i, g := range graphs {
			f := gnn.BuildFeatures(g, cluster)
			binder := t.forward()
			tape := binder.Tape
			probs := t.Model.EdgeProbs(binder, f)
			loss := core.LogProbLoss(binder, probs, targets[i], 1/float64(g.NumEdges()))
			t.Model.PS.ZeroGrads()
			tape.Backward(loss, nil)
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
// every graph and returns the per-graph relative throughputs.
func Evaluate(pipe *core.Pipeline, graphs []*stream.Graph, cluster sim.Cluster) []float64 {
	return evalWith(graphs, func(i int) float64 {
		alloc := pipe.Allocate(graphs[i], cluster)
		return sim.Reward(graphs[i], alloc.Placement, cluster)
	})
}

// EvaluateGreedy runs pure threshold-0.5 inference on every graph (used by
// inference-mode ablations).
func EvaluateGreedy(pipe *core.Pipeline, graphs []*stream.Graph, cluster sim.Cluster) []float64 {
	return evalWith(graphs, func(i int) float64 {
		alloc := pipe.AllocateGreedy(graphs[i], cluster)
		return sim.Reward(graphs[i], alloc.Placement, cluster)
	})
}

// evalWith scores every graph in parallel with panic isolation. A panic
// in one worker no longer kills sibling scorings mid-flight; once all
// graphs are attempted the recovered panic (with its stack) is re-raised
// so a partial result can never masquerade as a complete evaluation.
func evalWith(graphs []*stream.Graph, score func(i int) float64) []float64 {
	out, err := resilience.Map(len(graphs), 0, func(i int) (float64, error) {
		return score(i), nil
	})
	if err != nil {
		panic(err)
	}
	return out
}
