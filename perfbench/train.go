package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gnn"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/stream"
)

// stepClock is the io.Writer behind the trainer's curve sink. The
// trainer writes one record when each optimizer step ends, so the write
// times delimit the steps; the records carry the per-phase timings.
type stepClock struct {
	mu      sync.Mutex
	times   []time.Time
	records []obs.CurveRecord
}

func (s *stepClock) Write(b []byte) (int, error) {
	now := time.Now()
	var rec obs.CurveRecord
	if err := json.Unmarshal(b, &rec); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.times = append(s.times, now)
	s.records = append(s.records, rec)
	return len(b), nil
}

// trainRound is one timed REINFORCE run from the set-up checkpoint.
type trainRound struct {
	steps         samples // per graph-step wall ms
	elapsed, cpu  time.Duration
	heapBytes     float64 // allocated on the heap by TrainOn
	clock         *stepClock
	divergences   int
	hits, lookups float64 // reward-cache lookups during the round
}

// trainConfig is coarsenrl's training configuration: rl.DefaultConfig
// with its -lr and -seed defaults, GraphBatch 1, no checkpointing.
func trainConfig(epochs int) rl.Config {
	cfg := rl.DefaultConfig()
	cfg.LR = 0.003
	cfg.Seed = 1
	cfg.Epochs = epochs
	cfg.GraphBatch = 1
	cfg.Quiet = true
	return cfg
}

// runTrainMedium5K is the train-medium5k workload: REINFORCE epochs of
// rl.Trainer over a fixed Medium5K train split. Set-up runs Metis-guided
// pretraining and seeding and saves the trainer; each timed round
// restores it and trains the same epochs, so every round repeats the
// same trajectory and must reproduce the same reward history.
func runTrainMedium5K(o options, r *report) error {
	s := gen.Medium5K()
	// Step cost varies about 3x between Medium graphs, mostly with their
	// edge count, so the split is a stratified sample whose averages
	// barely depend on the seed; three pretraining epochs keep set-up short
	// at its size.
	n, epochs, pretrain := 48, 2, 3
	if o.tiny {
		s.Config.MinNodes, s.Config.MaxNodes = 20, 30
		n, epochs, pretrain = 2, 1, 2
	}
	c := s.Cluster
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	ckpt := filepath.Join(o.out, fmt.Sprintf("train-seed%d.ckpt", o.seed))
	defer os.Remove(ckpt)
	var graphs []*stream.Graph
	var pretrainMS float64
	if err := timeSetup(r, 3, func() (time.Duration, error) {
		graphs = stratifiedSet(s.Config, n, o.seed)
		cfg := trainConfig(epochs)
		cfg.PretrainEpochs = pretrain
		m := core.New(core.DefaultConfig())
		tr := rl.NewTrainer(cfg, m, &core.Pipeline{Model: m, Placer: placer.Metis{Seed: 1}})
		t0 := time.Now()
		if err := tr.PretrainGuided(graphs, c); err != nil {
			return 0, err
		}
		pretrainMS = ms(time.Since(t0)) / float64(pretrain)
		if err := tr.SeedMetisGuided(graphs, c); err != nil {
			return 0, err
		}
		return 0, tr.SaveCheckpoint(ckpt)
	}); err != nil {
		return err
	}

	// One trainer serves every round: each restores the set-up checkpoint
	// and starts from an empty reward cache, which the checkpoint does not
	// hold, so every round does the same work.
	m := core.New(core.DefaultConfig())
	tr := rl.NewTrainer(trainConfig(epochs), m, &core.Pipeline{Model: m})
	var ref []float64 // the first round's reward history
	round := func(pl placer.Placer) (trainRound, error) {
		clock := &stepClock{}
		tr.Cfg.Curve = obs.NewCurveWriter(json.NewEncoder(clock))
		tr.Pipeline.Placer = pl
		tr.Rewards.Clear()
		if err := tr.LoadCheckpoint(ckpt); err != nil {
			return trainRound{}, err
		}
		// Each round starts from a collected heap, so one round's garbage
		// does not decide the next round's peak RSS.
		runtime.GC()
		h0, m0 := tr.Rewards.Stats()
		a0, c0 := readGoStats().allocBytes, cpuTime()
		t0 := time.Now()
		err := tr.TrainOn(graphs, c)
		elapsed, cpu := time.Since(t0), cpuTime()-c0
		heap := readGoStats().allocBytes - a0
		if err != nil {
			return trainRound{}, err
		}
		if err := tr.Cfg.Curve.Err(); err != nil {
			return trainRound{}, fmt.Errorf("curve sink: %w", err)
		}
		h1, m1 := tr.Rewards.Stats()
		rd := trainRound{elapsed: elapsed, cpu: cpu, heapBytes: heap, clock: clock, divergences: tr.Divergences,
			hits: float64(h1 - h0), lookups: float64(h1 - h0 + m1 - m0)}
		prev := t0
		for _, t := range clock.times {
			rd.steps = append(rd.steps, ms(t.Sub(prev)))
			prev = t
		}
		r.attempted += len(rd.steps)
		if err := checkHistory(tr.History, epochs); err != nil {
			r.fail("%v", err)
		} else if ref == nil {
			ref = tr.History
		} else if !slices.Equal(ref, tr.History) {
			r.fail("round reward history %v differs from the first round's %v", tr.History, ref)
		}
		return rd, nil
	}

	if !o.trace {
		var steps samples
		var elapsed, cpu time.Duration
		var heap float64
		deadline := time.Now().Add(o.dur)
		for len(steps) == 0 || time.Now().Before(deadline) {
			rd, err := round(placer.Metis{Seed: 1})
			if err != nil {
				return err
			}
			steps = append(steps, rd.steps...)
			elapsed += rd.elapsed
			cpu += rd.cpu
			heap += rd.heapBytes
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		last := 0.0
		if len(ref) > 0 {
			last = ref[len(ref)-1]
		}
		rate := float64(len(steps)) / elapsed.Seconds()
		cpuPerStep := ms(cpu) / float64(len(steps))
		r.set("cpu_ms_per_op", cpuPerStep, len(steps))
		r.set("alloc_mb_per_op", heap/1e6/float64(len(steps)), len(steps))
		r.set("quality", last, len(graphs))
		r.detailf("peak_rss_mb", rss, "MB", 1)
		r.detailf("train_steps_per_s", rate, "graph-steps/s", len(steps))
		r.detailf("train_step_p50_ms", steps.median(), "ms", len(steps))
		r.detailf("train_step_p95_ms", steps.quantile(0.95), "ms", len(steps))
		r.detailf("train_reward_last", last, "T/I", len(graphs))
		return nil
	}

	// Traced: untraced rounds for a third of the time (the Go runtime
	// figures), then pairs of an untraced round and a round with partition
	// calls timed and the hidden layers replayed on decisions sampled from
	// the model; the pairs' duration ratio is the tracing overhead.
	var base samples
	before := readGoStats()
	deadline := time.Now().Add(o.dur / 3)
	for len(base) == 0 || time.Now().Before(deadline) {
		rd, err := round(placer.Metis{Seed: 1})
		if err != nil {
			return err
		}
		base = append(base, rd.steps...)
	}
	r.setGoStats(before, readGoStats(), len(base))

	spans := newTracer()
	st := stageSums{}
	var replay, overhead samples
	var divergences, hits, lookups float64
	binder := nn.NewBinder(autodiff.NewTape())
	deadline = time.Now().Add(o.dur - o.dur/3)
	for id := int64(0); id == 0 || time.Now().Before(deadline); id++ {
		// The pair's order alternates so warm caches favour neither side.
		var u trainRound
		var err error
		if id%2 == 0 {
			if u, err = round(placer.Metis{Seed: 1}); err != nil {
				return err
			}
		}
		root := spans.begin("train.round", id, -1, false)
		tp := &timedPlacer{inner: placer.Metis{Seed: 1}, tr: spans, id: id, parent: root}
		rd, err := round(tp)
		if err != nil {
			return err
		}
		spans.finish(root)
		if id%2 == 1 {
			if u, err = round(placer.Metis{Seed: 1}); err != nil {
				return err
			}
		}
		overhead = append(overhead, float64(rd.elapsed)/float64(u.elapsed)-1)
		nsteps := float64(len(rd.steps))
		calls, metis := tp.total()
		st.add("metis.partition_ms", ms(metis)/nsteps)
		st.add("metis.partition_calls", float64(calls)/nsteps)
		st.add("sim.reward_calls", float64(calls)/nsteps)
		for _, rec := range rd.clock.records {
			for _, ph := range []string{"encode", "sample", "simulate", "backward", "all_reduce"} {
				st.add("rl."+ph+"_ms", rec.PhaseMS[ph])
			}
		}
		hits += rd.hits
		lookups += rd.lookups
		divergences += float64(rd.divergences)
		rep, err := replayTrainDecisions(spans, id, binder, m, graphs, c, st)
		if err != nil {
			return err
		}
		replay = append(replay, ms(rep))
	}
	st.setMeans(r)
	if lookups > 0 {
		r.set("rl.reward_cache_hit_frac", hits/lookups, int(lookups))
	}
	r.set("rl.divergences", divergences, len(replay))
	r.set("rl.pretrain_epoch_ms", pretrainMS, pretrain)
	r.set("trace.overhead_frac", overhead.median(), len(overhead))
	r.set("trace.replay_ms", replay.mean(), len(replay))
	return spans.writeFile(o.spanPath())
}

// stratifiedSet draws ten times n graphs from seed, ranks them by edge
// count and keeps the middle graph of each run of ten, in the order they
// were drawn. A plain draw of 48 Medium graphs moved the mean edge count,
// and with it the cost of a training step, by ±9% from seed to seed.
func stratifiedSet(cfg gen.Config, n int, seed int64) []*stream.Graph {
	const k = 10
	pool := gen.GenerateSet(cfg, n*k, seed)
	rank := make([]int, len(pool))
	for i := range rank {
		rank[i] = i
	}
	slices.SortStableFunc(rank, func(a, b int) int { return pool[a].NumEdges() - pool[b].NumEdges() })
	keep := make([]int, 0, n)
	for i := k / 2; i < len(rank); i += k {
		keep = append(keep, rank[i])
	}
	slices.Sort(keep)
	out := make([]*stream.Graph, len(keep))
	for i, j := range keep {
		out[i] = pool[j]
	}
	return out
}

// checkHistory requires one finite reward in [0,1] per epoch.
func checkHistory(h []float64, epochs int) error {
	if len(h) != epochs {
		return fmt.Errorf("reward history has %d epochs, want %d", len(h), epochs)
	}
	for i, v := range h {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			return fmt.Errorf("epoch %d reward %v outside [0,1]", i, v)
		}
	}
	return nil
}

// replayTrainDecisions re-runs, for each training graph, the layers a
// training step reaches inside the trainer: features and forward, then
// one decision sampled from the trained model scored the way the
// trainer scores it (collapse → coarse graph → partition → expand →
// reward). Stage times are per scored decision.
func replayTrainDecisions(tr *tracer, id int64, binder *nn.Binder, model *core.Model, graphs []*stream.Graph,
	c sim.Cluster, st stageSums) (time.Duration, error) {
	rp := tr.begin("replay", id, -1, true)
	rng := rand.New(rand.NewSource(id))
	for _, g := range graphs {
		var f *gnn.Features
		feat := tr.timed("gnn.features", id, rp, true, func() { f = gnn.BuildFeatures(g, c) })
		binder.Reset()
		ep := tr.begin("core.edge_probs", id, rp, true)
		probs := model.EdgeProbs(binder, f).Value.Data
		tr.finish(ep)
		d := make(core.Decision, len(probs))
		for i, p := range probs {
			d[i] = rng.Float64() < p
		}
		binder.Reset()
		enc := tr.timed("gnn.encode", id, ep, true, func() { model.Enc.Encode(binder, f) })
		var cm *stream.CoarseMap
		var cg *stream.Graph
		var cp, p *stream.Placement
		collapse := tr.timed("stream.collapse", id, rp, true, func() { cm = stream.CollapseEdges(g, d) })
		coarse := tr.timed("stream.coarse_graph", id, rp, true, func() { cg = stream.CoarseGraph(g, cm) })
		tr.timed("metis.partition", id, rp, true, func() { cp = placer.Metis{Seed: 1}.Place(cg, c) })
		expand := tr.timed("stream.expand", id, rp, true, func() { p = stream.ExpandPlacement(cm, cp) })
		if _, err := checkPlacement(g, p, c); err != nil {
			return 0, fmt.Errorf("training replay: %w", err)
		}
		reward := tr.timed("sim.reward", id, rp, true, func() { sim.Reward(g, p, c) })
		st.add("gnn.features_ms", ms(feat))
		st.add("gnn.encode_ms", ms(enc))
		st.add("core.edge_head_ms", ms(tr.dur(ep)-enc))
		st.add("stream.collapse_ms", ms(collapse))
		st.add("stream.coarse_graph_ms", ms(coarse))
		st.add("stream.expand_ms", ms(expand))
		st.add("stream.coarse_nodes_mean", float64(cg.NumNodes()))
		st.add("sim.reward_ms", ms(reward))
	}
	return tr.finish(rp), nil
}
