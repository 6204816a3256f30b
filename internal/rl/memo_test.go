package rl

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/placer"
	"repro/internal/sim"
)

func TestScoreDecisionMemoizes(t *testing.T) {
	ds, m, pipe := quickSetup(t, 1)
	tr := NewTrainer(DefaultConfig(), m, pipe)
	g := ds.Train[0]
	d := make(core.Decision, g.NumEdges())
	for i := range d {
		d[i] = i%3 == 0
	}
	r1 := tr.score(0, g, ds.Cluster, d)
	r2 := tr.score(0, g, ds.Cluster, d)
	if r1 != r2 {
		t.Fatalf("memoized reward differs: %g vs %g", r1, r2)
	}
	hits, misses := tr.Rewards.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses, want 1/1", hits, misses)
	}
	// A different decision must miss (exact keys, no collisions).
	d[0] = !d[0]
	tr.score(0, g, ds.Cluster, d)
	if h, ms := tr.Rewards.Stats(); h != 1 || ms != 2 {
		t.Fatalf("stats after distinct decision = %d hits, %d misses", h, ms)
	}
}

// TestStepScoresEachDistinctDecisionOnce saturates the merge head so that
// every on-policy sample is the same all-merge decision, then scores one
// step on four inner workers. However the scorers interleave, the
// pipeline must run once and every repeat must count as a cache hit, as
// it does for a serial scorer.
func TestStepScoresEachDistinctDecisionOnce(t *testing.T) {
	ds, m, pipe := quickSetup(t, 1)
	m.PS.Get("merge.head.l1.b").Value.Data[0] = 100 // sigmoid(100) == 1: every edge merges
	cfg := DefaultConfig()
	cfg.OnPolicySamples = 8
	tr := NewTrainer(cfg, m, pipe)
	tr.ensureReplicas(1, 1)
	tr.snap.Capture()
	res, err := tr.stepEntry(tr.reps[0], 1, 0, 0, ds.Train[0], ds.Cluster, tr.entryGrads[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	for s, smp := range res.samples {
		for _, merged := range smp.a.(core.Decision) {
			if !merged {
				t.Fatalf("sample %d has an unmerged edge; the head is not saturated", s)
			}
		}
		if smp.reward != res.samples[0].reward {
			t.Fatalf("sample %d reward %g, want %g", s, smp.reward, res.samples[0].reward)
		}
	}
	if hits, misses := tr.Rewards.Stats(); hits != 7 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses, want 7/1", hits, misses)
	}
}

// TestMemoizationPreservesTrajectory trains the same setup with the cache
// enabled and disabled, for every policy: because cache keys are exact
// and scoring consumes no trainer randomness, the training trajectory
// must be bit-identical. Graphs of 4–6 operators on two devices leave
// few distinct actions, so sampled actions repeat and the cache answers.
func TestMemoizationPreservesTrajectory(t *testing.T) {
	run := func(kind string, cached bool) *Trainer {
		s := gen.Medium5K()
		s.TrainN, s.TestN = 2, 2
		s.Config.MinNodes, s.Config.MaxNodes = 4, 6
		s.Cluster = sim.DefaultCluster(2, 1000)
		ds := s.Generate()
		cfg := core.DefaultConfig()
		cfg.Hidden, cfg.EdgeDim, cfg.MergeDim = 6, 3, 6
		m := core.New(cfg)
		pipe := &core.Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
		tcfg := DefaultConfig()
		tcfg.PretrainEpochs, tcfg.Epochs = 2, 3
		tcfg.Quiet = true
		tr := newPolicyTrainer(kind, tcfg, m, pipe)
		if !cached {
			tr.Rewards = nil
		}
		if err := tr.TrainOn(ds.Train, ds.Cluster); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, kind := range policies {
		t.Run(kind, func(t *testing.T) {
			on := run(kind, true)
			off := run(kind, false)
			if hits, misses := on.Rewards.Stats(); hits == 0 {
				t.Fatalf("the cached run never hit its cache (%d misses): nothing was compared", misses)
			}
			historyEqual(t, on.History, off.History)
			paramsEqual(t, on.ps, off.ps)
		})
	}
}

// TestStepSkipsUpdateWhenAllRewardsNonFinite forces every on-policy
// sample to score NaN (by poisoning the memoization cache) and verifies
// the step neither crashes nor moves the parameters: with no finite
// sample and an empty buffer there is nothing to learn from.
func TestStepSkipsUpdateWhenAllRewardsNonFinite(t *testing.T) {
	s := gen.Medium5K()
	s.TrainN, s.TestN = 1, 1
	s.Config.MinNodes, s.Config.MaxNodes = 4, 6 // few edges → enumerable decisions
	ds := s.Generate()
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.EdgeDim, cfg.MergeDim = 6, 3, 6
	m := core.New(cfg)
	pipe := &core.Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	tcfg := DefaultConfig()
	tcfg.Quiet = true
	tr := NewTrainer(tcfg, m, pipe)

	g := ds.Train[0]
	ne := g.NumEdges()
	if ne > 12 {
		t.Skipf("generated graph has %d edges; too many to enumerate", ne)
	}
	for mask := 0; mask < 1<<ne; mask++ {
		d := make(core.Decision, ne)
		for i := range d {
			d[i] = mask&(1<<i) != 0
		}
		tr.Rewards.Put(core.DecisionKey(0, d), math.NaN())
	}

	before := m.Probs(g, ds.Cluster)
	r, err := tr.step(0, g, ds.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	if r != 0 {
		t.Fatalf("on-policy mean with no finite sample = %g, want 0", r)
	}
	after := m.Probs(g, ds.Cluster)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("parameters moved on an all-NaN batch: prob[%d] %g → %g", i, before[i], after[i])
		}
	}
	if len(tr.buffer[0]) != 0 {
		t.Fatalf("non-finite samples admitted to buffer: %v", tr.buffer[0])
	}
}

// TestStepFiltersNonFiniteFromBaseline poisons a strict subset of the
// decision space and checks the step still learns from the finite
// remainder without the baseline or loss going non-finite.
func TestStepFiltersNonFiniteFromBaseline(t *testing.T) {
	s := gen.Medium5K()
	s.TrainN, s.TestN = 1, 1
	s.Config.MinNodes, s.Config.MaxNodes = 4, 6
	ds := s.Generate()
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.EdgeDim, cfg.MergeDim = 6, 3, 6
	m := core.New(cfg)
	pipe := &core.Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	tcfg := DefaultConfig()
	tcfg.Quiet = true
	tr := NewTrainer(tcfg, m, pipe)

	g := ds.Train[0]
	ne := g.NumEdges()
	if ne > 12 {
		t.Skipf("generated graph has %d edges; too many to enumerate", ne)
	}
	// Poison the odd half of the decision space: samples landing there
	// score NaN, the rest stay finite.
	for mask := 0; mask < 1<<ne; mask++ {
		if mask%2 == 0 {
			continue
		}
		d := make(core.Decision, ne)
		for i := range d {
			d[i] = mask&(1<<i) != 0
		}
		tr.Rewards.Put(core.DecisionKey(0, d), math.NaN())
	}
	if _, err := tr.step(0, g, ds.Cluster); err != nil {
		t.Fatal(err)
	}
	probs := m.Probs(g, ds.Cluster)
	for i, p := range probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("prob[%d] non-finite after partially poisoned step: %g", i, p)
		}
	}
	for _, b := range tr.buffer[0] {
		if !isFinite(b.reward) {
			t.Fatalf("non-finite reward in buffer: %g", b.reward)
		}
	}
}
