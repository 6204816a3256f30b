package rl

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

func batchConfig(graphBatch, workers int) Config {
	cfg := DefaultConfig()
	cfg.Epochs = 3
	cfg.PretrainEpochs = 2
	cfg.OnPolicySamples = 2
	cfg.BufferSamples = 2
	cfg.Seed = 11
	cfg.Quiet = true
	cfg.GraphBatch = graphBatch
	cfg.TrainWorkers = workers
	return cfg
}

// policies names the policies the trajectory tests train: the coarsening
// model and two learned placers, one sampling every operator from one
// forward pass (GDP) and one decoding once per sample (Graph-enc-dec).
var policies = []string{"coarsen", "gdp", "graph-enc-dec"}

// NewPlacer builds a fresh, identically seeded learned placer by name. It
// is set by placers_test.go: internal/baselines imports rl, so only the
// external test package may import it.
var NewPlacer func(kind string) Policy[[]int]

// newPolicyTrainer builds a trainer of the named policy: the coarsening
// model m behind pipe, or a learned placer.
func newPolicyTrainer(kind string, cfg Config, m *core.Model, pipe *core.Pipeline) *Trainer {
	if kind == "coarsen" {
		return NewTrainer(cfg, m, pipe)
	}
	return NewPolicyTrainer(cfg, NewPlacer(kind))
}

// batchRun trains a fresh policy on a fresh (but identically seeded)
// dataset and returns the trainer for trajectory comparison.
func batchRun(t *testing.T, kind string, graphBatch, workers int) *Trainer {
	t.Helper()
	ds, m, pipe := quickSetup(t, 6)
	tr := newPolicyTrainer(kind, batchConfig(graphBatch, workers), m, pipe)
	if err := tr.TrainOn(ds.Train, ds.Cluster); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestBatchedTrainingDeterministicAcrossWorkers is the core data-parallel
// guarantee: for a fixed GraphBatch, the number of replica workers is a
// pure wall-clock knob. Reward histories and final parameters must be
// bit-identical between a serial run and a maximally parallel one,
// including the uneven tail batch (6 graphs in batches of 4), for every
// policy.
func TestBatchedTrainingDeterministicAcrossWorkers(t *testing.T) {
	for _, kind := range policies {
		t.Run(kind, func(t *testing.T) {
			tr1 := batchRun(t, kind, 4, 1)
			tr8 := batchRun(t, kind, 4, 8)
			historyEqual(t, tr1.History, tr8.History)
			paramsEqual(t, tr1.ps, tr8.ps)
			if tr1.sampleSeq != tr8.sampleSeq {
				t.Fatalf("substream cursors diverged: %d vs %d", tr1.sampleSeq, tr8.sampleSeq)
			}
		})
	}
}

// TestGraphBatchDefaultsAreEquivalent pins GraphBatch=0 and GraphBatch=1
// to the same (classic serial) trajectory regardless of TrainWorkers —
// with one graph per update there is nothing to parallelize over.
func TestGraphBatchDefaultsAreEquivalent(t *testing.T) {
	tr0 := batchRun(t, "coarsen", 0, 0)
	tr1 := batchRun(t, "coarsen", 1, 8)
	historyEqual(t, tr0.History, tr1.History)
	paramsEqual(t, tr0.ps, tr1.ps)
}

// TestBatchedResumeMatchesUninterruptedTrajectory kills a batched run
// mid-epoch and resumes it in a fresh process with a different worker
// count: the checkpointed substream cursor and batch position must
// reproduce the uninterrupted trajectory exactly.
func TestBatchedResumeMatchesUninterruptedTrajectory(t *testing.T) {
	runs := resumeSetup(t)
	path := filepath.Join(t.TempDir(), "batched.ckpt")

	mkCfg := func(workers int) Config {
		cfg := batchConfig(2, workers)
		return cfg
	}

	trA := NewTrainer(mkCfg(1), runs[0].m, runs[0].pipe)
	if err := trA.TrainOn(runs[0].ds.Train, runs[0].ds.Cluster); err != nil {
		t.Fatal(err)
	}

	// Err() is polled once per pretrain epoch, once per epoch start, and
	// once per batch (3 graphs → 2 batches per epoch); 7 polls dies inside
	// epoch 2 of 3.
	cfgB := mkCfg(4)
	cfgB.CheckpointPath = path
	cfgB.AutosaveEvery = 1
	trB := NewTrainer(cfgB, runs[1].m, runs[1].pipe)
	killCtx := &stepLimitCtx{Context: context.Background(), remaining: 7}
	err := trB.TrainOnCtx(killCtx, runs[1].ds.Train, runs[1].ds.Cluster)
	if err == nil {
		t.Fatal("killed run must report interruption")
	}
	if !strings.Contains(err.Error(), "state saved to") {
		t.Fatalf("interruption error should say where state went: %v", err)
	}
	if len(trB.History) >= trA.Cfg.Epochs {
		t.Fatalf("kill came too late to exercise resume (completed %d epochs)", len(trB.History))
	}

	// Resume with yet another worker count: trajectory must not care.
	trC := NewTrainer(mkCfg(8), runs[2].m, runs[2].pipe)
	if err := trC.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := trC.TrainOn(runs[2].ds.Train, runs[2].ds.Cluster); err != nil {
		t.Fatal(err)
	}

	historyEqual(t, trA.History, trC.History)
	paramsEqual(t, runs[0].m.PS, runs[2].m.PS)
}

// TestBatchedWorkerPanicSurfacesAsError runs the panicking placer under a
// parallel batch: the panic must surface as an error from the batch (with
// sibling entries unharmed), not crash the process.
func TestBatchedWorkerPanicSurfacesAsError(t *testing.T) {
	ds, m, _ := quickSetup(t, 4)
	pipe := &core.Pipeline{Model: m, Placer: panicPlacer{}}
	cfg := batchConfig(4, 4)
	cfg.MetisGuided = false
	cfg.PretrainEpochs = 0
	tr := NewTrainer(cfg, m, pipe)
	err := tr.TrainOn(ds.Train, ds.Cluster)
	if err == nil {
		t.Fatal("panicking worker must surface as an error")
	}
	if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "placer exploded") {
		t.Fatalf("error should carry the recovered panic: %v", err)
	}
}
