package rl

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/sim"
	"repro/internal/stream"
)

// stepLimitCtx cancels after a fixed number of Err() polls, giving tests a
// deterministic "kill" point between training steps.
type stepLimitCtx struct {
	context.Context
	remaining int
}

func (c *stepLimitCtx) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

// resumeSetup builds three identical dataset/model/pipeline triples so
// run A (uninterrupted), run B (killed), and run C (resumed) start from
// bit-identical state.
func resumeSetup(t *testing.T) [3]struct {
	ds   *gen.Dataset
	m    *core.Model
	pipe *core.Pipeline
} {
	t.Helper()
	var out [3]struct {
		ds   *gen.Dataset
		m    *core.Model
		pipe *core.Pipeline
	}
	for i := range out {
		ds, m, pipe := quickSetup(t, 3)
		out[i].ds, out[i].m, out[i].pipe = ds, m, pipe
	}
	return out
}

func resumeConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs = 3
	cfg.PretrainEpochs = 2
	cfg.OnPolicySamples = 2
	cfg.BufferSamples = 2
	cfg.Seed = 11
	cfg.Quiet = true
	return cfg
}

func paramsEqual(t *testing.T, a, b *nn.ParamSet) {
	t.Helper()
	for _, p := range a.All() {
		q := b.Get(p.Name)
		for i := range p.Value.Data {
			if p.Value.Data[i] != q.Value.Data[i] {
				t.Fatalf("parameter %s[%d] differs: %v vs %v", p.Name, i, p.Value.Data[i], q.Value.Data[i])
			}
		}
	}
}

func historyEqual(t *testing.T, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("history lengths differ: %d vs %d (%v vs %v)", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("history[%d] differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestResumeMatchesUninterruptedTrajectory kills a run mid-epoch and
// resumes it from its checkpoint in a fresh trainer, for every policy: the
// resumed run must end bit-identical to an uninterrupted one.
func TestResumeMatchesUninterruptedTrajectory(t *testing.T) {
	for _, kind := range policies {
		t.Run(kind, func(t *testing.T) { testResume(t, kind) })
	}
}

func testResume(t *testing.T, kind string) {
	runs := resumeSetup(t)
	path := filepath.Join(t.TempDir(), "trainer.ckpt")

	// Run A: uninterrupted reference.
	cfgA := resumeConfig()
	trA := newPolicyTrainer(kind, cfgA, runs[0].m, runs[0].pipe)
	if err := trA.TrainOn(runs[0].ds.Train, runs[0].ds.Cluster); err != nil {
		t.Fatal(err)
	}
	if len(trA.History) != cfgA.Epochs {
		t.Fatalf("reference run recorded %d epochs, want %d", len(trA.History), cfgA.Epochs)
	}

	// Run B: identical config, killed mid-epoch (the step-limited context
	// plays the role of SIGINT between steps), autosaving every step.
	cfgB := resumeConfig()
	cfgB.CheckpointPath = path
	cfgB.AutosaveEvery = 1
	trB := newPolicyTrainer(kind, cfgB, runs[1].m, runs[1].pipe)
	// Err() is polled once per pretrain epoch, once per epoch start, and
	// once per step; 8 polls dies inside epoch 2 of 3.
	killCtx := &stepLimitCtx{Context: context.Background(), remaining: 8}
	err := trB.TrainOnCtx(killCtx, runs[1].ds.Train, runs[1].ds.Cluster)
	if err == nil {
		t.Fatal("killed run must report interruption")
	}
	if !strings.Contains(err.Error(), "state saved to") {
		t.Fatalf("interruption error should say where state went: %v", err)
	}
	if len(trB.History) >= cfgA.Epochs {
		t.Fatalf("kill came too late to exercise resume (completed %d epochs)", len(trB.History))
	}

	// Run C: fresh process — fresh model, trainer, and RNG — resumed from
	// the checkpoint, then trained to completion.
	cfgC := resumeConfig()
	trC := newPolicyTrainer(kind, cfgC, runs[2].m, runs[2].pipe)
	if err := trC.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := trC.TrainOn(runs[2].ds.Train, runs[2].ds.Cluster); err != nil {
		t.Fatal(err)
	}

	historyEqual(t, trA.History, trC.History)
	paramsEqual(t, trA.ps, trC.ps)
}

func TestCurriculumResumeMatchesUninterrupted(t *testing.T) {
	runs := resumeSetup(t)
	path := filepath.Join(t.TempDir(), "curriculum.ckpt")
	mkLevels := func(ds *gen.Dataset) []Level {
		return []Level{
			{Name: "a", Graphs: ds.Train[:2], Cluster: ds.Cluster, Epochs: 2},
			{Name: "b", Graphs: ds.Train[1:], Cluster: ds.Cluster, Epochs: 2},
		}
	}

	cfgA := resumeConfig()
	trA := NewTrainer(cfgA, runs[0].m, runs[0].pipe)
	if err := trA.CurriculumCtx(context.Background(), mkLevels(runs[0].ds)); err != nil {
		t.Fatal(err)
	}

	// Kill inside the second level: per level, Err() is polled 2×
	// (pretrain) + per-epoch + per-step. Level a: 2 + 2*(1+2) = 8 polls;
	// 12 polls lands mid-level b.
	cfgB := resumeConfig()
	cfgB.CheckpointPath = path
	cfgB.AutosaveEvery = 1
	trB := NewTrainer(cfgB, runs[1].m, runs[1].pipe)
	killCtx := &stepLimitCtx{Context: context.Background(), remaining: 12}
	if err := trB.CurriculumCtx(killCtx, mkLevels(runs[1].ds)); err == nil {
		t.Fatal("killed curriculum must report interruption")
	}
	if trB.Pos.Level != 1 {
		t.Fatalf("kill should land in level 2 (Pos.Level=1), got %d", trB.Pos.Level)
	}

	cfgC := resumeConfig()
	trC := NewTrainer(cfgC, runs[2].m, runs[2].pipe)
	if err := trC.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if err := trC.CurriculumCtx(context.Background(), mkLevels(runs[2].ds)); err != nil {
		t.Fatal(err)
	}

	historyEqual(t, trA.History, trC.History)
	paramsEqual(t, runs[0].m.PS, runs[2].m.PS)
}

func TestLoadCheckpointRefusesWeightsFile(t *testing.T) {
	_, m, pipe := quickSetup(t, 2)
	cfg := resumeConfig()
	path := filepath.Join(t.TempDir(), "weights.json")
	if err := NewTrainer(cfg, m, pipe).SaveWeights(path); err != nil {
		t.Fatal(err)
	}
	_, m2, pipe2 := quickSetup(t, 2)
	err := NewTrainer(cfg, m2, pipe2).LoadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), `"nn-params"`) {
		t.Fatalf("want a kind-mismatch error naming \"nn-params\", got %v", err)
	}
}

func TestDivergenceGuardRollsBackAndHalvesLR(t *testing.T) {
	_, m, pipe := quickSetup(t, 2)
	cfg := resumeConfig()
	tr := NewTrainer(cfg, m, pipe)

	// Establish a good state, then poison the gradients with a NaN.
	tr.snapshotGood()
	before := m.PS.StateMap()
	lr := tr.Opt.LR

	m.PS.ZeroGrads()
	m.PS.All()[0].Grad.Data[0] = math.NaN()
	if tr.applyUpdate(0.5) {
		t.Fatal("guard must reject a NaN gradient")
	}
	if tr.Divergences != 1 {
		t.Errorf("Divergences = %d, want 1", tr.Divergences)
	}
	if tr.Opt.LR != lr/2 {
		t.Errorf("LR = %v, want halved %v", tr.Opt.LR, lr/2)
	}
	after := m.PS.StateMap()
	for name, st := range before {
		for i := range st.Value {
			if after[name].Value[i] != st.Value[i] {
				t.Fatalf("parameter %s[%d] corrupted by rejected update", name, i)
			}
		}
	}

	// A NaN loss trips the guard the same way.
	m.PS.ZeroGrads()
	if tr.applyUpdate(math.Inf(1)) {
		t.Fatal("guard must reject a non-finite loss")
	}
	if tr.Opt.LR != lr/4 {
		t.Errorf("LR = %v, want %v after second rollback", tr.Opt.LR, lr/4)
	}

	// A healthy update still goes through.
	m.PS.ZeroGrads()
	for _, p := range m.PS.All() {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = 0.01
		}
	}
	if !tr.applyUpdate(0.1) {
		t.Fatal("finite update must be applied")
	}
}

// TestSnapshotGoodDoesNotAllocate pins the divergence guard's snapshot,
// taken after every optimizer update, to copying into the buffers its
// first call allocated.
func TestSnapshotGoodDoesNotAllocate(t *testing.T) {
	_, m, pipe := quickSetup(t, 1)
	tr := NewTrainer(resumeConfig(), m, pipe)
	if allocs := testing.AllocsPerRun(10, tr.snapshotGood); allocs != 0 {
		t.Fatalf("snapshotGood allocated %v times per call after the first, want 0", allocs)
	}
}

func TestBufferRejectsNonFiniteRewards(t *testing.T) {
	_, m, pipe := quickSetup(t, 2)
	tr := NewTrainer(resumeConfig(), m, pipe)
	tr.updateBuffer(0, []scored{
		{a: core.Decision{true}, reward: math.NaN()},
		{a: core.Decision{false}, reward: 0.5},
		{a: core.Decision{true}, reward: math.Inf(1)},
	})
	buf := tr.buffer[0]
	if len(buf) != 1 || buf[0].reward != 0.5 {
		t.Fatalf("buffer should hold only the finite sample, got %+v", buf)
	}
}

// panicPlacer blows up on every placement: the worst-case worker fault.
type panicPlacer struct{}

func (panicPlacer) Place(*stream.Graph, sim.Cluster) *stream.Placement {
	panic("placer exploded mid-sample")
}

func (panicPlacer) Name() string { return "panic" }

var _ placer.Placer = panicPlacer{}

func TestWorkerPanicSurfacesAsErrorNotCrash(t *testing.T) {
	ds, m, _ := quickSetup(t, 2)
	pipe := &core.Pipeline{Model: m, Placer: panicPlacer{}}
	cfg := resumeConfig()
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

func TestHaltWithoutCheckpointPathStillErrors(t *testing.T) {
	ds, m, pipe := quickSetup(t, 2)
	cfg := resumeConfig()
	tr := NewTrainer(cfg, m, pipe)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := tr.TrainOnCtx(ctx, ds.Train, ds.Cluster)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("want interruption error, got %v", err)
	}
}
