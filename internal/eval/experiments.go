package eval

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/placer"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/stream"
)

// Budget sets the training effort. The paper trains for GPU-hours; these
// knobs trade fidelity for CPU time. Harness.Scale additionally shrinks
// the datasets.
type Budget struct {
	// Coarsening model.
	Pretrain int // Metis-guided imitation epochs
	RL       int // REINFORCE epochs
	Finetune int // REINFORCE epochs when adapting to the next level
	// Learned direct-placement baselines.
	BaselinePretrain int
	BaselineRL       int
}

// DefaultBudget is sized for a full experiment run (minutes on a laptop).
func DefaultBudget() Budget {
	return Budget{Pretrain: 24, RL: 8, Finetune: 4, BaselinePretrain: 16, BaselineRL: 10}
}

// QuickBudget is sized for tests and benchmarks (seconds).
func QuickBudget() Budget {
	return Budget{Pretrain: 4, RL: 1, Finetune: 1, BaselinePretrain: 2, BaselineRL: 1}
}

// Harness runs the paper's experiments with cached datasets and trained
// models so that shared components (e.g. the medium-graph coarsening
// model) train once per process.
type Harness struct {
	Scale  float64 // dataset size multiplier (1 = preset sizes)
	Budget Budget
	Seed   int64
	Out    io.Writer // report stream (nil = os.Stdout)
	OutDir string    // when set, per-experiment artifacts are written here
	Quiet  bool      // suppress training progress
	Plot   bool      // render ASCII CDF plots alongside the AUC tables

	// GraphBatch/TrainWorkers configure data-parallel training epochs
	// (rl.Config semantics: 0/1 batch = serial; workers is a pure
	// wall-clock knob that never changes results for a given batch).
	GraphBatch   int
	TrainWorkers int

	// Curve and Tracer, when set, are threaded into every coarsening
	// training run the harness launches (rl.Config.Curve / .Tracer
	// semantics: observation only, trajectories unchanged).
	Curve  *obs.CurveWriter
	Tracer *obs.Tracer

	datasets map[string]*gen.Dataset
	coarsen  map[string]*core.Model
	base     map[string]placer.Placer
}

// NewHarness builds a harness with the given dataset scale.
func NewHarness(scale float64, budget Budget) *Harness {
	return &Harness{
		Scale:    scale,
		Budget:   budget,
		Seed:     1,
		datasets: make(map[string]*gen.Dataset),
		coarsen:  make(map[string]*core.Model),
		base:     make(map[string]placer.Placer),
	}
}

func (h *Harness) out() io.Writer {
	if h.Out == nil {
		return os.Stdout
	}
	return h.Out
}

func (h *Harness) printf(format string, args ...any) {
	fmt.Fprintf(h.out(), format, args...)
}

// report prints an AUC table and, when Plot is set, its ASCII CDF plot.
func (h *Harness) report(rep *Report) {
	h.printf("%s\n", rep)
	if h.Plot {
		h.printf("%s\n", rep.ASCIIPlot(64, 12))
	}
}

// artifact writes content to OutDir/name when OutDir is set.
func (h *Harness) artifact(name, content string) {
	if h.OutDir == "" {
		return
	}
	if err := os.MkdirAll(h.OutDir, 0o755); err != nil {
		h.printf("eval: cannot create %s: %v\n", h.OutDir, err)
		return
	}
	path := filepath.Join(h.OutDir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		h.printf("eval: cannot write %s: %v\n", path, err)
	}
}

// Dataset returns (generating and caching) the dataset for a preset.
func (h *Harness) Dataset(s gen.Setting) *gen.Dataset {
	if ds, ok := h.datasets[s.Name]; ok {
		return ds
	}
	scaled := s.Scale(h.Scale)
	ds := scaled.Generate()
	h.datasets[s.Name] = ds
	return ds
}

// rlConfig builds the coarsening training config from the budget.
func (h *Harness) rlConfig(pretrain, epochs int) rl.Config {
	cfg := rl.DefaultConfig()
	cfg.PretrainEpochs = pretrain
	cfg.Epochs = epochs
	cfg.Quiet = h.Quiet
	cfg.Seed = h.Seed + 100
	cfg.LR = 0.003
	cfg.GraphBatch = h.GraphBatch
	cfg.TrainWorkers = h.TrainWorkers
	cfg.Curve = h.Curve
	cfg.Tracer = h.Tracer
	return cfg
}

// CoarsenModel returns the trained coarsening model for a named level,
// training it (and its curriculum predecessors) on first use.
//
// Levels: "small", "medium5k", "medium", "large" (curriculum from medium),
// "large-scratch", "large-scratch-guided", "xlarge" (curriculum from
// large), "excess" (fine-tuned from medium on the excess dataset).
func (h *Harness) CoarsenModel(level string) *core.Model {
	if m, ok := h.coarsen[level]; ok {
		return m
	}
	var model *core.Model
	newModel := func() *core.Model {
		cfg := core.DefaultConfig()
		cfg.Seed = h.Seed
		return core.New(cfg)
	}
	train := func(m *core.Model, ds *gen.Dataset, pre, ep int) {
		pipe := &core.Pipeline{Model: m, Placer: placer.Metis{Seed: h.Seed}}
		mustTrain(rl.NewTrainer(h.rlConfig(pre, ep), m, pipe), ds.Train, ds.Cluster)
	}
	finetune := func(m *core.Model, ds *gen.Dataset, ep int) {
		// Snapshot before fine-tuning: the paper trains each curriculum
		// level "until it achieves its best performance", so if the short
		// REINFORCE adaptation regresses (its gradients are noisy at CPU
		// budgets), the pre-finetune state is kept.
		snap := core.New(m.Cfg)
		if err := copyParams(snap, m); err != nil {
			panic("eval: snapshot model: " + err.Error())
		}
		pipe := &core.Pipeline{Model: m, Placer: placer.Metis{Seed: h.Seed}}
		cfg := h.rlConfig(0, ep) // no imitation pretraining when fine-tuning
		cfg.LR = 0.001           // gentler updates: the model is already competent
		mustTrain(rl.NewTrainer(cfg, m, pipe), ds.Train, ds.Cluster)

		// Validate on a slice of the training split and keep the better.
		val := ds.Train
		if len(val) > 8 {
			val = val[:8]
		}
		snapPipe := &core.Pipeline{Model: snap, Placer: placer.Metis{Seed: h.Seed}}
		after := Mean(rl.Evaluate(pipe, val, ds.Cluster))
		before := Mean(rl.Evaluate(snapPipe, val, ds.Cluster))
		if before > after {
			if err := copyParams(m, snap); err != nil {
				panic("eval: restore model: " + err.Error())
			}
		}
	}
	clone := func(src *core.Model) *core.Model {
		dst := newModel()
		if err := copyParams(dst, src); err != nil {
			panic("eval: clone model: " + err.Error())
		}
		return dst
	}

	switch level {
	case "small":
		model = newModel()
		train(model, h.Dataset(gen.Small()), h.Budget.Pretrain, h.Budget.RL)
	case "medium5k":
		model = newModel()
		train(model, h.Dataset(gen.Medium5K()), h.Budget.Pretrain, h.Budget.RL)
	case "medium":
		model = newModel()
		train(model, h.Dataset(gen.Medium()), h.Budget.Pretrain, h.Budget.RL)
	case "large":
		model = clone(h.CoarsenModel("medium"))
		finetune(model, h.Dataset(gen.Large()), h.Budget.Finetune)
	case "large-scratch":
		model = newModel()
		cfg := h.rlConfig(0, h.Budget.Pretrain/2+h.Budget.RL)
		cfg.MetisGuided = false
		pipe := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: h.Seed}}
		ds := h.Dataset(gen.Large())
		mustTrain(rl.NewTrainer(cfg, model, pipe), ds.Train, ds.Cluster)
	case "large-scratch-guided":
		model = newModel()
		train(model, h.Dataset(gen.Large()), h.Budget.Pretrain, h.Budget.RL)
	case "xlarge":
		model = clone(h.CoarsenModel("large"))
		finetune(model, h.Dataset(gen.XLarge()), h.Budget.Finetune)
	case "excess":
		model = clone(h.CoarsenModel("medium"))
		finetune(model, h.Dataset(gen.Excess()), h.Budget.Finetune)
	default:
		panic("eval: unknown coarsen level " + level)
	}
	h.coarsen[level] = model
	return model
}

// copyParams copies values between identically configured models.
func copyParams(dst, src *core.Model) error {
	return nn.CopyValuesFrom(dst.PS, src.PS)
}

// mustTrain runs tr over graphs and panics on its error: a run that
// halted (a scorer panicked, say) leaves a half-trained model, and rows
// scored from it would pass for results.
func mustTrain(tr *rl.Trainer, graphs []*stream.Graph, c sim.Cluster) {
	if err := tr.TrainOn(graphs, c); err != nil {
		panic("eval: train: " + err.Error())
	}
}

// trainPlacer trains a learned placer through rl.Trainer: pretraining
// epochs of Metis imitation, then Budget.BaselineRL epochs of REINFORCE,
// with 4 samples per step at LR 0.002.
func (h *Harness) trainPlacer(m rl.Policy[[]int], graphs []*stream.Graph, c sim.Cluster, pretrain int, seed int64) {
	cfg := rl.DefaultConfig()
	cfg.PretrainEpochs, cfg.Epochs = pretrain, h.Budget.BaselineRL
	cfg.Seed, cfg.Quiet = seed, h.Quiet
	cfg.GraphBatch, cfg.TrainWorkers = h.GraphBatch, h.TrainWorkers
	mustTrain(rl.NewPolicyTrainer(cfg, m), graphs, c)
}

// Baseline returns the trained learned baseline ("graph-enc-dec", "gdp",
// "hierarchical") for a setting, training on first use.
func (h *Harness) Baseline(kind string, s gen.Setting) placer.Placer {
	key := kind + "/" + s.Name
	if m, ok := h.base[key]; ok {
		return m
	}
	var m interface {
		placer.Placer
		rl.Policy[[]int]
	}
	switch kind {
	case "graph-enc-dec":
		m = baselines.NewGraphEncDec(16, 32, h.Seed+3)
	case "gdp":
		m = baselines.NewGDP(16, h.Seed+4)
	case "hierarchical":
		m = baselines.NewHierarchical(25, 32, h.Seed+5)
	default:
		panic("eval: unknown baseline " + kind)
	}
	ds := h.Dataset(s)
	h.trainPlacer(m, ds.Train, ds.Cluster, h.Budget.BaselinePretrain, h.Seed+9)
	h.base[key] = m
	return m
}

// CoarsePlacerEncDec returns a Graph-enc-dec model trained to place the
// *coarse* graphs the coarsening model produces for a setting — the
// partitioning-stage role it plays in Coarsen+Graph-enc-dec. (A direct
// placer trained on full-size graphs transfers poorly to 20-50-node coarse
// graphs with aggregated features.)
func (h *Harness) CoarsePlacerEncDec(level string, s gen.Setting) placer.Placer {
	key := "graph-enc-dec-coarse/" + s.Name
	if m, ok := h.base[key]; ok {
		return m
	}
	ds := h.Dataset(s)
	model := h.CoarsenModel(level)
	// Train on well-coarsened graphs (~4× the device count): the paper's
	// point is that placement becomes simple exactly there, and the LSTM
	// decoder's compounding errors stay bounded on short sequences.
	coarse := parallel.Map(len(ds.Train), 0, func(i int) *stream.Graph {
		g := ds.Train[i]
		d := core.CoarsenToRanked(g, 4*ds.Cluster.Devices, model.Probs(g, ds.Cluster))
		cm := stream.CollapseEdges(g, d)
		return stream.CoarseGraph(g, cm)
	})
	m := baselines.NewGraphEncDec(16, 32, h.Seed+6)
	h.trainPlacer(m, coarse, ds.Cluster, 3*h.Budget.BaselinePretrain, h.Seed+11)
	h.base[key] = m
	return m
}

// throughputs helpers ------------------------------------------------------

// metisThroughputs evaluates plain Metis on the test split.
func (h *Harness) metisThroughputs(ds *gen.Dataset) []float64 {
	return parallel.Map(len(ds.Test), 0, func(i int) float64 {
		g := ds.Test[i]
		p := metis.Partition(g, metis.Options{Parts: ds.Cluster.Devices, Seed: h.Seed})
		p.Devices = ds.Cluster.Devices
		return sim.Reward(g, p, ds.Cluster) * g.SourceRate
	})
}

// metisOracleThroughputs evaluates the device-count-sweeping Metis oracle.
func (h *Harness) metisOracleThroughputs(ds *gen.Dataset) []float64 {
	return parallel.Map(len(ds.Test), 0, func(i int) float64 {
		g := ds.Test[i]
		p, _ := metis.Oracle(g, ds.Cluster, h.Seed)
		return sim.Reward(g, p, ds.Cluster) * g.SourceRate
	})
}

// coarsenThroughputs evaluates a coarsening model + placer pipeline.
func (h *Harness) coarsenThroughputs(m *core.Model, pl placer.Placer, ds *gen.Dataset) []float64 {
	pipe := &core.Pipeline{Model: m, Placer: pl}
	return parallel.Map(len(ds.Test), 0, func(i int) float64 {
		g := ds.Test[i]
		return pipe.Allocate(g, ds.Cluster).Reward * g.SourceRate
	})
}

// baselineThroughputs evaluates a learned direct-placement baseline.
func (h *Harness) baselineThroughputs(m placer.Placer, ds *gen.Dataset) []float64 {
	return parallel.Map(len(ds.Test), 0, func(i int) float64 {
		g := ds.Test[i]
		return sim.Reward(g, m.Place(g, ds.Cluster), ds.Cluster) * g.SourceRate
	})
}

// Experiments ---------------------------------------------------------------

// Fig1 reproduces the motivating CDF: Metis vs Graph-enc-dec on the
// medium dataset (learned direct placement loses on ≥100-node graphs).
func (h *Harness) Fig1() *Report {
	ds := h.Dataset(gen.Medium())
	rep := &Report{
		Title: "Fig.1 motivating gap: Metis vs Graph-enc-dec (100-200 nodes)",
		MaxX:  10_000,
		Rows: []Series{
			{Name: "Metis", Values: h.metisThroughputs(ds)},
			{Name: "Graph-enc-dec", Values: h.baselineThroughputs(h.Baseline("graph-enc-dec", gen.Medium()), ds)},
		},
	}
	h.report(rep)
	h.artifact("fig1_cdf.txt", CDFTable(rep.Rows))
	return rep
}

// Table1 reproduces the AUC table across all settings.
func (h *Harness) Table1() []*Report {
	var reports []*Report
	add := func(rep *Report) {
		reports = append(reports, rep)
		h.report(rep)
	}

	// Block 1: small graphs (10K/s, 5 devices, 4-26 nodes).
	{
		ds := h.Dataset(gen.Small())
		add(&Report{
			Title: "Table I (10K/s, 5 devices, 4-26 nodes)",
			MaxX:  10_000,
			Rows: []Series{
				{Name: "Metis", Values: h.metisThroughputs(ds)},
				{Name: "Graph-enc-dec", Values: h.baselineThroughputs(h.Baseline("graph-enc-dec", gen.Small()), ds)},
				{Name: "Coarsen+Metis", Values: h.coarsenThroughputs(h.CoarsenModel("small"), placer.Metis{Seed: h.Seed}, ds)},
			},
		})
	}
	// Block 2: 5K/s, 5 devices, 100-200 nodes.
	{
		ds := h.Dataset(gen.Medium5K())
		encdec := h.CoarsePlacerEncDec("medium5k", gen.Medium5K())
		add(&Report{
			Title: "Table I (5K/s, 5 devices, 100-200 nodes)",
			MaxX:  5_000,
			Rows: []Series{
				{Name: "Metis", Values: h.metisThroughputs(ds)},
				{Name: "Coarsen+Metis", Values: h.coarsenThroughputs(h.CoarsenModel("medium5k"), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen+Graph-enc-dec", Values: h.coarsenThroughputs(h.CoarsenModel("medium5k"), encdec, ds)},
			},
		})
	}
	// Block 3: 10K/s, 10 devices, 100-200 nodes.
	{
		ds := h.Dataset(gen.Medium())
		encdec := h.CoarsePlacerEncDec("medium", gen.Medium())
		add(&Report{
			Title: "Table I (10K/s, 10 devices, 100-200 nodes)",
			MaxX:  10_000,
			Rows: []Series{
				{Name: "Metis", Values: h.metisThroughputs(ds)},
				{Name: "Coarsen+Metis", Values: h.coarsenThroughputs(h.CoarsenModel("medium"), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen+Graph-enc-dec", Values: h.coarsenThroughputs(h.CoarsenModel("medium"), encdec, ds)},
			},
		})
	}
	// Block 4: 10K/s, 10 devices, 400-500 nodes.
	{
		ds := h.Dataset(gen.Large())
		encdec := h.CoarsePlacerEncDec("medium", gen.Medium()) // trained on medium coarse graphs, transferred
		add(&Report{
			Title: "Table I (10K/s, 10 devices, 400-500 nodes)",
			MaxX:  10_000,
			Rows: []Series{
				{Name: "Metis", Values: h.metisThroughputs(ds)},
				{Name: "Coarsen+Metis (+curriculum)", Values: h.coarsenThroughputs(h.CoarsenModel("large"), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen+Graph-enc-dec", Values: h.coarsenThroughputs(h.CoarsenModel("large"), encdec, ds)},
			},
		})
	}
	// Block 5: 10K/s, 20 devices, 1K-2K nodes.
	{
		ds := h.Dataset(gen.XLarge())
		add(&Report{
			Title: "Table I (10K/s, 20 devices, 1K-2K nodes)",
			MaxX:  10_000,
			Rows: []Series{
				{Name: "Metis", Values: h.metisThroughputs(ds)},
				{Name: "Coarsen+Metis (direct prediction)", Values: h.coarsenThroughputs(h.CoarsenModel("large"), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen+Metis (+curriculum)", Values: h.coarsenThroughputs(h.CoarsenModel("xlarge"), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen+Metis-oracle (+curriculum)", Values: h.coarsenThroughputs(h.CoarsenModel("xlarge"), placer.MetisOracle{Seed: h.Seed}, ds)},
			},
		})
	}
	var all string
	for _, r := range reports {
		all += r.String() + "\n"
	}
	h.artifact("table1.txt", all)
	return reports
}

// Fig5 reproduces the medium-graph CDF comparison with all baselines.
func (h *Harness) Fig5() []*Report {
	var reports []*Report
	for _, s := range []gen.Setting{gen.Medium5K(), gen.Medium()} {
		ds := h.Dataset(s)
		level := "medium5k"
		if s.Name == gen.Medium().Name {
			level = "medium"
		}
		encdec := h.Baseline("graph-enc-dec", s)
		coarseEncdec := h.CoarsePlacerEncDec(level, s)
		rep := &Report{
			Title: "Fig.5 " + s.Name,
			MaxX:  ds.Train[0].SourceRate,
			Rows: []Series{
				{Name: "Metis", Values: h.metisThroughputs(ds)},
				{Name: "Graph-enc-dec", Values: h.baselineThroughputs(encdec, ds)},
				{Name: "GDP", Values: h.baselineThroughputs(h.Baseline("gdp", s), ds)},
				{Name: "Hierarchical", Values: h.baselineThroughputs(h.Baseline("hierarchical", s), ds)},
				{Name: "Coarsen+Metis", Values: h.coarsenThroughputs(h.CoarsenModel(level), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen+Graph-enc-dec", Values: h.coarsenThroughputs(h.CoarsenModel(level), coarseEncdec, ds)},
			},
		}
		h.report(rep)
		h.artifact("fig5_"+s.Name+"_cdf.txt", CDFTable(rep.Rows))
		reports = append(reports, rep)
	}
	return reports
}

// Fig6 reproduces the generalizability study: models trained on smaller
// graphs evaluated on larger ones, plus the curriculum ablation.
func (h *Harness) Fig6() []*Report {
	var reports []*Report

	// (a) train medium → evaluate large, all methods.
	{
		ds := h.Dataset(gen.Large())
		rep := &Report{
			Title: "Fig.6(a) train 100-200 -> eval 400-500",
			MaxX:  10_000,
			Rows: []Series{
				{Name: "Metis", Values: h.metisThroughputs(ds)},
				{Name: "Graph-enc-dec (medium)", Values: h.baselineThroughputs(h.Baseline("graph-enc-dec", gen.Medium()), ds)},
				{Name: "GDP (medium)", Values: h.baselineThroughputs(h.Baseline("gdp", gen.Medium()), ds)},
				{Name: "Hierarchical (medium)", Values: h.baselineThroughputs(h.Baseline("hierarchical", gen.Medium()), ds)},
				{Name: "Coarsen+Metis (direct)", Values: h.coarsenThroughputs(h.CoarsenModel("medium"), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen+Metis (+finetune)", Values: h.coarsenThroughputs(h.CoarsenModel("large"), placer.Metis{Seed: h.Seed}, ds)},
			},
		}
		h.report(rep)
		h.artifact("fig6a_cdf.txt", CDFTable(rep.Rows))
		reports = append(reports, rep)
	}
	// (b) curriculum ablation on large graphs.
	{
		ds := h.Dataset(gen.Large())
		rep := &Report{
			Title: "Fig.6(b) curriculum ablation on 400-500 nodes",
			MaxX:  10_000,
			Rows: []Series{
				{Name: "Metis", Values: h.metisThroughputs(ds)},
				{Name: "Coarsen-Fromscratch", Values: h.coarsenThroughputs(h.CoarsenModel("large-scratch"), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen-Fromscratch+Metis-sample", Values: h.coarsenThroughputs(h.CoarsenModel("large-scratch-guided"), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen (+size curriculum)", Values: h.coarsenThroughputs(h.CoarsenModel("large"), placer.Metis{Seed: h.Seed}, ds)},
			},
		}
		h.report(rep)
		h.artifact("fig6b_cdf.txt", CDFTable(rep.Rows))
		reports = append(reports, rep)
	}
	// (c) train large → evaluate xlarge.
	{
		ds := h.Dataset(gen.XLarge())
		rep := &Report{
			Title: "Fig.6(c) train 400-500 -> eval 1K-2K on 20 devices",
			MaxX:  10_000,
			Rows: []Series{
				{Name: "Metis", Values: h.metisThroughputs(ds)},
				{Name: "Coarsen+Metis (direct)", Values: h.coarsenThroughputs(h.CoarsenModel("large"), placer.Metis{Seed: h.Seed}, ds)},
				{Name: "Coarsen+Metis (+finetune)", Values: h.coarsenThroughputs(h.CoarsenModel("xlarge"), placer.Metis{Seed: h.Seed}, ds)},
			},
		}
		h.report(rep)
		h.artifact("fig6c_cdf.txt", CDFTable(rep.Rows))
		reports = append(reports, rep)
	}
	return reports
}

// Fig7Result bundles the excess-device experiment outputs.
type Fig7Result struct {
	CDF *Report
	// UsedDevices histograms per method (device count → #graphs).
	UsedDevices map[string]map[int]int
	// Utilization statistics per method.
	Utilization map[string]sim.UtilizationStats
}

// Fig7 reproduces the excess-device study: CDFs, used-device histograms,
// and utilization statistics.
func (h *Harness) Fig7() *Fig7Result {
	ds := h.Dataset(gen.Excess())
	res := &Fig7Result{
		UsedDevices: make(map[string]map[int]int),
		Utilization: make(map[string]sim.UtilizationStats),
	}

	collect := func(name string, place func(g *stream.Graph) *stream.Placement) []float64 {
		used := make([]int, len(ds.Test))
		ths := make([]float64, len(ds.Test))
		cpu := make([]float64, 0, len(ds.Test))
		net := make([]float64, 0, len(ds.Test))
		for i, g := range ds.Test {
			p := place(g)
			r, err := sim.Simulate(g, p, ds.Cluster)
			if err != nil {
				panic(err)
			}
			ths[i] = r.Throughput
			used[i] = p.UsedDevices()
			st := sim.Utilization(r)
			cpu = append(cpu, st.CPUMean)
			net = append(net, st.NetMean)
		}
		res.UsedDevices[name] = IntHistogram(used, 0, ds.Cluster.Devices)
		res.Utilization[name] = sim.UtilizationStats{
			CPUMean: Mean(cpu), CPUStd: Std(cpu),
			NetMean: Mean(net), NetStd: Std(net),
		}
		return ths
	}

	directPipe := &core.Pipeline{Model: h.CoarsenModel("medium"), Placer: placer.Metis{Seed: h.Seed}}
	tunedPipe := &core.Pipeline{Model: h.CoarsenModel("excess"), Placer: placer.Metis{Seed: h.Seed}}

	res.CDF = &Report{
		Title: "Fig.7(a) excess-device setting (400-500 nodes, reduced load & bandwidth)",
		MaxX:  10_000,
		Rows: []Series{
			{Name: "Metis", Values: collect("Metis", func(g *stream.Graph) *stream.Placement {
				p := metis.Partition(g, metis.Options{Parts: ds.Cluster.Devices, Seed: h.Seed})
				p.Devices = ds.Cluster.Devices
				return p
			})},
			{Name: "Metis-Oracle", Values: collect("Metis-Oracle", func(g *stream.Graph) *stream.Placement {
				p, _ := metis.Oracle(g, ds.Cluster, h.Seed)
				return p
			})},
			{Name: "Coarsen+Metis (direct)", Values: collect("Coarsen+Metis (direct)", func(g *stream.Graph) *stream.Placement {
				return directPipe.Allocate(g, ds.Cluster).Placement
			})},
			{Name: "Coarsen+Metis (+finetune)", Values: collect("Coarsen+Metis (+finetune)", func(g *stream.Graph) *stream.Placement {
				return tunedPipe.Allocate(g, ds.Cluster).Placement
			})},
		},
	}
	h.report(res.CDF)
	h.printf("Fig.7(b) used-device histograms:\n")
	for _, name := range []string{"Metis", "Metis-Oracle", "Coarsen+Metis (direct)", "Coarsen+Metis (+finetune)"} {
		h.printf("  %-26s %v\n", name, res.UsedDevices[name])
		st := res.Utilization[name]
		h.printf("  %-26s cpu %.2f (%.2f), net %.2f (%.2f)\n", "", st.CPUMean, st.CPUStd, st.NetMean, st.NetStd)
	}
	h.printf("\n")
	h.artifact("fig7_cdf.txt", CDFTable(res.CDF.Rows))
	return res
}

// Fig8Row is one compression-ratio bin of the Fig. 8 boxplots.
type Fig8Row struct {
	RatioLo, RatioHi float64
	Metis            BoxStats
	Coarsen          BoxStats
}

// Fig8 reproduces the throughput-vs-compression-ratio boxplots on the
// large setting. Bin edges are compression-ratio quartiles so each bin
// holds the same number of graphs.
func (h *Harness) Fig8() []Fig8Row {
	ds := h.Dataset(gen.Large())
	pipe := &core.Pipeline{Model: h.CoarsenModel("large"), Placer: placer.Metis{Seed: h.Seed}}
	type ratioObs struct {
		ratio          float64
		metis, coarsen float64
	}
	observations := parallel.Map(len(ds.Test), 0, func(i int) ratioObs {
		g := ds.Test[i]
		mp := metis.Partition(g, metis.Options{Parts: ds.Cluster.Devices, Seed: h.Seed})
		mp.Devices = ds.Cluster.Devices
		a := pipe.Allocate(g, ds.Cluster)
		return ratioObs{
			ratio:   a.Coarse.CompressionRatio(),
			metis:   sim.Reward(g, mp, ds.Cluster) * g.SourceRate,
			coarsen: a.Reward * g.SourceRate,
		}
	})
	ratios := make([]float64, len(observations))
	for i, o := range observations {
		ratios[i] = o.ratio
	}
	edges := []float64{
		Quantile(ratios, 0), Quantile(ratios, 0.25), Quantile(ratios, 0.5),
		Quantile(ratios, 0.75), Quantile(ratios, 1) + 1e-9,
	}
	var rows []Fig8Row
	h.printf("== Fig.8 throughput vs compression ratio (400-500 nodes) ==\n")
	for b := 0; b+1 < len(edges); b++ {
		var ms, cs []float64
		for _, o := range observations {
			if o.ratio >= edges[b] && o.ratio < edges[b+1] {
				ms = append(ms, o.metis)
				cs = append(cs, o.coarsen)
			}
		}
		row := Fig8Row{RatioLo: edges[b], RatioHi: edges[b+1], Metis: Box(ms), Coarsen: Box(cs)}
		rows = append(rows, row)
		h.printf("  ratio [%.1fx, %.1fx): metis med %.0f, coarsen med %.0f (n=%d)\n",
			row.RatioLo, row.RatioHi, row.Metis.Median, row.Coarsen.Median, row.Metis.N)
	}
	h.printf("\n")
	return rows
}

// Fig9Result holds the saturation distributions of coarsened graphs.
type Fig9Result struct {
	MetisSat   []float64
	CoarsenSat []float64
}

// Fig9 compares the data-saturation-rate distribution of edges in graphs
// coarsened by Metis's heavy-edge matching vs the learned model, at
// matched coarse sizes.
func (h *Harness) Fig9() *Fig9Result {
	ds := h.Dataset(gen.Large())
	pipe := &core.Pipeline{Model: h.CoarsenModel("large"), Placer: placer.Metis{Seed: h.Seed}}
	res := &Fig9Result{}
	for _, g := range ds.Test {
		a := pipe.Allocate(g, ds.Cluster)
		res.CoarsenSat = append(res.CoarsenSat, sim.EdgeSaturation(a.CoarseGraph, ds.Cluster)...)
		cm := metis.CoarsenHEM(g, a.Coarse.NumSuper, h.Seed)
		mg := stream.CoarseGraph(g, cm)
		res.MetisSat = append(res.MetisSat, sim.EdgeSaturation(mg, ds.Cluster)...)
	}
	h.printf("== Fig.9 saturation of coarsened-graph edges (lower = better) ==\n")
	h.printf("  metis-coarsening:  mean %.3f  p50 %.3f  p90 %.3f (n=%d)\n",
		Mean(res.MetisSat), Quantile(res.MetisSat, 0.5), Quantile(res.MetisSat, 0.9), len(res.MetisSat))
	h.printf("  model-coarsening:  mean %.3f  p50 %.3f  p90 %.3f (n=%d)\n\n",
		Mean(res.CoarsenSat), Quantile(res.CoarsenSat, 0.5), Quantile(res.CoarsenSat, 0.9), len(res.CoarsenSat))
	return res
}

// Table2 reproduces the ablation study on the 5K/s, 5-device, 100-200-node
// setting.
func (h *Harness) Table2() *Report {
	s := gen.Medium5K()
	ds := h.Dataset(s)
	encdec := h.Baseline("graph-enc-dec", s)
	coarseEncdec := h.CoarsePlacerEncDec("medium5k", s)

	trainAblation := func(cfg core.Config) *core.Model {
		cfg.Seed = h.Seed
		m := core.New(cfg)
		pipe := &core.Pipeline{Model: m, Placer: placer.Metis{Seed: h.Seed}}
		mustTrain(rl.NewTrainer(h.rlConfig(h.Budget.Pretrain, h.Budget.RL), m, pipe), ds.Train, ds.Cluster)
		return m
	}
	noEnc := core.DefaultConfig()
	noEnc.UseEdgeEncoding = false
	noCol := core.DefaultConfig()
	noCol.UseEdgeCollapse = false

	best := h.CoarsenModel("medium5k")
	coarsenOnly := parallel.Map(len(ds.Test), 0, func(i int) float64 {
		g := ds.Test[i]
		a := best.CoarsenOnly(g, ds.Cluster)
		return sim.Reward(g, a.Placement, ds.Cluster) * g.SourceRate
	})

	rep := &Report{
		Title: "Table II ablations (5K/s, 5 devices, 100-200 nodes)",
		MaxX:  5_000,
		Rows: []Series{
			{Name: "Metis", Values: h.metisThroughputs(ds)},
			{Name: "Our best model (Coarsen+Metis)", Values: h.coarsenThroughputs(best, placer.Metis{Seed: h.Seed}, ds)},
			{Name: "w/o edge-encoding", Values: h.coarsenThroughputs(trainAblation(noEnc), placer.Metis{Seed: h.Seed}, ds)},
			{Name: "w/o edge-collapsing features", Values: h.coarsenThroughputs(trainAblation(noCol), placer.Metis{Seed: h.Seed}, ds)},
			{Name: "Coarsen+Graph-enc-dec", Values: h.coarsenThroughputs(best, coarseEncdec, ds)},
			{Name: "Coarsen-only", Values: coarsenOnly},
			{Name: "Graph-enc-dec", Values: h.baselineThroughputs(encdec, ds)},
		},
	}
	h.report(rep)
	h.artifact("table2.txt", rep.String())
	return rep
}

// Table3Row is one method's average inference time per graph.
type Table3Row struct {
	Method            string
	MediumMS, LargeMS float64
}

// Table3 measures average inference time per graph on the medium and
// large settings (CPU here; the paper used an RTX 2060).
func (h *Harness) Table3() []Table3Row {
	mediumDS := h.Dataset(gen.Medium())
	largeDS := h.Dataset(gen.Large())
	coarsenM := h.CoarsenModel("medium")
	encdec := h.Baseline("graph-enc-dec", gen.Medium())
	gdp := h.Baseline("gdp", gen.Medium())
	hier := h.Baseline("hierarchical", gen.Medium())

	timeIt := func(ds *gen.Dataset, run func(g *stream.Graph)) float64 {
		n := len(ds.Test)
		if n > 10 {
			n = 10
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			run(ds.Test[i])
		}
		return float64(time.Since(start).Milliseconds()) / float64(n)
	}

	pipe := &core.Pipeline{Model: coarsenM, Placer: placer.Metis{Seed: h.Seed}}
	rows := []Table3Row{
		{Method: "Coarsen+Metis",
			MediumMS: timeIt(mediumDS, func(g *stream.Graph) { pipe.Allocate(g, mediumDS.Cluster) }),
			LargeMS:  timeIt(largeDS, func(g *stream.Graph) { pipe.Allocate(g, largeDS.Cluster) })},
		{Method: "Metis",
			MediumMS: timeIt(mediumDS, func(g *stream.Graph) {
				metis.Partition(g, metis.Options{Parts: mediumDS.Cluster.Devices, Seed: h.Seed})
			}),
			LargeMS: timeIt(largeDS, func(g *stream.Graph) { metis.Partition(g, metis.Options{Parts: largeDS.Cluster.Devices, Seed: h.Seed}) })},
		{Method: "Hierarchical",
			MediumMS: timeIt(mediumDS, func(g *stream.Graph) { hier.Place(g, mediumDS.Cluster) }),
			LargeMS:  timeIt(largeDS, func(g *stream.Graph) { hier.Place(g, largeDS.Cluster) })},
		{Method: "GDP",
			MediumMS: timeIt(mediumDS, func(g *stream.Graph) { gdp.Place(g, mediumDS.Cluster) }),
			LargeMS:  timeIt(largeDS, func(g *stream.Graph) { gdp.Place(g, largeDS.Cluster) })},
		{Method: "Graph-enc-dec",
			MediumMS: timeIt(mediumDS, func(g *stream.Graph) { encdec.Place(g, mediumDS.Cluster) }),
			LargeMS:  timeIt(largeDS, func(g *stream.Graph) { encdec.Place(g, largeDS.Cluster) })},
	}
	h.printf("== Table III average inference time per graph (ms, CPU) ==\n")
	for _, r := range rows {
		h.printf("  %-16s medium %8.2f ms   large %8.2f ms\n", r.Method, r.MediumMS, r.LargeMS)
	}
	h.printf("\n")
	return rows
}

// Fig3 writes the qualitative example: one medium graph coarsened by
// Metis's heavy-edge matching vs the learned model, as DOT files, with
// resulting throughputs.
func (h *Harness) Fig3() (metisThroughput, coarsenThroughput float64) {
	ds := h.Dataset(gen.Medium5K())
	pipe := &core.Pipeline{Model: h.CoarsenModel("medium5k"), Placer: placer.Metis{Seed: h.Seed}}
	// Pick the test graph with the largest model-vs-Metis-coarsening gap,
	// as the paper's Fig. 3 illustrates a case where the model's global
	// view wins decisively.
	var g *stream.Graph
	var a core.Allocation
	var metisPl *stream.Placement
	bestGap := mathInf()
	for _, cand := range ds.Test {
		ca := pipe.Allocate(cand, ds.Cluster)
		cm := metis.CoarsenHEM(cand, ca.Coarse.NumSuper, h.Seed)
		mg := stream.CoarseGraph(cand, cm)
		mp := placer.Metis{Seed: h.Seed}.Place(mg, ds.Cluster)
		mpl := stream.ExpandPlacement(cm, mp)
		gap := sim.Reward(cand, mpl, ds.Cluster) - ca.Reward
		if gap < bestGap {
			bestGap, g, a, metisPl = gap, cand, ca, mpl
		}
	}

	metisThroughput = sim.Reward(g, metisPl, ds.Cluster) * g.SourceRate
	coarsenThroughput = a.Reward * g.SourceRate
	h.printf("== Fig.3 qualitative example ==\n")
	h.printf("  metis-coarsening throughput:  %.0f/s\n", metisThroughput)
	h.printf("  model-coarsening throughput:  %.0f/s\n\n", coarsenThroughput)
	h.artifact("fig3_metis.dot", g.DOT(metisPl))
	h.artifact("fig3_model.dot", g.DOT(a.Placement))
	return metisThroughput, coarsenThroughput
}

func mathInf() float64 { return 1e30 }

// Run dispatches experiments by id ("fig1", "table1", ..., or "all").
func (h *Harness) Run(ids ...string) error {
	return h.RunCtx(context.Background(), ids...)
}

// RunCtx is Run with cancellation: the context is checked between
// experiments, so an interrupted sweep stops after the experiment in
// flight instead of running the rest of the suite.
func (h *Harness) RunCtx(ctx context.Context, ids ...string) error {
	known := map[string]func(){
		"simvalidate":    func() { h.SimValidate() },
		"transferapps":   func() { h.TransferApps() },
		"robustness":     func() { h.Robustness() },
		"robustness-sim": func() { h.RobustnessSim() },
		"drift":          func() { h.Drift() },
		"fig1":           func() { h.Fig1() },
		"table1":         func() { h.Table1() },
		"fig5":           func() { h.Fig5() },
		"fig6":           func() { h.Fig6() },
		"fig7":           func() { h.Fig7() },
		"fig8":           func() { h.Fig8() },
		"fig9":           func() { h.Fig9() },
		"table2":         func() { h.Table2() },
		"table3":         func() { h.Table3() },
		"fig3":           func() { h.Fig3() },
	}
	order := []string{"fig1", "table1", "fig5", "fig6", "fig7", "fig8", "fig9", "table2", "table3", "fig3", "simvalidate", "transferapps", "robustness", "robustness-sim", "drift"}
	if len(ids) == 1 && ids[0] == "all" {
		ids = order
	}
	for _, id := range ids {
		if _, ok := known[id]; !ok {
			keys := make([]string, 0, len(known))
			for k := range known {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return fmt.Errorf("eval: unknown experiment %q (known: %v)", id, keys)
		}
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("eval: experiment sweep interrupted before %q: %w", id, err)
		}
		known[id]()
	}
	return nil
}
