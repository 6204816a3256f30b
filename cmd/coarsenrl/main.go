// Command coarsenrl trains, saves, loads, and evaluates the
// edge-collapsing coarsening model.
//
// Usage:
//
//	coarsenrl -mode train -setting medium-10k-10dev -save model.json \
//	          [-pretrain 16] [-epochs 6] [-scale 1]
//	coarsenrl -mode eval -setting large-10k-10dev -load model.json [-scale 1]
//	coarsenrl -mode finetune -setting large-10k-10dev -load model.json \
//	          -save model-large.json [-epochs 4]
//	coarsenrl -mode curriculum -save model.json [-scale 0.5]
//	coarsenrl -mode drift -setting small [-load model.json] \
//	          [-drift-ticks 16] [-drift-lambda 0.3]
//
// Fault tolerance: training modes trap SIGINT/SIGTERM and checkpoint full
// training state (weights, optimizer moments, memory buffer, RNG,
// curriculum position) before exiting, so an interrupted run resumes
// exactly where it stopped:
//
//	coarsenrl -mode curriculum -checkpoint run.ckpt -autosave-every 25
//	^C  ->  "training interrupted (state saved to run.ckpt)"
//	coarsenrl -mode curriculum -checkpoint run.ckpt -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/placer"
	"repro/internal/prof"
	"repro/internal/realloc"
	"repro/internal/rl"
	"repro/internal/sim"
)

// stopProf finalizes the pprof profiles; error exits call it explicitly
// because os.Exit skips defers.
var stopProf = func() {}

// flushObs writes the trace file and closes the curve writer; like
// stopProf it must run on every exit path.
var flushObs = func() {}

func main() {
	var (
		mode        = flag.String("mode", "train", "train | finetune | eval | curriculum | drift")
		settingName = flag.String("setting", "medium-10k-10dev", "dataset preset")
		scale       = flag.Float64("scale", 1.0, "dataset size multiplier")
		loadPath    = flag.String("load", "", "load model parameters from JSON")
		savePath    = flag.String("save", "", "save model parameters to JSON")
		pretrain    = flag.Int("pretrain", 16, "Metis-guided imitation epochs")
		epochs      = flag.Int("epochs", 6, "REINFORCE epochs")
		lr          = flag.Float64("lr", 0.003, "Adam learning rate")
		hidden      = flag.Int("hidden", 24, "GNN half-embedding width")
		seed        = flag.Int64("seed", 1, "random seed")
		quiet       = flag.Bool("quiet", false, "suppress progress logs")
		ckptPath    = flag.String("checkpoint", "", "full training-state checkpoint file (written on interrupt and every -autosave-every steps)")
		resume      = flag.Bool("resume", false, "restore training state from -checkpoint before training")
		autosave    = flag.Int("autosave-every", 50, "autosave the checkpoint every N training steps (0 disables)")
		deadline    = flag.Duration("deadline", 0, "stop training (checkpointing first) after this duration, e.g. 30m (0 = none)")
		graphBatch  = flag.Int("graph-batch", 1, "graphs per optimizer step; >1 trains batch entries on concurrent model replicas")
		trainWork   = flag.Int("train-workers", 0, "replica workers per graph batch (0 = all cores); pure wall-clock knob, never changes results")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		listen      = flag.String("listen", "", "serve /metrics (Prometheus) and /debug/vars (expvar) on this address, e.g. :9090 or :0")
		traceOut    = flag.String("trace-out", "", "write a Chrome trace-event JSON of training phases to this file")
		curveOut    = flag.String("curve-out", "", "append one JSONL training-curve record per optimizer step to this file")
		driftTicks  = flag.Int("drift-ticks", 16, "drift mode: timeline length in ticks")
		driftLambda = flag.Float64("drift-lambda", 0.3, "drift mode: move-cost weight λ in the migration utility (0 = migration is free)")
		multilevel  = flag.Bool("multilevel", false, "evaluate with the recursive multilevel driver (coarsen level by level, refine on the way back up) instead of one-shot coarsening")
	)
	flag.Parse()

	// CLI default is info-level progress on stderr; -quiet keeps the
	// trainer's own lines off as before.
	obs.Log.SetLevel(obs.LevelInfo)

	var err error
	stopProf, err = prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	if *listen != "" {
		srv, err := obs.Serve(*listen, obs.Default)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (and /debug/vars)\n", srv.Addr())
	}
	var tracer *obs.Tracer
	var curve *obs.CurveWriter
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	if *curveOut != "" {
		curve, err = obs.CreateCurve(*curveOut)
		if err != nil {
			fatal(err)
		}
	}
	flushObs = func() {
		if tracer != nil {
			if err := tracer.WriteFile(*traceOut); err != nil {
				obs.Log.Warnf("coarsenrl: writing %s: %v", *traceOut, err)
			} else {
				fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", tracer.Len(), *traceOut)
			}
		}
		if curve != nil {
			n := curve.Len()
			if err := curve.Close(); err != nil {
				obs.Log.Warnf("coarsenrl: closing %s: %v", *curveOut, err)
			} else if n > 0 {
				fmt.Fprintf(os.Stderr, "wrote %d curve records to %s\n", n, *curveOut)
			}
		}
		flushObs = func() {} // idempotent: fatal paths and the defer both call it
	}
	defer flushObs()

	setting, err := gen.ByName(*settingName)
	if err != nil {
		fatal(err)
	}
	ds := setting.Scale(*scale).Generate()

	mcfg := core.DefaultConfig()
	mcfg.Hidden = *hidden
	mcfg.Seed = *seed
	model := core.New(mcfg)
	if *loadPath != "" {
		if err := nn.LoadParams(model.PS, *loadPath); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "loaded %d parameters from %s\n", model.PS.Count(), *loadPath)
	}
	pipe := &core.Pipeline{Model: model, Placer: placer.Metis{Seed: *seed}}

	// Training runs under a signal-aware context: SIGINT/SIGTERM cancels
	// it, the trainer checkpoints at the next step boundary, and we exit
	// with a message saying where the state went. -deadline adds a timer
	// that triggers the same graceful path.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	newTrainer := func(cfg rl.Config) *rl.Trainer {
		cfg.CheckpointPath = *ckptPath
		cfg.AutosaveEvery = *autosave
		cfg.GraphBatch = *graphBatch
		cfg.TrainWorkers = *trainWork
		cfg.Tracer = tracer
		cfg.Curve = curve
		tr := rl.NewTrainer(cfg, model, pipe)
		if *resume {
			if *ckptPath == "" {
				fatal(fmt.Errorf("-resume requires -checkpoint"))
			}
			if err := tr.LoadCheckpoint(*ckptPath); err != nil {
				fatal(fmt.Errorf("resume: %w", err))
			}
			fmt.Fprintf(os.Stderr, "resumed from %s (level %d, epoch %d, step %d)\n",
				*ckptPath, tr.Pos.Level, tr.Pos.Epoch, tr.Pos.Step)
		}
		return tr
	}

	switch *mode {
	case "curriculum":
		// The paper's size-based curriculum (§IV-C): medium → large →
		// xlarge, fine-tuning at each level. -setting is ignored.
		cfg := rl.DefaultConfig()
		cfg.PretrainEpochs = *pretrain
		cfg.LR = *lr
		cfg.Seed = *seed
		cfg.Quiet = *quiet
		tr := newTrainer(cfg)
		var levels []rl.Level
		for i, s := range []gen.Setting{gen.Medium(), gen.Large(), gen.XLarge()} {
			lds := s.Scale(*scale).Generate()
			ep := *epochs
			if i > 0 {
				ep = maxOf(1, *epochs/2) // fine-tuning stages are shorter
			}
			levels = append(levels, rl.Level{
				Name: s.Name, Graphs: lds.Train, Cluster: lds.Cluster, Epochs: ep,
			})
		}
		if err := tr.CurriculumCtx(ctx, levels); err != nil {
			exitInterrupted(err)
		}
		if *savePath != "" {
			// -save is the deployable weights artifact; full training
			// state goes to -checkpoint.
			if err := tr.SaveWeights(*savePath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "saved curriculum model to %s\n", *savePath)
		}
		evaluate(model, pipe, ds, *multilevel)
	case "train", "finetune":
		cfg := rl.DefaultConfig()
		cfg.Epochs = *epochs
		cfg.PretrainEpochs = *pretrain
		cfg.LR = *lr
		cfg.Seed = *seed
		cfg.Quiet = *quiet
		if *mode == "finetune" {
			cfg.PretrainEpochs = 0
			cfg.LR = *lr / 3
		}
		tr := newTrainer(cfg)
		if err := tr.TrainOnCtx(ctx, ds.Train, ds.Cluster); err != nil {
			exitInterrupted(err)
		}
		if *savePath != "" {
			if err := nn.SaveParams(model.PS, *savePath); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "saved model to %s\n", *savePath)
		}
		evaluate(model, pipe, ds, *multilevel)
	case "eval":
		evaluate(model, pipe, ds, *multilevel)
	case "drift":
		// Replay a seeded drift timeline against the first test graph: the
		// model's merge scores rank region re-collapses in the online
		// re-allocation loop (an untrained model still works — its scores
		// just rank edges arbitrarily).
		if err := driftReplay(ctx, model, ds, *seed, *driftTicks, *driftLambda); err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// exitInterrupted reports a graceful shutdown (signal, deadline, or
// training failure). The trainer has already checkpointed if a
// -checkpoint path was configured; the error says where.
func exitInterrupted(err error) {
	flushObs()
	stopProf()
	fmt.Fprintf(os.Stderr, "coarsenrl: %v\n", err)
	fmt.Fprintln(os.Stderr, "rerun with -resume to continue from the saved state")
	os.Exit(1)
}

func evaluate(model *core.Model, pipe *core.Pipeline, ds *gen.Dataset, multilevel bool) {
	ourName := "Coarsen+Metis"
	var ours []float64
	if multilevel {
		ourName = "Multilevel+Metis"
		mcfg := core.DefaultMultilevelConfig()
		for _, g := range ds.Test {
			a := pipe.AllocateMultilevel(g, ds.Cluster, mcfg)
			ours = append(ours, sim.Reward(g, a.Placement, ds.Cluster))
		}
	} else {
		ours = rl.Evaluate(pipe, ds.Test, ds.Cluster)
	}
	var metisVals, ourVals []float64
	for i, g := range ds.Test {
		mp := metis.Partition(g, metis.Options{Parts: ds.Cluster.Devices, Seed: 1})
		mp.Devices = ds.Cluster.Devices
		metisVals = append(metisVals, sim.Reward(g, mp, ds.Cluster)*g.SourceRate)
		ourVals = append(ourVals, ours[i]*g.SourceRate)
	}
	rate := ds.Test[0].SourceRate
	rep := &eval.Report{
		Title: "coarsenrl evaluation on " + ds.Name,
		MaxX:  rate,
		Rows: []eval.Series{
			{Name: "Metis", Values: metisVals},
			{Name: ourName, Values: ourVals},
		},
	}
	fmt.Print(rep.String())
}

// driftReplay runs the online re-allocation loop over a generated drift
// scenario and prints the per-tick recovery trajectory.
func driftReplay(ctx context.Context, model *core.Model, ds *gen.Dataset, seed int64, ticks int, lambda float64) error {
	g := ds.Test[0]
	cluster := ds.Cluster
	p := metis.Partition(g, metis.Options{Parts: cluster.Devices, Seed: seed})
	p.Devices = cluster.Devices

	events := gen.DriftEvents(gen.DefaultDriftConfig(ticks), cluster.Devices, rand.New(rand.NewSource(seed+97)))
	timeline, err := sim.BuildTimeline(cluster.Devices, ticks, events)
	if err != nil {
		return err
	}
	cfg := realloc.DefaultConfig()
	if lambda >= 0 {
		cfg.MoveCostWeight = lambda
	}
	loop, err := realloc.New(g, cluster, model, p, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("drift replay: %d operators, %d devices, %d ticks, %d events, λ=%.2f\n",
		g.NumNodes(), cluster.Devices, ticks, len(events), cfg.MoveCostWeight)
	for _, ev := range events {
		fmt.Printf("  event t=%-3d %-12s dev=%d dur=%d factor=%.2f\n",
			ev.Tick, ev.Kind, ev.Device, ev.DurTicks, ev.Factor)
	}
	fmt.Printf("%-5s %-6s %-4s %-4s %-9s %-6s %-6s %-12s %s\n",
		"tick", "rate", "up", "bw", "relative", "replan", "moved", "move-cost", "note")
	for t, st := range timeline {
		act, err := loop.Step(ctx, st)
		if err != nil {
			return err
		}
		note := ""
		switch {
		case act.Degraded:
			note = "degraded: holding stale placement"
		case act.Replanned:
			note = fmt.Sprintf("replanned at escalation %d", act.Escalation)
		case act.Triggered:
			note = "triggered, no better placement"
		}
		fmt.Printf("%-5d %-6.2f %-4d %-4.2f %-9.3f %-6v %-6d %-12.1f %s\n",
			t, st.RateFactor, st.NumUp(cluster.Devices), st.BandwidthFactor,
			act.Relative, act.Replanned, act.Moved, act.MoveCost, note)
	}
	fmt.Printf("final placement uses %d devices; degraded=%v\n",
		loop.Placement().UsedDevices(), loop.Degraded())
	return nil
}

func maxOf(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func fatal(err error) {
	flushObs()
	stopProf()
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
