// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run all                    # every table and figure
//	experiments -run table1,fig5,fig9      # a subset
//	experiments -run fig7 -scale 1 -budget default -outdir results/
//
// Experiment ids: fig1 fig3 fig5 fig6 fig7 fig8 fig9 table1 table2 table3
// simvalidate transferapps robustness robustness-sim drift. The last two
// are deterministic (fluid-simulator timelines, bit-identical across runs
// and worker counts); "robustness" replays robustness-sim's crash
// timelines on the wall-clock runtime instead, and "drift" compares static
// placement vs the reactive re-allocation loop vs a full re-coarsen under
// elastic drift scenarios.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/prof"
)

func main() {
	var (
		run    = flag.String("run", "all", "comma-separated experiment ids, or 'all'")
		scale  = flag.Float64("scale", 1.0, "dataset size multiplier")
		budget = flag.String("budget", "default", "training budget: default | quick")
		outdir = flag.String("outdir", "", "directory for per-experiment artifacts (CDF tables, DOT files)")
		seed   = flag.Int64("seed", 1, "random seed")
		quiet  = flag.Bool("quiet", false, "suppress training progress")
		plot   = flag.Bool("plot", false, "render ASCII CDF plots alongside the AUC tables")
		gbatch = flag.Int("graph-batch", 1, "graphs per optimizer step during training; >1 uses concurrent model replicas")
		twork  = flag.Int("train-workers", 0, "replica workers per graph batch (0 = all cores); never changes results")
		cpup   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memp   = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		verb   = flag.Bool("v", false, "verbose logging (debug level)")
		listen = flag.String("listen", "", "serve /metrics and /debug/vars on this address, e.g. :9090 or :0")
		trace  = flag.String("trace-out", "", "write a Chrome trace-event JSON of training phases to this file")
		curveP = flag.String("curve-out", "", "append one JSONL training-curve record per optimizer step to this file")
	)
	flag.Parse()

	obs.Log.SetLevel(obs.LevelInfo)
	if *verb {
		obs.Log.SetLevel(obs.LevelDebug)
	}

	stopProf, err := prof.Start(*cpup, *memp)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *listen != "" {
		srv, err := obs.Serve(*listen, obs.Default)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics (and /debug/vars)\n", srv.Addr())
	}
	var tracer *obs.Tracer
	var curve *obs.CurveWriter
	if *trace != "" {
		tracer = obs.NewTracer()
	}
	if *curveP != "" {
		curve, err = obs.CreateCurve(*curveP)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	flushObs := func() {
		if tracer != nil {
			if err := tracer.WriteFile(*trace); err != nil {
				obs.Log.Warnf("experiments: writing %s: %v", *trace, err)
			}
		}
		if curve != nil {
			if err := curve.Close(); err != nil {
				obs.Log.Warnf("experiments: closing %s: %v", *curveP, err)
			}
		}
	}

	var b eval.Budget
	switch *budget {
	case "default":
		b = eval.DefaultBudget()
	case "quick":
		b = eval.QuickBudget()
	default:
		fmt.Fprintf(os.Stderr, "unknown budget %q (want default or quick)\n", *budget)
		os.Exit(2)
	}

	h := eval.NewHarness(*scale, b)
	h.Seed = *seed
	h.Quiet = *quiet
	h.OutDir = *outdir
	h.Plot = *plot
	h.GraphBatch = *gbatch
	h.TrainWorkers = *twork
	h.Curve = curve
	h.Tracer = tracer

	ids := strings.Split(*run, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	start := time.Now()
	if err := h.Run(ids...); err != nil {
		flushObs()
		stopProf()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	flushObs()
	stopProf()
	fmt.Printf("completed %v in %v\n", ids, time.Since(start).Round(time.Second))
}
