// drift.go evaluates online re-allocation under environment drift: a
// placement goes live, the environment then surges, loses and gains
// devices, and switches link classes, and three strategies answer the
// drift — never moving, the incremental re-coarsening loop, and a full
// re-coarsen from scratch on every detected shift. The comparison axes
// are the paper-motivated pair: throughput recovered vs migration cost
// paid. Everything here runs on the deterministic fluid simulator over
// tick timelines, so results are bit-identical across runs and worker
// counts (the wall-clock analogue lives in robustness.go).
package eval

import (
	"context"
	"fmt"

	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/parallel"
	"repro/internal/realloc"
	"repro/internal/sim"
	"repro/internal/stream"
)

// driftTicks is the timeline length of a drift scenario and of the
// robustness experiments' crash timelines; Robustness's 400 ms wall-clock
// runs give each tick 25 ms.
const driftTicks = 16

// DriftStrategy summarizes one re-allocation strategy across all drift
// scenarios.
type DriftStrategy struct {
	Name string
	// MeanRelative is the mean relative throughput over every tick of
	// every scenario (demand-relative: measured against the surged rate).
	MeanRelative float64
	// MoveCost is the cumulative migration cost paid (realloc.MoveCost
	// units: tuples in flight × state factor).
	MoveCost float64
	// Migrations counts migrated operators; Replans counts adopted
	// re-allocations; DegradedTicks counts ticks spent holding a stale
	// placement because no feasible migration existed.
	Migrations    int
	Replans       int
	DegradedTicks int
}

// DriftResult is the static / reactive / full-re-coarsen comparison.
type DriftResult struct {
	Static   DriftStrategy
	Reactive DriftStrategy
	Full     DriftStrategy
	// RecoveryFrac is the fraction of the throughput lost by the static
	// placement (relative to its own pre-drift baseline) that the
	// reactive loop wins back: Σ(reactive−static) / Σ(baseline−static)
	// over the ticks where static is below baseline.
	RecoveryFrac float64
	// Curves[s][g][t] is the relative-throughput trajectory of strategy
	// s ∈ {"static","reactive","full"} on scenario g at tick t — the raw
	// data behind the means, kept for bit-reproducibility checks.
	Curves map[string][][]float64
}

// driftOutcome is one scenario's per-strategy accounting.
type driftOutcome struct {
	rel      [3][]float64 // relative per tick, indexed static/reactive/full
	cost     [3]float64
	moved    [3]int
	replans  [3]int
	degraded [3]int
	lost     float64 // Σ max(0, baseline − static)
	gained   float64 // Σ (reactive − static) on lossy ticks
}

const (
	stratStatic = iota
	stratReactive
	stratFull
)

// Drift runs the drift experiment: Metis places each graph, seeded
// elastic scenarios (gen.DriftEventSet) drive the environment, and the
// three strategies replay the identical timeline. The reactive loop uses
// the trained small coarsening model's merge scores to rank region
// collapses; the full strategy uses the same scores but re-coarsens the
// whole graph with no move-cost penalty — an upper bound on recovery and
// on migration spend.
func (h *Harness) Drift() *DriftResult {
	s := gen.Small()
	s.TestN = maxi(3, int(float64(s.TestN)*h.Scale/2))
	s.Seed += 71
	ds := s.Generate()
	cluster := ds.Cluster

	graphs := ds.Test
	if len(graphs) > 4 {
		graphs = graphs[:4]
	}
	model := h.CoarsenModel("small")
	scenarios := gen.DriftEventSet(gen.DefaultDriftConfig(driftTicks), cluster.Devices, len(graphs), h.Seed+97)

	outcomes := parallel.Map(len(graphs), 0, func(i int) driftOutcome {
		return h.runDriftScenario(graphs[i], cluster, model, scenarios[i])
	})

	res := &DriftResult{Curves: map[string][][]float64{}}
	names := [3]string{"static", "reactive", "full"}
	strats := [3]*DriftStrategy{&res.Static, &res.Reactive, &res.Full}
	var lost, gained float64
	for si, st := range strats {
		st.Name = names[si]
		var sum float64
		var ticks int
		for _, o := range outcomes {
			for _, r := range o.rel[si] {
				sum += r
			}
			ticks += len(o.rel[si])
			st.MoveCost += o.cost[si]
			st.Migrations += o.moved[si]
			st.Replans += o.replans[si]
			st.DegradedTicks += o.degraded[si]
			res.Curves[names[si]] = append(res.Curves[names[si]], o.rel[si])
		}
		if ticks > 0 {
			st.MeanRelative = sum / float64(ticks)
		}
	}
	for _, o := range outcomes {
		lost += o.lost
		gained += o.gained
	}
	if lost > 0 {
		res.RecoveryFrac = gained / lost
	}

	h.printf("== Drift: online re-allocation vs static placement ==\n")
	h.printf("  (%d scenarios × %d ticks, small setting, Metis initial placements)\n", len(graphs), driftTicks)
	for _, st := range strats {
		h.printf("  %-9s mean relative %.3f  move cost %9.1f  migrations %3d  replans %2d  degraded ticks %d\n",
			st.Name, st.MeanRelative, st.MoveCost, st.Migrations, st.Replans, st.DegradedTicks)
	}
	h.printf("  reactive recovers %.0f%% of the throughput static loses, at %.1f%% of the full re-coarsen's migration cost\n\n",
		100*res.RecoveryFrac, 100*safeDiv(res.Reactive.MoveCost, res.Full.MoveCost))
	h.artifact("drift.txt", h.driftArtifact(res))
	return res
}

// runDriftScenario replays one scenario's timeline through all three
// strategies. Strategies share the initial placement and the timeline;
// nothing is random past the generated events, so the outcome is a pure
// function of (graph, cluster, model parameters, events).
func (h *Harness) runDriftScenario(g *stream.Graph, cluster sim.Cluster, scorer realloc.Scorer, events []sim.DriftEvent) driftOutcome {
	timeline, err := sim.BuildTimeline(cluster.Devices, driftTicks, events)
	if err != nil {
		panic("eval: drift timeline: " + err.Error())
	}
	initial := metis.Partition(g, metis.Options{Parts: cluster.Devices, Seed: h.Seed})
	initial.Devices = cluster.Devices

	base, err := sim.SimulateDrift(g, initial, cluster, sim.NominalDrift(cluster.Devices))
	if err != nil {
		panic("eval: drift baseline: " + err.Error())
	}

	reactiveCfg := realloc.DefaultConfig()
	fullCfg := realloc.DefaultConfig()
	fullCfg.MaxRegionDevices = cluster.Devices // whole cluster from the first attempt
	fullCfg.MoveCostWeight = 0                 // migration is treated as free
	fullCfg.Escalations = 1

	newLoop := func(cfg realloc.Config) *realloc.Loop {
		l, err := realloc.New(g, cluster, scorer, initial, cfg)
		if err != nil {
			panic("eval: drift loop: " + err.Error())
		}
		return l
	}
	loops := [3]*realloc.Loop{nil, newLoop(reactiveCfg), newLoop(fullCfg)}

	var o driftOutcome
	ctx := context.Background()
	for _, st := range timeline {
		staticRes, err := sim.SimulateDrift(g, initial, cluster, st)
		if err != nil {
			panic("eval: drift static tick: " + err.Error())
		}
		o.rel[stratStatic] = append(o.rel[stratStatic], staticRes.Relative)
		if d := base.Relative - staticRes.Relative; d > 0 {
			o.lost += d
		}
		for si := stratReactive; si <= stratFull; si++ {
			act, err := loops[si].Step(ctx, st)
			if err != nil {
				panic("eval: drift step: " + err.Error())
			}
			o.rel[si] = append(o.rel[si], act.Relative)
			o.cost[si] += act.MoveCost
			o.moved[si] += act.Moved
			if act.Replanned {
				o.replans[si]++
			}
			if act.Degraded {
				o.degraded[si]++
			}
			if si == stratReactive && base.Relative > staticRes.Relative {
				o.gained += act.Relative - staticRes.Relative
			}
		}
	}
	return o
}

func (h *Harness) driftArtifact(res *DriftResult) string {
	out := "# drift experiment: mean relative throughput / cumulative migration cost\n"
	for _, st := range []*DriftStrategy{&res.Static, &res.Reactive, &res.Full} {
		out += fmt.Sprintf("%s\t%.6f\t%.3f\t%d\t%d\t%d\n",
			st.Name, st.MeanRelative, st.MoveCost, st.Migrations, st.Replans, st.DegradedTicks)
	}
	out += fmt.Sprintf("recovery_frac\t%.6f\n", res.RecoveryFrac)
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
