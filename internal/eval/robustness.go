package eval

import (
	"time"

	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/runtime"
	"repro/internal/sim"
	"repro/internal/stream"
)

// RobustnessResult reports how a placement's throughput degrades as
// device crashes are injected. Real clusters fail; a placement that
// concentrates the hot path on one device loses more under a crash than
// one that spreads it, so the degradation curve is a robustness metric
// complementary to steady-state throughput.
type RobustnessResult struct {
	// Crashes[i] is the number of crash windows injected for column i
	// (always starting at 0 = fault-free baseline).
	Crashes []int
	// Relative[i] is the mean relative throughput over the evaluated
	// graphs with Crashes[i] crash windows.
	Relative []float64
	// Degradation[i] = Relative[i] / Relative[0]: the fraction of
	// fault-free throughput retained (1.0 at i=0 by construction).
	Degradation []float64
	// MeasuredCrashes[i] / MeasuredRestarts[i] are the device crash and
	// restart events of the column's runs. Robustness takes them from
	// runtime.Result's measured fault metrics (a loss of a device that
	// hosts no operator never fires); RobustnessSim counts the timeline's
	// loss windows.
	MeasuredCrashes  []int
	MeasuredRestarts []int
}

// crashColumn is one column of the robustness experiments: a drift
// timeline holding crashes loss windows, restarts of which close before
// the timeline ends.
type crashColumn struct {
	timeline          []sim.DriftState
	crashes, restarts int
}

// crashTimelines is the escalating crash schedule both robustness
// experiments replay: columns of 0 to 3 crashes on driftTicks-long
// timelines, crash i taking device i mod devices down for ticks
// [4+3i, 7+3i) — 75 ms windows from 100 ms on Robustness's 400 ms runs.
func crashTimelines(devices int) []crashColumn {
	cols := make([]crashColumn, 4)
	for k := range cols {
		var events []sim.DriftEvent
		for i := 0; i < k; i++ {
			at := 4 + 3*i
			events = append(events, sim.DriftEvent{
				Kind: sim.DriftDeviceLoss, Device: i % devices, Tick: at, DurTicks: 3,
			})
			if at+3 < driftTicks {
				cols[k].restarts++ // the window closes inside the run: the device comes back
			}
		}
		timeline, err := sim.BuildTimeline(devices, driftTicks, events)
		if err != nil {
			panic("eval: robustness timeline: " + err.Error())
		}
		cols[k].timeline, cols[k].crashes = timeline, k
	}
	return cols
}

// robustness replays crashTimelines on the Metis placements of up to four
// small test graphs, so the experiment needs no trained model. run
// executes one placement under one column and returns its relative
// throughput with the crashes and restarts it counts. robustness returns
// the result and the number of graphs.
func (h *Harness) robustness(run func(*stream.Graph, *stream.Placement, sim.Cluster, crashColumn) (float64, int, int, error)) (*RobustnessResult, int) {
	s := gen.Small()
	s.TestN = maxi(3, int(float64(s.TestN)*h.Scale/2))
	s.Seed += 53
	ds := s.Generate()
	cluster := ds.Cluster

	graphs := ds.Test
	if len(graphs) > 4 {
		graphs = graphs[:4]
	}
	placements := make([]*stream.Placement, len(graphs))
	for i, g := range graphs {
		p := metis.Partition(g, metis.Options{Parts: cluster.Devices, Seed: h.Seed})
		p.Devices = cluster.Devices
		placements[i] = p
	}

	res := &RobustnessResult{}
	for _, col := range crashTimelines(cluster.Devices) {
		// Wall-clock runs share the CPUs: keep every run serial so
		// concurrent runs do not distort each other's timing.
		var sum float64
		var n, crashes, restarts int
		for i, g := range graphs {
			rel, down, up, err := run(g, placements[i], cluster, col)
			if err != nil {
				h.printf("eval: robustness run failed on graph %d (k=%d): %v\n", i, col.crashes, err)
				continue
			}
			sum += rel
			crashes += down
			restarts += up
			n++
		}
		mean := 0.0
		if n > 0 {
			mean = sum / float64(n)
		}
		res.Crashes = append(res.Crashes, col.crashes)
		res.Relative = append(res.Relative, mean)
		res.MeasuredCrashes = append(res.MeasuredCrashes, crashes)
		res.MeasuredRestarts = append(res.MeasuredRestarts, restarts)
	}
	for i := range res.Relative {
		d := 1.0
		if res.Relative[0] > 0 {
			d = res.Relative[i] / res.Relative[0]
		}
		res.Degradation = append(res.Degradation, d)
	}
	return res, len(graphs)
}

// Robustness measures throughput degradation under the escalating crash
// schedule on the concurrent runtime: each timeline tick holds for 25 ms
// of a 400 ms run.
func (h *Harness) Robustness() *RobustnessResult {
	cfg := runtime.DefaultConfig()
	cfg.WallTime = 400 * time.Millisecond
	cfg.WarmupFrac = 0.25
	res, graphs := h.robustness(func(g *stream.Graph, p *stream.Placement, c sim.Cluster, col crashColumn) (float64, int, int, error) {
		cfg.Drift = col.timeline
		r, err := runtime.Run(g, p, c, cfg)
		return r.Relative, r.DeviceCrashes, r.DeviceRestarts, err
	})

	h.printf("== Robustness: throughput under injected device crashes ==\n")
	h.printf("  (Metis placements, %d graphs, 75 ms crash windows, 400 ms runs)\n", graphs)
	for i, k := range res.Crashes {
		h.printf("  %d crash(es): relative %.3f  retained %.2f  (measured: %d crashes, %d restarts)\n",
			k, res.Relative[i], res.Degradation[i], res.MeasuredCrashes[i], res.MeasuredRestarts[i])
	}
	h.printf("\n")
	return res
}

// RobustnessSim is the deterministic sibling of Robustness: the same
// crash timelines evaluated tick by tick on the fluid simulator instead
// of the wall-clock runtime. Fault counts and the throughput curve are
// bit-identical across runs and GOMAXPROCS settings, which the
// wall-clock experiment by nature cannot promise.
func (h *Harness) RobustnessSim() *RobustnessResult {
	res, graphs := h.robustness(func(g *stream.Graph, p *stream.Placement, c sim.Cluster, col crashColumn) (float64, int, int, error) {
		var sum float64
		for _, st := range col.timeline {
			r, err := sim.SimulateDrift(g, p, c, st)
			if err != nil {
				return 0, 0, 0, err
			}
			sum += r.Relative
		}
		return sum / float64(len(col.timeline)), col.crashes, col.restarts, nil
	})

	h.printf("== Robustness (deterministic sim): throughput under device crashes ==\n")
	h.printf("  (Metis placements, %d graphs, 3-tick crash windows, %d-tick timelines)\n", graphs, driftTicks)
	for i, k := range res.Crashes {
		h.printf("  %d crash(es): relative %.3f  retained %.2f  (%d crashes, %d restarts on the timeline)\n",
			k, res.Relative[i], res.Degradation[i], res.MeasuredCrashes[i], res.MeasuredRestarts[i])
	}
	h.printf("\n")
	return res
}
