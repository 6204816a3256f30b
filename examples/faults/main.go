// Command faults demonstrates the chaos-injected concurrent runtime: it
// builds a small stream application, places it with Metis, and measures
// throughput under an escalating fault schedule — clean, one device crash,
// two crashes, a pool-wide link-class dip, and a drift mix of surge, loss
// and class change.
//
// Real stream-processing clusters lose workers and links mid-run; a
// placement is only as good as the throughput it retains when that
// happens. Every scenario is a sim.DriftEvent list expanded by
// sim.BuildTimeline — the timeline the fluid model replays tick by tick —
// and the runtime gives each tick an equal share of the wall clock. The
// timeline is read-only to the runtime's hot path, so the faulted runs
// exercise exactly the same scheduler, batching, and credit handshakes as
// the clean one.
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/gen"
	"repro/internal/metis"
	"repro/internal/runtime"
	"repro/internal/sim"
)

// ticks is the timeline length: 25 ms per tick over the 400 ms run.
const ticks = 16

func main() {
	// A small generated workload: a handful of operators per graph, five
	// devices, 1 Gbps links — enough contention that faults actually bite.
	setting := gen.Small()
	setting.TestN = 1
	ds := setting.Generate()
	g := ds.Test[0]
	cluster := ds.Cluster

	p := metis.Partition(g, metis.Options{Parts: cluster.Devices, Seed: 1})
	p.Devices = cluster.Devices

	cfg := runtime.DefaultConfig()
	cfg.WallTime = 400 * time.Millisecond
	cfg.WarmupFrac = 0.25

	crash := func(dev, tick int) sim.DriftEvent {
		return sim.DriftEvent{Kind: sim.DriftDeviceLoss, Device: dev, Tick: tick, DurTicks: 3}
	}
	class := func(tick int, factor float64) sim.DriftEvent {
		return sim.DriftEvent{Kind: sim.DriftLinkClass, Tick: tick, Factor: factor}
	}
	scenarios := []struct {
		name   string
		events []sim.DriftEvent
	}{
		{"clean (no faults)", nil},
		{"1 device crash", []sim.DriftEvent{crash(0, 4)}},
		{"2 device crashes", []sim.DriftEvent{crash(0, 4), crash(1, 7)}},
		// Every link runs at 20% bandwidth for ticks [4, 12): the pool
		// was moved to a slower link class and back.
		{"link class 0.2x dip", []sim.DriftEvent{class(4, 0.2), class(12, 1)}},
		// A 1.8× surge over ticks [4,10), device 1 out from tick 6 on, and
		// a half-bandwidth link class from tick 8.
		{"drift (surge+loss+class)", []sim.DriftEvent{
			{Kind: sim.DriftSourceSurge, Tick: 4, DurTicks: 6, Factor: 1.8},
			{Kind: sim.DriftDeviceLoss, Tick: 6, Device: 1},
			class(8, 0.5),
		}},
	}

	fmt.Printf("graph: %d operators, %.0f tuples/s source, %d devices\n\n",
		g.NumNodes(), g.SourceRate, cluster.Devices)
	fmt.Printf("%-26s %10s %10s %9s %9s %8s %8s\n",
		"scenario", "relative", "retained", "crashes", "restarts", "links", "sources")

	var baseline float64
	for i, sc := range scenarios {
		timeline, err := sim.BuildTimeline(cluster.Devices, ticks, sc.events)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %s: %v\n", sc.name, err)
			os.Exit(1)
		}
		cfg.Drift = timeline
		r, err := runtime.Run(g, p, cluster, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %s: %v\n", sc.name, err)
			os.Exit(1)
		}
		if i == 0 {
			baseline = r.Relative
		}
		retained := 1.0
		if baseline > 0 {
			retained = r.Relative / baseline
		}
		// Fault columns are the runtime's measured counts (runtime.Result),
		// not the timeline re-tallied: a loss of a device that hosts no
		// operator shows up as zero here.
		fmt.Printf("%-26s %10.3f %9.0f%% %9d %9d %8d %8d\n",
			sc.name, r.Relative, retained*100, r.DeviceCrashes, r.DeviceRestarts, r.LinkRetunes, r.SourceRetunes)
	}

	fmt.Println("\nThe same degradation curve is available as an eval-harness")
	fmt.Println("experiment: internal/eval's Harness.Run(\"robustness\") on the")
	fmt.Println("runtime, \"robustness-sim\" on the fluid model — and the drift")
	fmt.Println("comparison (static vs reactive vs full re-coarsen) as")
	fmt.Println("Harness.Run(\"drift\").")
}
