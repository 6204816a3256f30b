package runtime

import (
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stream"
)

// chainGraph builds src -> mid -> sink with the given per-tuple payload
// on both edges.
func chainGraph(rate, payload float64) *stream.Graph {
	g := stream.NewGraph(rate)
	src := g.AddNode(stream.Node{IPT: 0, Selectivity: 1})
	mid := g.AddNode(stream.Node{IPT: 0, Selectivity: 1})
	sink := g.AddNode(stream.Node{IPT: 0, Selectivity: 1})
	g.AddEdge(src, mid, payload)
	g.AddEdge(mid, sink, payload)
	return g
}

func onDevice(g *stream.Graph, devices int, assign ...int) *stream.Placement {
	p := stream.NewPlacement(g.NumNodes(), devices)
	copy(p.Assign, assign)
	return p
}

// faultTicks is the length of the test timelines: over faultCfg's 400 ms
// each tick holds for 25 ms, and the 100 ms warmup ends at tick 4.
const faultTicks = 16

// faultCfg runs long enough that crash windows dominate scheduling noise.
func faultCfg() Config {
	cfg := DefaultConfig()
	cfg.WallTime = 400 * time.Millisecond
	cfg.WarmupFrac = 0.25
	return cfg
}

// timeline builds a faultTicks-long drift timeline from events.
func timeline(t *testing.T, devices int, events ...sim.DriftEvent) []sim.DriftState {
	t.Helper()
	tl, err := sim.BuildTimeline(devices, faultTicks, events)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func loss(device, tick, durTicks int) sim.DriftEvent {
	return sim.DriftEvent{Kind: sim.DriftDeviceLoss, Device: device, Tick: tick, DurTicks: durTicks}
}

func linkClass(tick int, factor float64) sim.DriftEvent {
	return sim.DriftEvent{Kind: sim.DriftLinkClass, Tick: tick, Factor: factor}
}

// TestRunRejectsInvalidFaultPlan checks that Run refuses a fault timeline
// that does not fit the cluster, naming the offending state: a loss built
// for a device the cluster lacks, a severed link, a non-positive rate.
func TestRunRejectsInvalidFaultPlan(t *testing.T) {
	g := chainGraph(1000, 0)
	p := onDevice(g, 2, 0, 0, 0)
	c := sim.DefaultCluster(2, 1000)
	for _, st := range []sim.DriftState{
		timeline(t, 8, loss(7, 0, 0))[0],
		{RateFactor: 1, BandwidthFactor: 0},
		{RateFactor: -1, BandwidthFactor: 1},
	} {
		cfg := faultCfg()
		cfg.Drift = []sim.DriftState{sim.NominalDrift(2), st}
		_, err := Run(g, p, c, cfg)
		if err == nil || !strings.Contains(err.Error(), "drift state 1") {
			t.Errorf("invalid drift state %+v: want an error naming state 1, got %v", st, err)
		}
	}
}

// TestThroughputDegradesMonotonicallyWithCrashCount injects k disjoint
// downtime windows into an otherwise unconstrained run: measured relative
// throughput must fall as k grows (the acceptance criterion for the
// robustness metric).
func TestThroughputDegradesMonotonicallyWithCrashCount(t *testing.T) {
	c := sim.DefaultCluster(1, 1000)
	rels := make([]float64, 4)
	for k := 0; k < len(rels); k++ {
		g := chainGraph(100, 0) // light load: fault-free run reaches ~1.0
		p := onDevice(g, 1, 0, 0, 0)
		cfg := faultCfg()
		var events []sim.DriftEvent
		for i := 0; i < k; i++ {
			events = append(events, loss(0, 4+3*i, 2)) // ticks [4+3i, 6+3i)
		}
		cfg.Drift = timeline(t, 1, events...)
		res, err := Run(g, p, c, cfg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		rels[k] = res.Relative
	}
	t.Logf("relative throughput by crash count: %v", rels)
	if rels[0] < 0.8 {
		t.Fatalf("fault-free baseline too low to discriminate: %v", rels[0])
	}
	for k := 1; k < len(rels); k++ {
		if rels[k] > rels[k-1]+0.05 {
			t.Errorf("throughput rose with more crashes: rel[%d]=%v > rel[%d]=%v", k, rels[k], k-1, rels[k-1])
		}
	}
	if rels[len(rels)-1] > rels[0]-0.2 {
		t.Errorf("three crash windows should cost >0.2 relative throughput: %v", rels)
	}
}

// TestCrashedDeviceRestartsAndRunCompletes crashes the downstream device
// mid-run; the run must finish, lose throughput versus fault-free, and
// still make progress after the restart.
func TestCrashedDeviceRestartsAndRunCompletes(t *testing.T) {
	c := sim.DefaultCluster(2, 1e6)
	mk := func(drift []sim.DriftState) Result {
		g := chainGraph(200, 1)
		p := onDevice(g, 2, 0, 0, 1) // sink alone on device 1
		cfg := faultCfg()
		cfg.Drift = drift
		res, err := Run(g, p, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := mk(nil)
	faulted := mk(timeline(t, 2, loss(1, 5, 5))) // down for [125, 250) ms
	t.Logf("clean=%v faulted=%v", clean.Relative, faulted.Relative)
	if faulted.Relative >= clean.Relative {
		t.Errorf("crashing the sink's device must cost throughput: clean=%v faulted=%v", clean.Relative, faulted.Relative)
	}
	if faulted.Relative < 0.05 {
		t.Errorf("device restarted 150ms before the end; some post-restart progress expected, got %v", faulted.Relative)
	}
	if faulted.DeviceCrashes != 1 || faulted.DeviceRestarts != 1 {
		t.Errorf("one loss window must measure one crash and one restart, got %d and %d",
			faulted.DeviceCrashes, faulted.DeviceRestarts)
	}
}

// TestCrashesAndRestartsMatchLossWindows checks the measured fault counts
// against the timeline itself: every maximal run of states in which a
// device that hosts operators is down is one crash, and one restart
// unless it lasts to the end. Losses of an idle device never register.
func TestCrashesAndRestartsMatchLossWindows(t *testing.T) {
	c := sim.DefaultCluster(3, 1e6)
	g := chainGraph(200, 1)
	p := onDevice(g, 3, 0, 0, 1) // device 2 hosts nothing
	cfg := faultCfg()
	cfg.Drift = timeline(t, 3,
		loss(0, 2, 3),
		loss(1, 7, 3), loss(1, 13, 0), // a restart, then a loss to the end
		loss(2, 1, 14),
	)
	hosts := map[int]bool{}
	for _, d := range p.Assign {
		hosts[d] = true
	}
	var crashes, restarts int
	for d := range hosts {
		for i, st := range cfg.Drift {
			if st.Up(d) || (i > 0 && !cfg.Drift[i-1].Up(d)) {
				continue
			}
			crashes++
			for j := i; j < len(cfg.Drift); j++ {
				if cfg.Drift[j].Up(d) {
					restarts++
					break
				}
			}
		}
	}
	if crashes != 3 || restarts != 2 {
		t.Fatalf("timeline holds %d loss windows and %d restarts on hosting devices, want 3 and 2", crashes, restarts)
	}
	res, err := Run(g, p, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeviceCrashes != crashes || res.DeviceRestarts != restarts {
		t.Errorf("measured %d crashes and %d restarts, the timeline's loss windows on hosting devices are %d and %d",
			res.DeviceCrashes, res.DeviceRestarts, crashes, restarts)
	}
}

// TestLinkDegradationThrottlesCrossDeviceEdge saturates a cross-device
// edge, then drops the pool's link class to 20% when the warmup ends:
// throughput must drop accordingly.
func TestLinkDegradationThrottlesCrossDeviceEdge(t *testing.T) {
	// Bandwidth sized so the cross edge is the bottleneck even fault-free:
	// 200 t/s × 10 kbit = 2 Mbps against a 1 Mbps link.
	c := sim.DefaultCluster(2, 1)
	mk := func(drift []sim.DriftState) Result {
		g := chainGraph(200, 10000)
		p := onDevice(g, 2, 0, 0, 1)
		cfg := faultCfg()
		cfg.Drift = drift
		res, err := Run(g, p, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := mk(nil)
	degraded := mk(timeline(t, 2, linkClass(4, 0.2)))
	t.Logf("clean=%v degraded=%v", clean.Relative, degraded.Relative)
	if degraded.Relative >= clean.Relative*0.7 {
		t.Errorf("an 80%% link degradation should show: clean=%v degraded=%v", clean.Relative, degraded.Relative)
	}
	if degraded.LinkRetunes != 1 {
		t.Errorf("one class change must retune the links once, got %d", degraded.LinkRetunes)
	}
}

// TestLinkFlapRecovers nearly severs a saturated link briefly; throughput
// must dip below fault-free (the lost window cannot be caught up — the
// link is the bottleneck) but recover enough to beat a permanent drop.
func TestLinkFlapRecovers(t *testing.T) {
	// 200 t/s × 10 kbit = 2 Mbps against a 1 Mbps link: saturated, so
	// every severed millisecond is unrecoverable.
	c := sim.DefaultCluster(2, 1)
	mk := func(drift []sim.DriftState) Result {
		g := chainGraph(200, 10000)
		p := onDevice(g, 2, 0, 0, 1)
		cfg := faultCfg()
		cfg.Drift = drift
		res, err := Run(g, p, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := mk(nil)
	flap := mk(timeline(t, 2, linkClass(6, 0.01), linkClass(9, 1))) // [150, 225) ms
	severed := mk(timeline(t, 2, linkClass(4, 0.01)))
	t.Logf("clean=%v flap=%v severed=%v", clean.Relative, flap.Relative, severed.Relative)
	if flap.Relative > clean.Relative-0.03 {
		t.Errorf("a flap on a saturated link must cost throughput: clean=%v flap=%v", clean.Relative, flap.Relative)
	}
	if severed.Relative > flap.Relative-0.03 {
		t.Errorf("a permanent drop must cost more than a flap: flap=%v severed=%v", flap.Relative, severed.Relative)
	}
	if flap.LinkRetunes != 2 {
		t.Errorf("a flap must retune the links down and back up, got %d retunes", flap.LinkRetunes)
	}
}

// TestRunUnderDriftDeviceLoss permanently loses the sink's device: it
// must cost throughput versus the drift-free run and measure as one crash
// with no restart.
func TestRunUnderDriftDeviceLoss(t *testing.T) {
	c := sim.DefaultCluster(2, 1e6)
	mk := func(drift []sim.DriftState) Result {
		g := chainGraph(200, 1)
		p := onDevice(g, 2, 0, 0, 1)
		cfg := faultCfg()
		cfg.Drift = drift
		res, err := Run(g, p, c, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	clean := mk(nil)
	lost := mk(timeline(t, 2, loss(1, 6, 0)))
	t.Logf("clean=%v lost=%v crashes=%d", clean.Relative, lost.Relative, lost.DeviceCrashes)
	if lost.Relative >= clean.Relative {
		t.Errorf("losing the sink's device must cost throughput: clean=%v lost=%v",
			clean.Relative, lost.Relative)
	}
	if lost.DeviceCrashes != 1 || lost.DeviceRestarts != 0 {
		t.Errorf("a permanent loss is one crash and no restart, got %d and %d", lost.DeviceCrashes, lost.DeviceRestarts)
	}
}

// TestRunUnderSurgeRetunesSources checks the drift controller retunes
// arrival buckets: a bounded mid-run surge records its onset and decay.
func TestRunUnderSurgeRetunesSources(t *testing.T) {
	c := sim.DefaultCluster(1, 1e6)
	g := chainGraph(100, 0)
	p := onDevice(g, 1, 0, 0, 0)
	cfg := faultCfg()
	cfg.Drift = timeline(t, 1, sim.DriftEvent{Kind: sim.DriftSourceSurge, Tick: 4, DurTicks: 4, Factor: 2})
	res, err := Run(g, p, c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceRetunes != 2 {
		t.Errorf("a bounded surge must retune sources at onset and decay, got %d", res.SourceRetunes)
	}
}

// TestRunSurgeMeasuredAgainstSurgedDemand checks that Relative divides by
// the surged demand, as sim.SimulateDrift does: two operators that fill
// one device at the nominal rate read near full rate, and a 2× surge over
// the whole run halves them.
func TestRunSurgeMeasuredAgainstSurgedDemand(t *testing.T) {
	g := chain(2, 500, 1000, 1)
	p := stream.NewPlacement(2, 2)
	res, err := Run(g, p, testCluster(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Relative < 0.75 {
		t.Fatalf("nominal relative = %g, want ≥ 0.75", res.Relative)
	}
	cfg := quickConfig()
	cfg.Drift = timeline(t, 2, sim.DriftEvent{Kind: sim.DriftSourceSurge, Tick: 0, DurTicks: faultTicks, Factor: 2})
	res, err = Run(g, p, testCluster(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relative < 0.3 || res.Relative > 0.75 {
		t.Fatalf("relative under a 2× surge = %g, want ≈0.5", res.Relative)
	}
}
