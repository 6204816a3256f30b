package runtime

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stream"
)

func chain(n int, rate, ipt, payload float64) *stream.Graph {
	g := stream.NewGraph(rate)
	for i := 0; i < n; i++ {
		g.AddNode(stream.Node{IPT: ipt, Payload: payload})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 0)
	}
	return g
}

func testCluster() sim.Cluster {
	return sim.Cluster{Devices: 2, MIPS: 1, Bandwidth: 1e6, Links: sim.NIC}
}

func quickConfig() Config {
	cfg := DefaultConfig()
	// Long enough that the token-bucket rates dominate scheduling jitter
	// even when other test binaries share the machine.
	cfg.WallTime = 250 * time.Millisecond
	return cfg
}

func TestRunUnconstrainedReachesFullRate(t *testing.T) {
	g := chain(3, 200, 10, 10)
	p := stream.NewPlacement(3, 2)
	res, err := Run(g, p, testCluster(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Relative < 0.75 {
		t.Fatalf("relative = %g, want near 1", res.Relative)
	}
	if res.SinkTuples <= 0 {
		t.Fatal("no tuples reached the sink")
	}
}

func TestRunCPUBottleneckHalvesThroughput(t *testing.T) {
	// Both ops on one device at 2× demand → ≈0.5 relative.
	g := chain(2, 1000, 1000, 1)
	p := stream.NewPlacement(2, 2)
	res, err := Run(g, p, testCluster(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Relative < 0.3 || res.Relative > 0.75 {
		t.Fatalf("relative = %g, want ≈0.5", res.Relative)
	}
}

func TestRunColocationBeatsSplitForHeavyEdge(t *testing.T) {
	g := chain(2, 1000, 1, 2000) // edge traffic 2× bandwidth when cut
	together := stream.NewPlacement(2, 2)
	apart := stream.NewPlacement(2, 2)
	apart.Assign[1] = 1
	rT, err := Run(g, together, testCluster(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	rA, err := Run(g, apart, testCluster(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rT.Relative <= rA.Relative {
		t.Fatalf("colocation %.3f should beat split %.3f", rT.Relative, rA.Relative)
	}
}

func TestRunNetworkBottleneckThrottles(t *testing.T) {
	g := chain(2, 1000, 1, 2000)
	p := stream.NewPlacement(2, 2)
	p.Assign[1] = 1
	res, err := Run(g, p, testCluster(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Cut edge carries 2× bandwidth → ≈0.5 relative; generous tolerance
	// because the runtime measures a short real execution under whatever
	// machine load the test run happens to share.
	if res.Relative > 0.8 || res.Relative < 0.2 {
		t.Fatalf("relative = %g, want ≈0.5", res.Relative)
	}
}

func TestRunRankAgreesWithFluid(t *testing.T) {
	// Two placements whose fluid rewards are clearly ordered must keep
	// that order under real execution. At payload 600 the five cut edges
	// of the shredded placement make it network-bound (fluid 0.556),
	// while the balanced one stays CPU-bound (0.833). The one-device
	// placement (fluid 0.417) is not compared: its runtime reading lands
	// on either side of shredded's from run to run.
	g := stream.NewGraph(1000)
	for i := 0; i < 6; i++ {
		g.AddNode(stream.Node{IPT: 400, Payload: 600})
	}
	for i := 0; i+1 < 6; i++ {
		g.AddEdge(i, i+1, 0)
	}
	c := testCluster()

	balanced := stream.NewPlacement(6, 2)
	balanced.Assign = []int{0, 0, 0, 1, 1, 1} // one cut edge
	shredded := stream.NewPlacement(6, 2)
	shredded.Assign = []int{0, 1, 0, 1, 0, 1} // five cut edges

	fluid := func(p *stream.Placement) float64 { return sim.Reward(g, p, c) }
	real := func(p *stream.Placement) float64 {
		res, err := Run(g, p, c, quickConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res.Relative
	}
	fb, fs := fluid(balanced), fluid(shredded)
	if !(fb > fs) {
		t.Fatalf("fluid ordering: balanced %g vs shredded %g, want balanced higher", fb, fs)
	}
	if rb, rs := real(balanced), real(shredded); !(rb > rs) {
		t.Fatalf("runtime rank flip: balanced %.3f vs shredded %.3f (fluid %.3f vs %.3f)", rb, rs, fb, fs)
	}
}

func TestRunRejectsInvalid(t *testing.T) {
	g := chain(3, 100, 1, 1)
	if _, err := Run(g, stream.NewPlacement(2, 2), testCluster(), quickConfig()); err == nil {
		t.Fatal("short placement accepted")
	}
	if _, err := Run(g, stream.NewPlacement(3, 2), testCluster(), Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	g.AddEdge(2, 0, 1)
	if _, err := Run(g, stream.NewPlacement(3, 2), testCluster(), quickConfig()); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestRunEmptyDeviceOK(t *testing.T) {
	// Devices without operators must not deadlock the run.
	g := chain(2, 100, 1, 1)
	p := stream.NewPlacement(2, 2) // all on device 0; device 1 idle
	res, err := Run(g, p, testCluster(), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Relative <= 0 {
		t.Fatal("no throughput measured")
	}
}
