package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/stream"
)

// pipelineGraph builds a chain with the given IPT and payload per node.
func pipelineGraph(n int, rate, ipt, payload float64) *stream.Graph {
	g := stream.NewGraph(rate)
	for i := 0; i < n; i++ {
		g.AddNode(stream.Node{IPT: ipt, Payload: payload})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 0)
	}
	return g
}

func smallCluster() Cluster {
	return Cluster{Devices: 2, MIPS: 1, Bandwidth: 1e6, Links: NIC} // 1e6 instr/s
}

func TestUnconstrainedReachesFullRate(t *testing.T) {
	// 2 nodes × (IPT 10 × rate 100) = 2,000 instr/s ≪ capacity.
	g := pipelineGraph(2, 100, 10, 10)
	p := stream.NewPlacement(2, 2)
	res, err := Simulate(g, p, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if res.Relative != 1 || res.Throughput != 100 {
		t.Fatalf("rel=%g thr=%g", res.Relative, res.Throughput)
	}
	if res.Bottleneck != BottleneckNone {
		t.Fatalf("bottleneck = %v", res.Bottleneck)
	}
}

func TestCPUBottleneckScaling(t *testing.T) {
	// One device, demand = 2× capacity → relative 0.5.
	g := pipelineGraph(2, 1000, 1000, 1) // load per node 1e6; total 2e6 vs 1e6 cap
	p := stream.NewPlacement(2, 2)       // both on device 0
	res, err := Simulate(g, p, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Relative-0.5) > 1e-9 {
		t.Fatalf("relative = %g, want 0.5", res.Relative)
	}
	if res.Bottleneck != BottleneckCPU || res.BottleneckDevice != 0 {
		t.Fatalf("bottleneck %v at %d", res.Bottleneck, res.BottleneckDevice)
	}
}

func TestNetworkBottleneck(t *testing.T) {
	// Cross-device edge carrying 2× bandwidth → relative 0.5.
	g := pipelineGraph(2, 1000, 1, 2000) // traffic = 2000×1000 = 2e6 bits/s vs 1e6 BW
	p := stream.NewPlacement(2, 2)
	p.Assign[1] = 1
	res, err := Simulate(g, p, smallCluster())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Relative-0.5) > 1e-9 {
		t.Fatalf("relative = %g", res.Relative)
	}
	if res.Bottleneck != BottleneckNetwork {
		t.Fatalf("bottleneck = %v", res.Bottleneck)
	}
}

func TestColocationAvoidsNetworkBottleneck(t *testing.T) {
	g := pipelineGraph(2, 1000, 1, 2000)
	together := stream.NewPlacement(2, 2)
	apart := stream.NewPlacement(2, 2)
	apart.Assign[1] = 1
	rTogether := Reward(g, together, smallCluster())
	rApart := Reward(g, apart, smallCluster())
	if rTogether <= rApart {
		t.Fatalf("colocation %g should beat split %g for heavy edges", rTogether, rApart)
	}
}

func TestBalancingBeatsOverloadWhenCPUBound(t *testing.T) {
	// Tiny payloads: CPU is the only constraint → balanced wins.
	g := pipelineGraph(4, 1000, 500, 0.001)
	all0 := stream.NewPlacement(4, 2)
	split := stream.NewPlacement(4, 2)
	split.Assign = []int{0, 0, 1, 1}
	if Reward(g, split, smallCluster()) <= Reward(g, all0, smallCluster()) {
		t.Fatal("balanced placement should beat single device when CPU bound")
	}
}

func TestPairLinkVsNIC(t *testing.T) {
	// Fan-out from node 0 to two downstream nodes on two other devices.
	g := stream.NewGraph(1000)
	g.AddNode(stream.Node{IPT: 1, Payload: 900})
	g.AddNode(stream.Node{IPT: 1, Payload: 1})
	g.AddNode(stream.Node{IPT: 1, Payload: 1})
	g.AddEdge(0, 1, 0)
	g.AddEdge(0, 2, 0)
	c := Cluster{Devices: 3, MIPS: 1, Bandwidth: 1e6}
	p := stream.NewPlacement(3, 3)
	p.Assign = []int{0, 1, 2}
	// NIC: egress at device 0 = 1.8e6 > BW → bottleneck.
	c.Links = NIC
	resNIC, err := Simulate(g, p, c)
	if err != nil {
		t.Fatal(err)
	}
	// PairLink: each pair carries 0.9e6 < BW → no bottleneck.
	c.Links = PairLink
	resPair, err := Simulate(g, p, c)
	if err != nil {
		t.Fatal(err)
	}
	if resNIC.Relative >= 1 || resPair.Relative != 1 {
		t.Fatalf("NIC rel %g, pair rel %g", resNIC.Relative, resPair.Relative)
	}
}

// TestPairLinkTieBindsLowestSource pins the PairLink bottleneck device
// when several links saturate equally: the pair map is visited in random
// order, and the re-allocation loop builds its replan region from
// BottleneckDevice, so a tie must resolve to the lowest source device.
func TestPairLinkTieBindsLowestSource(t *testing.T) {
	g := pipelineGraph(4, 1000, 1, 2000) // every edge carries 2e6 bits/s
	p := stream.NewPlacement(4, 4)
	p.Assign = []int{0, 1, 2, 3} // pairs (0,1), (1,2), (2,3) tie at 2× bandwidth
	c := Cluster{Devices: 4, MIPS: 1, Bandwidth: 1e6, Links: PairLink}
	for i := 0; i < 200; i++ {
		res, err := Simulate(g, p, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Bottleneck != BottleneckNetwork || res.BottleneckDevice != 0 || res.Relative != 0.5 {
			t.Fatalf("call %d: %v at device %d, relative %g; want network at 0, 0.5",
				i, res.Bottleneck, res.BottleneckDevice, res.Relative)
		}
	}
}

func TestSimulateRejectsInvalidPlacement(t *testing.T) {
	g := pipelineGraph(2, 100, 1, 1)
	p := stream.NewPlacement(2, 5)
	if _, err := Simulate(g, p, smallCluster()); err == nil {
		t.Fatal("placement with more devices than cluster accepted")
	}
}

func TestDefaultClusterConstants(t *testing.T) {
	c := DefaultCluster(10, 1000)
	if c.MIPS != 1.25e3 {
		t.Fatalf("MIPS = %g", c.MIPS)
	}
	if c.Bandwidth != 1e9 {
		t.Fatalf("bandwidth = %g", c.Bandwidth)
	}
	if c.InstructionCapacity() != 1.25e9 {
		t.Fatalf("capacity = %g", c.InstructionCapacity())
	}
}

func TestUtilizationStats(t *testing.T) {
	res := Result{
		DeviceUtil: []float64{0.5, 0, 0.3},
		NetUtil:    []float64{0.2, 0, 0.4},
	}
	st := Utilization(res)
	if st.UsedDevices != 2 {
		t.Fatalf("used = %d", st.UsedDevices)
	}
	if math.Abs(st.CPUMean-0.4) > 1e-12 || math.Abs(st.NetMean-0.3) > 1e-12 {
		t.Fatalf("means %g %g", st.CPUMean, st.NetMean)
	}
}

func TestEdgeSaturation(t *testing.T) {
	g := pipelineGraph(2, 1000, 1, 500)
	sat := EdgeSaturation(g, smallCluster())
	if math.Abs(sat[0]-0.5) > 1e-12 { // 500×1000 / 1e6
		t.Fatalf("sat = %g", sat[0])
	}
}

// randomGraphAndPlacement builds a random valid DAG + placement for
// property tests.
func randomGraphAndPlacement(rng *rand.Rand, devices int) (*stream.Graph, *stream.Placement) {
	n := 3 + rng.Intn(15)
	g := stream.NewGraph(100 + rng.Float64()*1000)
	for i := 0; i < n; i++ {
		g.AddNode(stream.Node{IPT: rng.Float64() * 1000, Payload: rng.Float64() * 1000})
	}
	for i := 1; i < n; i++ {
		g.AddEdge(rng.Intn(i), i, 0)
	}
	p := stream.NewPlacement(n, devices)
	for i := range p.Assign {
		p.Assign[i] = rng.Intn(devices)
	}
	return g, p
}

// Property: relative throughput is always in (0, 1].
func TestQuickRelativeInUnitInterval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, p := randomGraphAndPlacement(rng, 3)
		c := Cluster{Devices: 3, MIPS: 0.5, Bandwidth: 5e5, Links: NIC}
		res, err := Simulate(g, p, c)
		if err != nil {
			return false
		}
		return res.Relative > 0 && res.Relative <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: a single-device placement never hits a network bottleneck.
func TestQuickSingleDeviceNoNetwork(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, _ := randomGraphAndPlacement(rng, 3)
		p := stream.NewPlacement(g.NumNodes(), 3)
		c := Cluster{Devices: 3, MIPS: 0.1, Bandwidth: 10, Links: NIC}
		res, err := Simulate(g, p, c)
		if err != nil {
			return false
		}
		return res.Bottleneck != BottleneckNetwork
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestBottleneckKindString(t *testing.T) {
	if BottleneckCPU.String() != "cpu" || BottleneckNetwork.String() != "network" || BottleneckNone.String() != "none" {
		t.Fatal("bottleneck strings")
	}
}

func TestHeterogeneousCapacity(t *testing.T) {
	g := pipelineGraph(2, 1000, 1000, 0.001) // each node demands 1e6 instr/s
	p := stream.NewPlacement(2, 2)
	p.Assign = []int{0, 1}
	c := Cluster{Devices: 2, MIPS: 1, Bandwidth: 1e9, Links: NIC}
	// Homogeneous: each device exactly saturated → relative 1.
	res, err := Simulate(g, p, c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relative != 1 {
		t.Fatalf("homogeneous relative %g", res.Relative)
	}
	// Device 1 at half capacity → relative 0.5 with the same placement.
	het := c.Heterogeneous([]float64{1, 0.5})
	res, err = Simulate(g, p, het)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Relative-0.5) > 1e-9 || res.BottleneckDevice != 1 {
		t.Fatalf("heterogeneous relative %g bottleneck %d", res.Relative, res.BottleneckDevice)
	}
	// Swapping the placement onto the faster device restores throughput...
	// (loads are equal here, so it cannot; instead verify TotalCapacity).
	if het.TotalCapacity() != 1.5e6 {
		t.Fatalf("total capacity %g", het.TotalCapacity())
	}
}

func TestHeterogeneousPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DefaultCluster(3, 100).Heterogeneous([]float64{1})
}

// TestClusterValidate pins the cluster invariants: positive, finite
// capacities (NaN and +Inf included) and one MIPS entry per device.
func TestClusterValidate(t *testing.T) {
	base := DefaultCluster(3, 1000)
	if err := base.Validate(); err != nil {
		t.Fatalf("default cluster rejected: %v", err)
	}
	if err := base.Heterogeneous([]float64{1000, 1250, 1500}).Validate(); err != nil {
		t.Fatalf("heterogeneous cluster rejected: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, mut := range map[string]func(c *Cluster){
		"no devices":           func(c *Cluster) { c.Devices = 0 },
		"negative MIPS":        func(c *Cluster) { c.MIPS = -1250 },
		"NaN MIPS":             func(c *Cluster) { c.MIPS = nan },
		"infinite MIPS":        func(c *Cluster) { c.MIPS = inf },
		"zero bandwidth":       func(c *Cluster) { c.Bandwidth = 0 },
		"NaN bandwidth":        func(c *Cluster) { c.Bandwidth = nan },
		"infinite bandwidth":   func(c *Cluster) { c.Bandwidth = inf },
		"device MIPS count":    func(c *Cluster) { c.DeviceMIPS = []float64{1250, 1250} },
		"zero device MIPS":     func(c *Cluster) { c.DeviceMIPS = []float64{0, 0, 0} },
		"NaN device MIPS":      func(c *Cluster) { c.DeviceMIPS = []float64{1250, nan, 1250} },
		"infinite device MIPS": func(c *Cluster) { c.DeviceMIPS = []float64{1250, 1250, inf} },
	} {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
