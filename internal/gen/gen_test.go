package gen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testConfig(minN, maxN int) Config {
	c := sim.DefaultCluster(5, 1000)
	return DefaultConfig(minN, maxN, 10_000, c)
}

func TestGenerateWithinRangeAndValid(t *testing.T) {
	cfg := testConfig(20, 40)
	for seed := int64(0); seed < 10; seed++ {
		g := Generate(cfg, rand.New(rand.NewSource(seed)))
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := g.NumNodes(); n < cfg.MinNodes || n > cfg.MaxNodes {
			t.Fatalf("seed %d: %d nodes outside [%d,%d]", seed, n, cfg.MinNodes, cfg.MaxNodes)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := testConfig(30, 60)
	g1 := Generate(cfg, rand.New(rand.NewSource(42)))
	g2 := Generate(cfg, rand.New(rand.NewSource(42)))
	if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed produced different topology")
	}
	for i := range g1.Nodes {
		if g1.Nodes[i].IPT != g2.Nodes[i].IPT {
			t.Fatal("same seed produced different features")
		}
	}
}

func TestGenerateLoadNormalization(t *testing.T) {
	cfg := testConfig(50, 80)
	capTotal := float64(cfg.Cluster.Devices) * cfg.Cluster.InstructionCapacity()
	for seed := int64(0); seed < 8; seed++ {
		g := Generate(cfg, rand.New(rand.NewSource(seed)))
		frac := g.TotalLoad() / capTotal
		if frac < cfg.LoadFrac[0]-1e-9 || frac > cfg.LoadFrac[1]+1e-9 {
			t.Fatalf("seed %d: load fraction %g outside [%g,%g]", seed, frac, cfg.LoadFrac[0], cfg.LoadFrac[1])
		}
	}
}

func TestGenerateTrafficNormalization(t *testing.T) {
	cfg := testConfig(50, 80)
	aggBW := float64(cfg.Cluster.Devices) * cfg.Cluster.Bandwidth
	for seed := int64(0); seed < 8; seed++ {
		g := Generate(cfg, rand.New(rand.NewSource(seed)))
		var total float64
		for _, x := range g.EdgeTraffic() {
			total += x
		}
		frac := total / aggBW
		if frac < cfg.TrafficFrac[0]-1e-9 || frac > cfg.TrafficFrac[1]+1e-9 {
			t.Fatalf("seed %d: traffic fraction %g outside [%g,%g]", seed, frac, cfg.TrafficFrac[0], cfg.TrafficFrac[1])
		}
	}
}

func TestGenerateSetParallelDeterministic(t *testing.T) {
	cfg := testConfig(20, 40)
	a := GenerateSet(cfg, 12, 7)
	b := GenerateSet(cfg, 12, 7)
	for i := range a {
		if a[i].NumNodes() != b[i].NumNodes() || a[i].NumEdges() != b[i].NumEdges() {
			t.Fatalf("graph %d differs between runs", i)
		}
	}
	// Different indices should (almost surely) differ.
	same := 0
	for i := 1; i < len(a); i++ {
		if a[i].NumNodes() == a[0].NumNodes() && a[i].NumEdges() == a[0].NumEdges() {
			same++
		}
	}
	if same == len(a)-1 {
		t.Fatal("all graphs identical; seeds not varied")
	}
}

// Property: every generated graph is a weakly connected DAG in range.
func TestQuickGeneratedGraphsValid(t *testing.T) {
	cfg := testConfig(10, 120)
	f := func(seed int64) bool {
		g := Generate(cfg, rand.New(rand.NewSource(seed)))
		if err := g.Validate(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		n := g.NumNodes()
		return n >= cfg.MinNodes && n <= cfg.MaxNodes && g.NumEdges() >= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSettingsPresets(t *testing.T) {
	for _, s := range AllSettings() {
		if s.TrainN < 1 || s.TestN < 1 || s.Cluster.Devices < 1 {
			t.Fatalf("%s: bad preset", s.Name)
		}
		if _, err := ByName(s.Name); err != nil {
			t.Fatalf("%s: not resolvable by name", s.Name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown setting resolved")
	}
}

// TestPresetClustersValidate pins that every preset's cluster satisfies
// sim.Cluster.Validate, the check the serving layer applies to request
// clusters.
func TestPresetClustersValidate(t *testing.T) {
	for _, s := range AllSettings() {
		if err := s.Cluster.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestSettingScale(t *testing.T) {
	s := Small().Scale(0.01)
	if s.TrainN < 1 || s.TestN < 1 {
		t.Fatal("scale floored below 1")
	}
	s2 := Small().Scale(2)
	if s2.TrainN != Small().TrainN*2 {
		t.Fatalf("scale up: %d", s2.TrainN)
	}
}

func TestSmallSettingGeneratesSmallGraphs(t *testing.T) {
	s := Small()
	s.TrainN, s.TestN = 4, 4
	ds := s.Generate()
	for _, g := range append(ds.Train, ds.Test...) {
		if g.NumNodes() < 4 || g.NumNodes() > 26 {
			t.Fatalf("small graph has %d nodes", g.NumNodes())
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExcessSettingTraffic(t *testing.T) {
	// The excess setting must produce the same absolute traffic scale as
	// Large while its cluster bandwidth is 33% lower.
	l, e := Large(), Excess()
	if e.Cluster.Bandwidth >= l.Cluster.Bandwidth {
		t.Fatal("excess bandwidth not reduced")
	}
	ratio := e.Cluster.Bandwidth / l.Cluster.Bandwidth
	if math.Abs(ratio-0.67) > 1e-9 {
		t.Fatalf("bandwidth ratio %g", ratio)
	}
	if e.Config.LoadFrac[1] >= l.Config.LoadFrac[1] {
		t.Fatal("excess CPU utilization not reduced")
	}
}

func TestTrainTestDisjointSeeds(t *testing.T) {
	s := Small()
	s.TrainN, s.TestN = 6, 6
	ds := s.Generate()
	// Heuristic check: train[i] and test[i] should not be byte-identical.
	identical := 0
	for i := range ds.Test {
		if ds.Train[i].NumNodes() == ds.Test[i].NumNodes() && ds.Train[i].NumEdges() == ds.Test[i].NumEdges() {
			identical++
		}
	}
	if identical == len(ds.Test) {
		t.Fatal("train and test appear identical")
	}
}
