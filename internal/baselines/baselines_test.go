package baselines

import (
	"math"
	randv2 "math/rand/v2"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/gen"
	"repro/internal/nn"
	"repro/internal/placer"
	"repro/internal/rl"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tensor"
)

func smallData(t *testing.T, n int) (*gen.Dataset, sim.Cluster) {
	t.Helper()
	s := gen.Small()
	s.TrainN, s.TestN = n, 3
	ds := s.Generate()
	return ds, ds.Cluster
}

func quickCfg() rl.Config {
	cfg := rl.DefaultConfig()
	cfg.Epochs = 1
	cfg.OnPolicySamples = 2
	cfg.PretrainEpochs = 2
	cfg.Seed = 17
	cfg.Quiet = true
	return cfg
}

// learned is a baseline as both a placer and a trainable policy.
type learned interface {
	placer.Placer
	rl.Policy[[]int]
}

func allModels() []learned {
	return []learned{
		NewGraphEncDec(8, 16, 1),
		NewGDP(8, 2),
		NewHierarchical(10, 16, 3),
	}
}

func TestMaskLogits(t *testing.T) {
	m := tensor.New(2, 8)
	m.Fill(1)
	maskLogits(m, 3)
	if m.At(0, 2) != 1 || m.At(0, 3) != negInf || m.At(1, 7) != negInf {
		t.Fatal("mask wrong")
	}
}

func TestPlaceProducesValidPlacements(t *testing.T) {
	ds, c := smallData(t, 2)
	for _, m := range allModels() {
		for _, g := range ds.Test {
			p := m.Place(g, c)
			if err := p.Validate(g); err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			for _, d := range p.Assign {
				if d >= c.Devices {
					t.Fatalf("%s assigned masked device %d", m.Name(), d)
				}
			}
		}
	}
}

func TestPlaceDeterministic(t *testing.T) {
	ds, c := smallData(t, 1)
	for _, m := range allModels() {
		p1 := m.Place(ds.Test[0], c)
		p2 := m.Place(ds.Test[0], c)
		for i := range p1.Assign {
			if p1.Assign[i] != p2.Assign[i] {
				t.Fatalf("%s: nondeterministic greedy placement", m.Name())
			}
		}
	}
}

func TestTrainOnRunsAndChangesPlacements(t *testing.T) {
	ds, c := smallData(t, 3)
	for _, m := range allModels() {
		before := m.Place(ds.Test[0], c).Clone()
		if err := rl.NewPolicyTrainer(quickCfg(), m).TrainOn(ds.Train, c); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		after := m.Place(ds.Test[0], c)
		changed := false
		for i := range after.Assign {
			if after.Assign[i] != before.Assign[i] {
				changed = true
				break
			}
		}
		if !changed {
			t.Logf("%s: placement unchanged after short training (acceptable but unusual)", m.Name())
		}
		if err := after.Validate(ds.Test[0]); err != nil {
			t.Fatalf("%s after training: %v", m.Name(), err)
		}
	}
}

func TestPretrainingMovesTowardMetis(t *testing.T) {
	// After imitation pretraining only, GDP's placements should agree with
	// Metis labels far above chance on the training graphs.
	ds, c := smallData(t, 4)
	m := NewGDP(8, 5)
	cfg := quickCfg()
	cfg.PretrainEpochs = 40
	cfg.Epochs = 0
	if err := rl.NewPolicyTrainer(cfg, m).TrainOn(ds.Train, c); err != nil {
		t.Fatal(err)
	}

	agree, total := 0, 0
	for _, g := range ds.Train {
		target := m.Guided(g, c, cfg.Seed)
		p := m.Place(g, c)
		for v := range p.Assign {
			if p.Assign[v] == target[v] {
				agree++
			}
			total++
		}
	}
	frac := float64(agree) / float64(total)
	if frac < 0.4 { // chance is 1/5 = 0.2
		t.Fatalf("imitation agreement %.2f, want > 0.4", frac)
	}
}

func TestTrainImprovesRewardOnTinyGraph(t *testing.T) {
	// Single trivial two-node graph where the optimal policy is to
	// colocate (huge payload); REINFORCE should find it quickly.
	g := stream.NewGraph(1000)
	g.AddNode(stream.Node{IPT: 10, Payload: 5e6})
	g.AddNode(stream.Node{IPT: 10, Payload: 1})
	g.AddEdge(0, 1, 0)
	c := sim.Cluster{Devices: 2, MIPS: 1, Bandwidth: 1e6, Links: sim.NIC}

	m := NewGDP(4, 7)
	cfg := rl.DefaultConfig()
	cfg.Epochs, cfg.OnPolicySamples, cfg.LR, cfg.Seed = 40, 4, 0.02, 1
	cfg.PretrainEpochs, cfg.MetisGuided = 0, false
	cfg.Quiet = true
	if err := rl.NewPolicyTrainer(cfg, m).TrainOn([]*stream.Graph{g}, c); err != nil {
		t.Fatal(err)
	}
	p := m.Place(g, c)
	if p.Assign[0] != p.Assign[1] {
		t.Fatal("GDP failed to learn colocation on a trivial instance")
	}
}

func TestSampleLogProbsDistribution(t *testing.T) {
	lp := []float64{math.Log(0.7), math.Log(0.3), negInf, negInf}
	counts := make([]int, 4)
	rng := randv2.New(randv2.NewPCG(99, 0))
	for i := 0; i < 2000; i++ {
		counts[sampleLogProbs(rng, lp, 2)]++
	}
	if counts[2] != 0 || counts[3] != 0 {
		t.Fatal("sampled masked device")
	}
	frac := float64(counts[0]) / 2000
	if frac < 0.62 || frac > 0.78 {
		t.Fatalf("sample frequency %.3f for p=0.7", frac)
	}
}

func TestHierarchicalGroupCount(t *testing.T) {
	m := NewHierarchical(0, 8, 1)
	if m.Groups != 25 {
		t.Fatalf("default groups %d, want 25 (paper)", m.Groups)
	}
}

// TestModelIsPlacer pins that every baseline serves as the partitioning
// stage of the framework as it is (Coarsen+Graph-enc-dec).
func TestModelIsPlacer(t *testing.T) {
	ds, c := smallData(t, 1)
	var p placer.Placer = NewGDP(8, 9)
	if p.Name() != "gdp" {
		t.Fatal("placer name")
	}
	if err := p.Place(ds.Test[0], c).Validate(ds.Test[0]); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceOnCoarseCyclicGraph(t *testing.T) {
	// Coarse graphs can contain cycles; sequential decoding must not hang
	// or panic.
	g := stream.NewGraph(100)
	for i := 0; i < 4; i++ {
		g.AddNode(stream.Node{IPT: 10, Payload: 10})
	}
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 0)
	g.AddEdge(2, 3, 0)
	g.Edges = append(g.Edges, stream.Edge{Src: 3, Dst: 1, Payload: 5}) // cycle
	load := []float64{100, 100, 100, 100}
	traffic := []float64{10, 10, 10, 5}
	g.SetDemandOverrides(load, traffic)
	c := sim.DefaultCluster(2, 100)
	m := NewGraphEncDec(4, 8, 11)
	p := m.Place(g, c)
	if len(p.Assign) != 4 {
		t.Fatal("incomplete placement on cyclic graph")
	}
}

// checkLogProbMatchesSampling samples one action of m on a small graph
// and requires the log-probability LogProb records for it to equal, by
// Float64bits, the one recorded when it was sampled: for the action
// itself, which must reuse its sampling draw (LogProb then adds only the
// weighting node to the tape), and for an equal copy, drawn
// teacher-forced.
func checkLogProbMatchesSampling(t *testing.T, m learned) {
	t.Helper()
	ds, c := smallData(t, 1)
	g := ds.Train[0]
	b := nn.NewBinder(autodiff.NewTape())
	d := m.Forward(b, g, c)
	a := d.Sample(randv2.New(randv2.NewPCG(5, 6)))
	sampled := -d.(*drawDist).lps[0].Value.Data[0]

	before := b.Tape.Len()
	if got := d.LogProb(a, 1).Value.Data[0]; math.Float64bits(got) != math.Float64bits(sampled) {
		t.Fatalf("%s: sampled action's loss log-prob %v, recorded at sampling %v", m.Name(), got, sampled)
	}
	if n := b.Tape.Len() - before; n != 1 {
		t.Fatalf("%s: LogProb of a sampled action added %d tape nodes, want 1 (reuse its draw)", m.Name(), n)
	}
	forced := d.LogProb(append([]int(nil), a...), 1).Value.Data[0]
	if math.Float64bits(forced) != math.Float64bits(sampled) {
		t.Fatalf("%s: teacher-forced log-prob %v, recorded at sampling %v", m.Name(), forced, sampled)
	}
}

func TestGraphEncDecLogProbMatchesSampling(t *testing.T) {
	checkLogProbMatchesSampling(t, NewGraphEncDec(8, 16, 1))
}

func TestGDPLogProbMatchesSampling(t *testing.T) {
	checkLogProbMatchesSampling(t, NewGDP(8, 2))
}

func TestHierarchicalLogProbMatchesSampling(t *testing.T) {
	checkLogProbMatchesSampling(t, NewHierarchical(10, 16, 3))
}
