package realloc

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stream"
)

// uniformScorer ranks every edge equally; collapse order then follows
// edge indices, which is enough to exercise the region machinery
// without dragging the full GNN into unit tests.
type uniformScorer struct{}

func (uniformScorer) Probs(g *stream.Graph, c sim.Cluster) []float64 {
	return make([]float64, g.NumEdges())
}

// pipelineGraph builds src -> a -> b -> sink with loads such that two
// devices comfortably sustain the rate but one device alone cannot.
func pipelineGraph(c sim.Cluster) *stream.Graph {
	g := stream.NewGraph(1000)
	// Four nodes totalling ~1.6× one device's capacity: any single
	// device saturates, a 2-device split sustains.
	ipt := 1.6 * c.CapacityOf(0) / (4 * 1000)
	for i := 0; i < 4; i++ {
		g.AddNode(stream.Node{IPT: ipt, Payload: 10, Selectivity: 1})
	}
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 3, 10)
	return g
}

func TestLoopRecoversFromDeviceLoss(t *testing.T) {
	c := sim.DefaultCluster(3, 1000)
	g := pipelineGraph(c)
	initial := &stream.Placement{Assign: []int{0, 0, 1, 1}, Devices: 3}
	l, err := New(g, c, uniformScorer{}, initial, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Nominal tick: no trigger.
	act, err := l.Step(ctx, sim.NominalDrift(3))
	if err != nil {
		t.Fatal(err)
	}
	if act.Triggered || act.Replanned {
		t.Fatalf("nominal tick should be quiet: %+v", act)
	}
	healthy := act.Relative

	// Device 1 dies: half the operators are stranded.
	st := sim.NominalDrift(3)
	st.Available[1] = false
	act, err = l.Step(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if !act.Triggered {
		t.Fatal("stranded operators must trigger the detector")
	}
	if !act.Replanned {
		t.Fatalf("a spare device exists; the loop must migrate: %+v", act)
	}
	if act.Relative < 0.9*healthy {
		t.Errorf("post-migration relative %v should recover close to healthy %v", act.Relative, healthy)
	}
	for v, d := range l.Placement().Assign {
		if d == 1 {
			t.Errorf("operator %d still on the lost device", v)
		}
	}
	if act.MoveCost <= 0 || act.Moved == 0 {
		t.Errorf("a real migration must report its cost: %+v", act)
	}
}

// TestStepCancelledReturnsCtxErr pins cancellation: a tick that
// triggers a replan under a cancelled context returns the context's
// error instead of latching degraded mode.
func TestStepCancelledReturnsCtxErr(t *testing.T) {
	c := sim.DefaultCluster(3, 1000)
	g := pipelineGraph(c)
	initial := &stream.Placement{Assign: []int{0, 0, 1, 1}, Devices: 3}
	l, err := New(g, c, uniformScorer{}, initial, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st := sim.NominalDrift(3)
	st.Available[1] = false // stranded operators trigger the detector
	if _, err := l.Step(ctx, st); !errors.Is(err, context.Canceled) {
		t.Fatalf("Step under a cancelled context: %v, want context.Canceled", err)
	}
	if l.Degraded() {
		t.Fatal("a cancelled replan latched degraded mode")
	}
	if !reflect.DeepEqual(l.Placement().Assign, initial.Assign) {
		t.Fatalf("a cancelled replan moved operators: %v", l.Placement().Assign)
	}
}

func TestLoopPrefersCheaperEquivalentMigration(t *testing.T) {
	// Two parallel two-op chains from one source; chains are equal load
	// but chain A carries megabits of operator state while chain B is
	// stateless. When their shared device dies and either chain could
	// move, the move-cost penalty must pick the placement that moves
	// less state.
	c := sim.DefaultCluster(3, 1e5)
	g := stream.NewGraph(100)
	ipt := 0.6 * c.CapacityOf(0) / 100                           // each worker op: 60% of a device
	g.AddNode(stream.Node{IPT: 0, Selectivity: 1})               // 0 source
	g.AddNode(stream.Node{IPT: ipt, Selectivity: 1, State: 5e7}) // 1 heavy worker
	g.AddNode(stream.Node{IPT: ipt, Selectivity: 1})             // 2 light worker
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	initial := &stream.Placement{Assign: []int{0, 1, 1}, Devices: 3}
	l, err := New(g, c, uniformScorer{}, initial, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := sim.NominalDrift(3)
	st.Available[1] = false
	act, err := l.Step(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if !act.Replanned {
		t.Fatalf("expected a migration: %+v", act)
	}
	a := l.Placement().Assign
	if a[1] == 1 || a[2] == 1 {
		t.Fatalf("workers still on the lost device: %v", a)
	}
	// Both workers had to leave device 1 regardless; the cheap check is
	// that the loop reports the true cost of what it moved.
	rates := g.SteadyRates()
	wantCost := MoveCost(g, rates, 1, migrationWindow) + MoveCost(g, rates, 2, migrationWindow)
	if a[0] != 0 {
		wantCost += MoveCost(g, rates, 0, migrationWindow)
	}
	if math.Abs(act.MoveCost-wantCost) > 1e-9*wantCost {
		t.Errorf("reported move cost %v, want %v", act.MoveCost, wantCost)
	}
	// And the heavy operator's cost dwarfs the light one's.
	if MoveCost(g, rates, 1, 1) < 10*MoveCost(g, rates, 2, 1) {
		t.Errorf("state term not dominating: heavy=%v light=%v",
			MoveCost(g, rates, 1, 1), MoveCost(g, rates, 2, 1))
	}
}

func TestLoopDegradesGracefullyAndRecovers(t *testing.T) {
	// One device, so losing it leaves nowhere to migrate. The graph is
	// light enough that the single device sustains it when up, so the
	// only trigger is the loss itself.
	c := sim.DefaultCluster(1, 1000)
	g := stream.NewGraph(1000)
	ipt := 0.5 * c.CapacityOf(0) / (4 * 1000)
	for i := 0; i < 4; i++ {
		g.AddNode(stream.Node{IPT: ipt, Payload: 10, Selectivity: 1})
	}
	g.AddEdge(0, 1, 10)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 3, 10)
	initial := stream.NewPlacement(4, 1)
	l, err := New(g, c, uniformScorer{}, initial, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	st := sim.NominalDrift(1)
	st.Available[0] = false
	act, err := l.Step(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if !act.Degraded || act.Replanned {
		t.Fatalf("no feasible migration: expected degraded hold, got %+v", act)
	}
	if !l.Degraded() || obsDegraded.Value() != 1 {
		t.Error("degraded gauge must be raised")
	}
	if !reflect.DeepEqual(l.Placement().Assign, initial.Assign) {
		t.Error("stale placement must be kept under degradation")
	}
	// Same dead state again: the loop holds without re-searching.
	act, err = l.Step(ctx, st)
	if err != nil {
		t.Fatal(err)
	}
	if !act.Degraded {
		t.Fatalf("unchanged dead state should keep the degraded hold: %+v", act)
	}
	// Device returns: the loop recovers and the gauge clears.
	act, err = l.Step(ctx, sim.NominalDrift(1))
	if err != nil {
		t.Fatal(err)
	}
	if act.Degraded || l.Degraded() || obsDegraded.Value() != 0 {
		t.Errorf("recovery must clear the degraded latch: %+v gauge=%v", act, obsDegraded.Value())
	}
}

func TestLoopSurgeTriggersWithoutStranding(t *testing.T) {
	// A 2× surge overloads the single loaded device while a second
	// device idles: the pressure detector (not stranding) must fire and
	// the loop must spread the load.
	c := sim.DefaultCluster(2, 1e5)
	g := pipelineGraph(c)
	initial := stream.NewPlacement(4, 2) // everything on device 0
	l, err := New(g, c, uniformScorer{}, initial, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := sim.DriftState{RateFactor: 2, BandwidthFactor: 1}
	act, err := l.Step(context.Background(), st)
	if err != nil {
		t.Fatal(err)
	}
	if !act.Triggered {
		t.Fatal("overload pressure must trigger the detector")
	}
	if !act.Replanned {
		t.Fatalf("an idle device exists; the loop must spread load: %+v", act)
	}
	if l.Placement().UsedDevices() < 2 {
		t.Errorf("surge replan should use both devices: %v", l.Placement().Assign)
	}
}

func TestLoopTrajectoryDeterministic(t *testing.T) {
	c := sim.DefaultCluster(3, 1000)
	timeline := []sim.DriftState{
		sim.NominalDrift(3),
		{RateFactor: 1.8, BandwidthFactor: 1},
		{RateFactor: 1.8, BandwidthFactor: 1, Available: []bool{true, false, true}},
		{RateFactor: 1, BandwidthFactor: 0.5, Available: []bool{true, false, true}},
		sim.NominalDrift(3),
	}
	run := func() ([]Action, []int) {
		g := pipelineGraph(c)
		initial := &stream.Placement{Assign: []int{0, 0, 1, 1}, Devices: 3}
		l, err := New(g, c, uniformScorer{}, initial, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		var acts []Action
		for _, st := range timeline {
			a, err := l.Step(context.Background(), st)
			if err != nil {
				t.Fatal(err)
			}
			acts = append(acts, a)
		}
		return acts, append([]int(nil), l.Placement().Assign...)
	}
	acts1, p1 := run()
	acts2, p2 := run()
	if !reflect.DeepEqual(acts1, acts2) {
		t.Errorf("action trajectories differ:\n%v\n%v", acts1, acts2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Errorf("final placements differ: %v vs %v", p1, p2)
	}
}

func TestMoveCostAccounting(t *testing.T) {
	c := sim.DefaultCluster(2, 1000)
	g := pipelineGraph(c)
	rates := g.SteadyRates()
	total := TotalMoveCost(g, 1)
	var manual float64
	for v := 0; v < g.NumNodes(); v++ {
		manual += MoveCost(g, rates, v, 1)
	}
	if math.Abs(total-manual) > 1e-9 {
		t.Errorf("TotalMoveCost %v != summed %v", total, manual)
	}
	old := stream.NewPlacement(4, 2)
	nw := old.Clone()
	nw.Assign[2] = 1
	cost, moved := PlacementMoveCost(g, old, nw, 1)
	if moved != 1 {
		t.Errorf("moved = %d, want 1", moved)
	}
	if want := MoveCost(g, rates, 2, 1); math.Abs(cost-want) > 1e-9 {
		t.Errorf("cost %v, want %v", cost, want)
	}
	if cost2, m2 := PlacementMoveCost(g, old, old, 1); cost2 != 0 || m2 != 0 {
		t.Errorf("identical placements must cost nothing: %v %d", cost2, m2)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	c := sim.DefaultCluster(2, 1000)
	g := pipelineGraph(c)
	if _, err := New(g, c, nil, stream.NewPlacement(4, 2), DefaultConfig()); err == nil {
		t.Error("nil scorer must be rejected")
	}
	bad := stream.NewPlacement(2, 2) // wrong size
	if _, err := New(g, c, uniformScorer{}, bad, DefaultConfig()); err == nil {
		t.Error("mismatched placement must be rejected")
	}
}
