package gen

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestDriftEventsDeterministicAndValid(t *testing.T) {
	cfg := DefaultDriftConfig(16)
	a := DriftEvents(cfg, 5, rand.New(rand.NewSource(7)))
	b := DriftEvents(cfg, 5, rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must produce the same scenario")
	}
	if len(a) == 0 {
		t.Fatal("EnsureDrift must guarantee at least one event")
	}
	// BuildTimeline validates the events before expanding them.
	if _, err := sim.BuildTimeline(5, cfg.Ticks, a); err != nil {
		t.Fatalf("generated events invalid: %v", err)
	}
}

func TestDriftEventsRespectMaxLost(t *testing.T) {
	cfg := DefaultDriftConfig(64)
	cfg.PLoss = 1 // try to lose a device every tick
	cfg.MaxLost = 1
	events := DriftEvents(cfg, 4, rand.New(rand.NewSource(3)))
	tl, err := sim.BuildTimeline(4, cfg.Ticks, events)
	if err != nil {
		t.Fatal(err)
	}
	for tick, st := range tl {
		lost := 0
		for d := 0; d < 4; d++ {
			if !st.Up(d) {
				lost++
			}
		}
		if lost > cfg.MaxLost {
			t.Fatalf("tick %d: %d devices lost, cap %d", tick, lost, cfg.MaxLost)
		}
	}
}

func TestDriftEventSetIndependentOfScheduling(t *testing.T) {
	cfg := DefaultDriftConfig(12)
	a := DriftEventSet(cfg, 5, 8, 99)
	b := DriftEventSet(cfg, 5, 8, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("DriftEventSet must be deterministic")
	}
	c := DriftEventSet(cfg, 5, 8, 100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestGeneratedGraphsHaveOperatorState(t *testing.T) {
	s := Small()
	ds := s.Generate()
	stateful, total := 0, 0
	for _, g := range ds.Train {
		for _, n := range g.Nodes {
			total++
			if n.State < 0 {
				t.Fatal("negative operator state")
			}
			if n.State > 0 {
				stateful++
			}
		}
	}
	if stateful == 0 {
		t.Fatal("no stateful operators generated across the whole dataset")
	}
	if stateful == total {
		t.Fatal("every operator stateful; sources at least should be stateless")
	}
}
