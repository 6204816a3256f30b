package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/placer"
	"repro/internal/realloc"
	"repro/internal/sim"
)

// goldenHash accumulates integers and float bits into one SHA-256.
type goldenHash struct{ hash.Hash }

func (h goldenHash) ints(xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func (h goldenHash) float(x float64) { h.ints(int(math.Float64bits(x))) }

func (h goldenHash) alloc(a Allocation) {
	h.ints(a.Placement.Devices, a.Candidate, a.Coarse.NumSuper)
	h.ints(a.Placement.Assign...)
	h.ints(a.Coarse.Super...)
	h.float(a.Reward)
}

// TestPlacementGolden pins the outputs of every target-sized collapse
// walk: the rank sweep behind Allocate on Large graphs, the level walks
// of AllocateMultilevel on a layered graph two levels above the leaf,
// CoarsenToRanked on scores full of ties, CoarsenOnly, and the region
// re-collapses of a realloc.Loop replaying a drift timeline on Small
// graphs. Each placement, coarse map, reward bit and loop action goes
// into one hash.
func TestPlacementGolden(t *testing.T) {
	const want = "32905ee4cf47e72e4852f091d7599113e8ea675cdecb2c600f3c06b7d7b31450"
	h := goldenHash{sha256.New()}
	model := New(DefaultConfig())
	pipe := &Pipeline{Model: model, Placer: placer.Metis{Seed: 1}}

	large := gen.Large()
	for _, g := range gen.GenerateSet(large.Config, 3, 1) {
		h.alloc(pipe.Allocate(g, large.Cluster))
		h.alloc(model.CoarsenOnly(g, large.Cluster))
	}

	huge := gen.Huge()
	cfg := huge.Config
	cfg.MinNodes, cfg.MaxNodes = 5_000, 5_000
	for _, g := range gen.GenerateSet(cfg, 1, 1) {
		h.alloc(pipe.AllocateMultilevel(g, huge.Cluster, DefaultMultilevelConfig()))
	}

	rng := rand.New(rand.NewSource(7))
	for _, g := range gen.GenerateSet(gen.Medium().Config, 3, 1) {
		score := make([]float64, g.NumEdges())
		for i := range score {
			score[i] = float64(rng.Intn(4)) / 4
		}
		n := g.NumNodes()
		for _, target := range []int{n + 1, n, n - 1, n / 2, n / 5, 10, 1, 0} {
			for ei, d := range CoarsenToRanked(g, target, score) {
				if d {
					h.ints(ei)
				}
			}
			h.ints(-1)
		}
	}

	small := gen.Small()
	timeline := []sim.DriftState{
		sim.NominalDrift(5),
		{RateFactor: 1.8, BandwidthFactor: 1},
		{RateFactor: 1.8, BandwidthFactor: 1, Available: []bool{true, false, true, true, true}},
		{RateFactor: 1, BandwidthFactor: 0.5, Available: []bool{true, false, true, false, true}},
		{RateFactor: 2.5, BandwidthFactor: 0.7},
		sim.NominalDrift(5),
	}
	for _, g := range gen.GenerateSet(small.Config, 6, 1) {
		l, err := realloc.New(g, small.Cluster, model, pipe.Allocate(g, small.Cluster).Placement, realloc.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range timeline {
			a, err := l.Step(context.Background(), st)
			if err != nil {
				t.Fatal(err)
			}
			flags := 0
			for i, b := range []bool{a.Triggered, a.Replanned, a.Degraded} {
				if b {
					flags |= 1 << i
				}
			}
			h.ints(flags, a.Escalation, a.Moved)
			h.float(a.MoveCost)
			h.float(a.Relative)
			h.ints(l.Placement().Assign...)
		}
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("placements changed: sha256 %s, want %s", got, want)
	}
}
