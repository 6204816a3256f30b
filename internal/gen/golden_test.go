package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestGenerateGolden pins every feature bit the generator draws: a few
// graphs per preset, the layered Huge and Extreme presets at a reduced
// node range. A change to the substitution walk, the feature draws, the
// rate inversion or either rescaling moves the hash, and with it every
// dataset the experiments and benchmarks generate.
func TestGenerateGolden(t *testing.T) {
	const want = "5099ae5f9388e253604e5f6b86d2d477e17520ad9e82cb3d29a1de8d23b5e75c"
	h := sha256.New()
	put := func(xs ...uint64) {
		var b [8]byte
		for _, x := range xs {
			binary.LittleEndian.PutUint64(b[:], x)
			h.Write(b[:])
		}
	}
	f := math.Float64bits
	for _, s := range AllSettings() {
		cfg := s.Config
		if cfg.Layered {
			cfg.MinNodes, cfg.MaxNodes = 3_000, 4_000
		}
		for _, g := range GenerateSet(cfg, 3, s.Seed) {
			put(f(g.SourceRate), uint64(g.NumNodes()), uint64(g.NumEdges()))
			for _, n := range g.Nodes {
				put(f(n.IPT), f(n.Payload), f(n.Selectivity), f(n.State))
			}
			for _, e := range g.Edges {
				put(uint64(e.Src), uint64(e.Dst), f(e.Payload))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("generated graphs changed: sha256 %s, want %s", got, want)
	}
}
