// fingerprint.go canonicalizes a (graph, cluster) allocation request into
// a fixed-size cache key. The placement cache must never serve a placement
// computed for a different request, so the fingerprint covers every field
// the forward pass and the simulator read: the source rate, each node's
// IPT/payload/selectivity/state, each edge's endpoints and payload, and
// the full cluster description. Node names are deliberately excluded —
// they are labels, not features, and two graphs differing only in names
// must share an entry. The encoding is unambiguous (fixed-width fields,
// length prefixes), so equal fingerprint *inputs* — not merely colliding
// hashes — are the only way to share a SHA-256 key; at 256 bits an
// accidental collision is out of scope by construction.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"repro/internal/sim"
	"repro/internal/stream"
)

// Fingerprint is the canonical identity of one allocation request.
type Fingerprint [sha256.Size]byte

// fpBufPool recycles encode buffers so a steady-state fingerprint costs
// no allocation.
var fpBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

// FingerprintRequest hashes the canonical encoding of (g, c).
func FingerprintRequest(g *stream.Graph, c sim.Cluster) Fingerprint {
	bp := fpBufPool.Get().(*[]byte)
	b := (*bp)[:0]

	b = appendF64(b, g.SourceRate)
	b = appendU64(b, uint64(len(g.Nodes)))
	for i := range g.Nodes {
		n := &g.Nodes[i]
		b = appendF64(b, n.IPT)
		b = appendF64(b, n.Payload)
		b = appendF64(b, n.Selectivity)
		b = appendF64(b, n.State)
	}
	b = appendU64(b, uint64(len(g.Edges)))
	for i := range g.Edges {
		e := &g.Edges[i]
		b = appendU64(b, uint64(e.Src))
		b = appendU64(b, uint64(e.Dst))
		b = appendF64(b, e.Payload)
	}

	b = appendU64(b, uint64(c.Devices))
	b = appendF64(b, c.MIPS)
	b = appendF64(b, c.Bandwidth)
	b = appendU64(b, uint64(c.Links))
	b = appendU64(b, uint64(len(c.DeviceMIPS)))
	for _, m := range c.DeviceMIPS {
		b = appendF64(b, m)
	}

	fp := sha256.Sum256(b)
	*bp = b
	fpBufPool.Put(bp)
	return fp
}
