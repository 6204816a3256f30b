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
	"hash"
	"math"
	"sync"

	"repro/internal/sim"
	"repro/internal/stream"
)

// Fingerprint is the canonical identity of one allocation request.
type Fingerprint [sha256.Size]byte

// fpBufSize bounds the encode buffer: the canonical encoding streams
// into SHA-256 a buffer-full at a time, so a request at the operator cap
// leaves no buffer of its own size in the pool.
const fpBufSize = 4096

// fpEncoder is one hash in progress and its encode buffer.
type fpEncoder struct {
	h hash.Hash
	b []byte
}

// fpBufPool recycles encoders so a steady-state fingerprint costs no
// allocation.
var fpBufPool = sync.Pool{
	New: func() any { return &fpEncoder{sha256.New(), make([]byte, 0, fpBufSize)} },
}

// room hashes and empties b unless n more bytes fit in the buffer.
func (e *fpEncoder) room(b []byte, n int) []byte {
	if len(b)+n > fpBufSize {
		e.h.Write(b)
		b = b[:0]
	}
	return b
}

// FingerprintRequest hashes the canonical encoding of (g, c).
func FingerprintRequest(g *stream.Graph, c sim.Cluster) Fingerprint {
	e := fpBufPool.Get().(*fpEncoder)
	e.h.Reset()
	le, f := binary.LittleEndian, math.Float64bits

	b := le.AppendUint64(e.b[:0], f(g.SourceRate))
	b = le.AppendUint64(b, uint64(len(g.Nodes)))
	for i := range g.Nodes {
		b = e.room(b, 32)
		n := &g.Nodes[i]
		b = le.AppendUint64(b, f(n.IPT))
		b = le.AppendUint64(b, f(n.Payload))
		b = le.AppendUint64(b, f(n.Selectivity))
		b = le.AppendUint64(b, f(n.State))
	}
	b = le.AppendUint64(e.room(b, 8), uint64(len(g.Edges)))
	for i := range g.Edges {
		b = e.room(b, 24)
		ed := &g.Edges[i]
		b = le.AppendUint64(b, uint64(ed.Src))
		b = le.AppendUint64(b, uint64(ed.Dst))
		b = le.AppendUint64(b, f(ed.Payload))
	}

	b = le.AppendUint64(e.room(b, 40), uint64(c.Devices))
	b = le.AppendUint64(b, f(c.MIPS))
	b = le.AppendUint64(b, f(c.Bandwidth))
	b = le.AppendUint64(b, uint64(c.Links))
	b = le.AppendUint64(b, uint64(len(c.DeviceMIPS)))
	for _, m := range c.DeviceMIPS {
		b = le.AppendUint64(e.room(b, 8), f(m))
	}

	e.h.Write(b)
	var fp Fingerprint
	copy(fp[:], e.h.Sum(b[:0]))
	e.b = b
	fpBufPool.Put(e)
	return fp
}
