// trace.go carries the request-scoped trace identity. The HTTP layer
// mints (or adopts) an X-Trace-Id per request and threads it through
// context.Context into the service, so the child spans one request
// emits — decode, cache-probe, queue-wait, forward — can be grepped out
// of the Chrome trace by id.
package serve

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sync/atomic"
	"time"
)

// traceIDKey carries the request trace id in a context.
type traceIDKey struct{}

// WithTraceID returns a context carrying the trace id.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the context's trace id ("" when absent).
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// traceSeq and traceHi make minted ids unique: a per-process random
// prefix (so ids from restarted daemons don't collide in aggregated
// logs) plus a monotone counter.
var (
	traceSeq atomic.Uint64
	traceHi  = func() uint64 {
		// Seed from the wall clock; ids are identities, not secrets.
		return rand.New(rand.NewSource(time.Now().UnixNano())).Uint64()
	}()
)

// MintTraceID returns a fresh 24-hex-character trace id.
func MintTraceID() string {
	var b [12]byte
	binary.BigEndian.PutUint64(b[:8], traceHi)
	binary.BigEndian.PutUint32(b[8:], uint32(traceSeq.Add(1)))
	return hex.EncodeToString(b[:])
}

// validTraceID bounds what the server adopts from an inbound
// X-Trace-Id header: printable, no whitespace, at most 64 bytes.
func validTraceID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' {
			return false
		}
	}
	return true
}
