package serve

import (
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/sim"
	"repro/internal/stream"
)

// hubFanGraph builds hubFanSpec(n) as the handler would.
func hubFanGraph(t *testing.T, n int) *stream.Graph {
	t.Helper()
	gs := hubFanSpec(n)
	g, err := gs.BuildGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestFingerprintDigestsPinned pins the digests of a Medium request and
// of a hub fan at the operator cap, so a change to how the canonical
// encoding reaches SHA-256 cannot move a cache key.
func TestFingerprintDigestsPinned(t *testing.T) {
	medium := gen.Medium()
	for _, tc := range []struct {
		name string
		g    *stream.Graph
		want string
	}{
		{"medium", gen.GenerateSet(medium.Config, 1, medium.Seed)[0], "811fccb63197ea2b352474988e0bc593722a5f5df482dc8daf358b7e53320b05"},
		{"hub fan", hubFanGraph(t, maxRequestNodes), "961e83277d79129f8219b6bbc5eac2743e44067e4aedd4de54d9452b71725d02"},
	} {
		fp := FingerprintRequest(tc.g, medium.Cluster)
		if got := hex.EncodeToString(fp[:]); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintPoolBounded checks that hashing a hub fan at the
// operator cap, a 450 KB encoding, leaves no pooled buffer larger than
// fpBufSize behind.
func TestFingerprintPoolBounded(t *testing.T) {
	// One P: the buffer FingerprintRequest puts back is the next one
	// Get returns.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	FingerprintRequest(hubFanGraph(t, maxRequestNodes), sim.DefaultCluster(10, 1000))
	e := fpBufPool.Get().(*fpEncoder)
	defer fpBufPool.Put(e)
	if cap(e.b) > fpBufSize {
		t.Fatalf("pooled fingerprint buffer holds %d bytes, want at most %d", cap(e.b), fpBufSize)
	}
}
