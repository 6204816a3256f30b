package core

import (
	"fmt"
	"testing"

	"repro/internal/cache"
)

// The reward memo is rl.Trainer's cache.LRU keyed by DecisionKey; these
// pin its eviction and Clear behaviour under those keys.
func TestRewardCacheBoundedEviction(t *testing.T) {
	c := cache.New[string, float64](4)
	for i := 0; i < 10; i++ {
		c.Put(DecisionKey(i, Decision{true}), float64(i))
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// The four most recent survive; earlier entries were evicted LRU.
	for i := 0; i < 6; i++ {
		if _, ok := c.Get(DecisionKey(i, Decision{true})); ok {
			t.Fatalf("entry %d should have been evicted", i)
		}
	}
	for i := 6; i < 10; i++ {
		if v, ok := c.Get(DecisionKey(i, Decision{true})); !ok || v != float64(i) {
			t.Fatalf("entry %d = %g, %v", i, v, ok)
		}
	}
}

// TestDecisionKeyExact verifies the key is collision-free: distinct
// (graph, decision) pairs — including decisions that differ only in
// length or only in one bit — map to distinct keys.
func TestDecisionKeyExact(t *testing.T) {
	seen := map[string]string{}
	add := func(desc, key string) {
		if prev, ok := seen[key]; ok {
			t.Fatalf("key collision: %s vs %s", prev, desc)
		}
		seen[key] = desc
	}
	for graph := 0; graph < 3; graph++ {
		for length := 0; length <= 9; length++ {
			for mask := 0; mask < 1<<length; mask++ {
				d := make(Decision, length)
				for i := range d {
					d[i] = mask&(1<<i) != 0
				}
				add(fmt.Sprintf("g%d len%d mask%d", graph, length, mask), DecisionKey(graph, d))
			}
		}
	}
}

func TestRewardCacheClearKeepsCounters(t *testing.T) {
	c := cache.New[string, float64](8)
	k := DecisionKey(0, Decision{true})
	c.Put(k, 1)
	c.Get(k)
	c.Clear()
	if c.Len() != 0 {
		t.Fatalf("Len after Clear = %d", c.Len())
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("entry survived Clear")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("counters reset by Clear: %d hits, %d misses", hits, misses)
	}
	// The cache keeps working after Clear.
	c.Put(k, 2)
	if v, ok := c.Get(k); !ok || v != 2 {
		t.Fatalf("post-Clear Get = %g, %v", v, ok)
	}
}
