// rewardcache.go keys the trainer's reward memo. The REINFORCE loop
// repeatedly scores (graph, decision) pairs through the full coarsen →
// partition → simulate pipeline; because every stage is deterministic,
// identical pairs always produce the identical reward, so re-simulating a
// decision the policy has already visited (duplicate on-policy samples
// once probabilities saturate, Metis-guided seeds resampled by a confident
// policy) is pure waste. rl.Trainer memoizes rewards in the generic
// bounded LRU of internal/cache under DecisionKey. The key is exact — the
// graph id plus the packed decision bitset, not a hash — so a hit can
// never alias a different decision and the training trajectory stays
// bit-identical with memoization enabled.
package core

import "encoding/binary"

// DecisionKey packs (graph id, decision bitset) into an exact cache key:
// the graph id and edge count as fixed-width prefixes, then one bit per
// edge. Two distinct decisions can never collide.
func DecisionKey(graph int, d Decision) string {
	buf := make([]byte, 16+(len(d)+7)/8)
	binary.LittleEndian.PutUint64(buf[0:8], uint64(graph))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(d)))
	for i, bit := range d {
		if bit {
			buf[16+i/8] |= 1 << (i % 8)
		}
	}
	return string(buf)
}
