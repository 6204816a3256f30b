package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 257
		seen := make([]int32, n)
		ForEach(n, workers, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	calls := 0
	ForEach(0, 4, func(int) { calls++ })
	ForEach(-3, 4, func(int) { calls++ })
	if calls != 0 {
		t.Fatalf("expected no calls, got %d", calls)
	}
}

func TestForEachWorkerCoversAllIndicesWithValidIDs(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		n := 257
		seen := make([]int32, n)
		bound := workers
		if bound <= 0 {
			bound = DefaultWorkers()
		}
		if bound > n {
			bound = n
		}
		var badID int32
		ForEachWorker(n, workers, func(w, i int) {
			if w < 0 || w >= bound {
				atomic.AddInt32(&badID, 1)
			}
			atomic.AddInt32(&seen[i], 1)
		})
		if badID != 0 {
			t.Fatalf("workers=%d produced %d out-of-range worker ids", workers, badID)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachWorkerSerializesPerWorker(t *testing.T) {
	// Per-worker state must never be touched concurrently: bump a
	// non-atomic counter per worker id and verify the totals add up,
	// which they only can if same-id calls are sequential (the race
	// detector additionally proves the absence of concurrent access).
	const n, workers = 500, 4
	counts := make([]int, workers)
	ForEachWorker(n, workers, func(w, i int) { counts[w]++ })
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != n {
		t.Fatalf("per-worker counts sum to %d, want %d", total, n)
	}
}

func TestMapOrdering(t *testing.T) {
	out := Map(100, 8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestChunkRangesPartition(t *testing.T) {
	f := func(n, parts uint8) bool {
		chunks := ChunkRanges(int(n), int(parts))
		if n == 0 || parts == 0 {
			return chunks == nil
		}
		// Chunks must tile [0,n) exactly, in order, non-empty.
		next := 0
		for _, c := range chunks {
			if c[0] != next || c[1] <= c[0] {
				return false
			}
			next = c[1]
		}
		return next == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkRangesBalance(t *testing.T) {
	chunks := ChunkRanges(10, 3)
	if len(chunks) != 3 {
		t.Fatalf("len = %d", len(chunks))
	}
	sizes := []int{chunks[0][1] - chunks[0][0], chunks[1][1] - chunks[1][0], chunks[2][1] - chunks[2][0]}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

func TestRunChunksMatchesChunkRanges(t *testing.T) {
	for _, tc := range [][2]int{{10, 3}, {7, 7}, {100, 8}, {1, 4}, {5, 1}, {16, 16}} {
		n, parts := tc[0], tc[1]
		want := make([]int, n)
		for _, r := range ChunkRanges(n, parts) {
			for i := r[0]; i < r[1]; i++ {
				want[i]++
			}
		}
		got := make([]int32, n)
		RunChunks(n, parts, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("RunChunks(%d,%d): bad range [%d,%d)", n, parts, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&got[i], 1)
			}
		})
		for i := range want {
			if want[i] != 1 || int(got[i]) != 1 {
				t.Fatalf("RunChunks(%d,%d): index %d covered %d times (ChunkRanges %d)", n, parts, i, got[i], want[i])
			}
		}
	}
}

func TestRunChunksConcurrentCallers(t *testing.T) {
	// Many goroutines share the pool at once; each must see exactly its
	// own full coverage.
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				const n = 257
				var sum int64
				RunChunks(n, 4, func(lo, hi int) {
					var s int64
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					atomic.AddInt64(&sum, s)
				})
				if sum != n*(n-1)/2 {
					t.Errorf("sum = %d", sum)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRunChunksNested(t *testing.T) {
	// A chunk body that itself calls RunChunks must not deadlock: busy
	// workers are never waited on, the caller degrades to serial.
	var total int64
	RunChunks(8, 4, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			RunChunks(100, 4, func(l, h int) {
				atomic.AddInt64(&total, int64(h-l))
			})
		}
	})
	if total != 800 {
		t.Fatalf("total = %d", total)
	}
}
