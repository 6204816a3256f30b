package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// workerCounts are the pool sizes every ForEach test runs at: the
// default, the single-worker path, a small pool and one wider than n.
var workerCounts = []int{0, 1, 3, 64}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range workerCounts {
		n := 257
		seen := make([]int32, n)
		err := ForEach(n, workers, func(_, i int) error {
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachWorkerCoversAllIndicesWithValidIDs(t *testing.T) {
	for _, workers := range workerCounts {
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
		err := ForEach(n, workers, func(w, i int) error {
			if w < 0 || w >= bound {
				atomic.AddInt32(&badID, 1)
			}
			atomic.AddInt32(&seen[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
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

func TestForEachZeroAndNegative(t *testing.T) {
	calls := 0
	for _, n := range []int{0, -3} {
		if err := ForEach(n, 4, func(int, int) error { calls++; return nil }); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if calls != 0 {
		t.Fatalf("expected no calls, got %d", calls)
	}
}

func TestForEachSerializesPerWorker(t *testing.T) {
	// Per-worker state must never be touched concurrently: each call
	// marks its worker id busy, yields, and clears the mark, so a second
	// call with the same id arriving meanwhile finds it set. The
	// non-atomic per-worker counts must also add up, and the race
	// detector additionally proves the absence of concurrent access.
	const n = 500
	for _, workers := range workerCounts {
		size := max(workers, DefaultWorkers())
		busy := make([]atomic.Bool, size)
		counts := make([]int, size)
		var overlaps atomic.Int32
		ForEach(n, workers, func(w, i int) error {
			if !busy[w].CompareAndSwap(false, true) {
				overlaps.Add(1)
			}
			counts[w]++
			runtime.Gosched()
			busy[w].Store(false)
			return nil
		})
		if k := overlaps.Load(); k != 0 {
			t.Fatalf("workers=%d: %d calls overlapped another call with the same worker id", workers, k)
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		if total != n {
			t.Fatalf("workers=%d: per-worker counts sum to %d, want %d", workers, total, n)
		}
	}
}

func TestMapOrdering(t *testing.T) {
	for _, workers := range workerCounts {
		out := Map(100, workers, func(i int) int { return i * i })
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestForEachIsolatesPanicKeepsSiblingResults(t *testing.T) {
	for _, workers := range workerCounts {
		const n = 16
		results := make([]int, n)
		err := ForEach(n, workers, func(_, i int) error {
			if i == 5 {
				panic("worker exploded")
			}
			results[i] = i * i
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: expected *PanicError, got %T: %v", workers, err, err)
		}
		if pe.Index != 5 || pe.Value != "worker exploded" {
			t.Errorf("workers=%d: wrong panic metadata: %+v", workers, pe)
		}
		if !bytes.Contains(pe.Stack, []byte("parallel_test.go")) {
			t.Errorf("workers=%d: stack does not reach the panicking call:\n%s", workers, pe.Stack)
		}
		for i := 0; i < n; i++ {
			if i != 5 && results[i] != i*i {
				t.Errorf("workers=%d: sibling result %d lost: got %d", workers, i, results[i])
			}
		}
	}
}

func TestForEachIsolatesPanicsAndKeepsIDsStable(t *testing.T) {
	const n, workers = 64, 4
	var covered, badID int32
	err := ForEach(n, workers, func(w, i int) error {
		if w < 0 || w >= workers {
			atomic.AddInt32(&badID, 1)
		}
		if i%9 == 0 {
			panic("replica exploded")
		}
		atomic.AddInt32(&covered, 1)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("expected a PanicError for index 0 first, got %v", err)
	}
	if badID != 0 {
		t.Fatalf("%d out-of-range worker ids after panics", badID)
	}
	if want := int32(n - (n+8)/9); covered != want {
		t.Fatalf("covered %d sibling entries, want %d", covered, want)
	}
}

func TestForEachJoinsMultipleFailures(t *testing.T) {
	for _, workers := range workerCounts {
		err := ForEach(8, workers, func(_, i int) error {
			switch i {
			case 2:
				return fmt.Errorf("plain failure %d", i)
			case 6:
				panic(i)
			case 7:
				return fmt.Errorf("plain failure %d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: expected error", workers)
		}
		msg := err.Error()
		a := strings.Index(msg, "plain failure 2")
		b := strings.Index(msg, "task 6 panicked: 6")
		c := strings.Index(msg, "plain failure 7")
		if a < 0 || b < a || c < b {
			t.Errorf("workers=%d: joined error out of index order or missing a failure: %v", workers, msg)
		}
	}
}

// TestMapRaisesLowestPanicAfterEveryIndex checks Map's contract: every
// index runs, sibling panics included, and only then is the lowest-index
// panic re-raised on the caller's goroutine.
func TestMapRaisesLowestPanicAfterEveryIndex(t *testing.T) {
	for _, workers := range workerCounts {
		const n = 40
		var ran atomic.Int32
		var raised any
		func() {
			defer func() { raised = recover() }()
			Map(n, workers, func(i int) int {
				ran.Add(1)
				if i == 3 || i == 30 {
					panic(fmt.Sprint("boom ", i))
				}
				return i
			})
		}()
		if pe, ok := raised.(*PanicError); !ok || pe.Index != 3 || pe.Value != "boom 3" {
			t.Fatalf("workers=%d: recovered %v, want the index-3 *PanicError", workers, raised)
		}
		if k := ran.Load(); k != n {
			t.Fatalf("workers=%d: %d of %d indices ran before the re-raise", workers, k, n)
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
