// Package parallel provides small, dependency-free worker-pool utilities
// used throughout the repository to fan out per-graph work: dataset
// generation, batch evaluation of allocations, and REINFORCE sample scoring.
//
// All helpers are deterministic in their outputs (each index computes its
// own result slot) even though execution order is not.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default degree of parallelism: GOMAXPROCS.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for i in [0, n) on up to workers goroutines.
// workers <= 0 selects DefaultWorkers(). It blocks until all calls return.
func ForEach(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForEachWorker is ForEach with a stable worker id passed to fn: all
// calls carrying the same worker id run sequentially on one goroutine, so
// fn may use per-worker state (a model replica, a scratch tape, a reusable
// buffer) without locking. Worker ids are dense in [0, workers). Like
// ForEach, result placement is by index, so outputs are deterministic even
// though the (worker, index) pairing is not.
func ForEachWorker(n, workers int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(worker, i)
			}
		}(w)
	}
	wg.Wait()
}

// Map applies fn to each index and collects the results in order.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(n, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// chunkJob is one RunChunks invocation: workers and the caller pull chunk
// indices from next and compute the chunk bounds arithmetically, so no
// range slice is materialized.
type chunkJob struct {
	fn    func(lo, hi int)
	parts int
	base  int
	rem   int
	next  atomic.Int32
	wg    sync.WaitGroup
}

// bounds returns chunk p of the job's [0, n) split — identical to
// ChunkRanges(n, parts)[p].
func (j *chunkJob) bounds(p int) (int, int) {
	lo := p * j.base
	if p < j.rem {
		lo += p
	} else {
		lo += j.rem
	}
	hi := lo + j.base
	if p < j.rem {
		hi++
	}
	return lo, hi
}

func (j *chunkJob) run() {
	for {
		p := int(j.next.Add(1)) - 1
		if p >= j.parts {
			return
		}
		lo, hi := j.bounds(p)
		j.fn(lo, hi)
	}
}

var (
	chunkOnce    sync.Once
	chunkCh      chan *chunkJob
	chunkWorkers int
	chunkPool    = sync.Pool{New: func() any { return new(chunkJob) }}
)

// startChunkWorkers spins up the persistent helper goroutines. They spend
// their idle life parked on an unbuffered channel receive, so an idle pool
// costs nothing and a RunChunks hand-off wakes exactly the workers it
// claims.
func startChunkWorkers() {
	chunkWorkers = runtime.GOMAXPROCS(0) - 1
	if chunkWorkers < 0 {
		chunkWorkers = 0
	}
	chunkCh = make(chan *chunkJob)
	for w := 0; w < chunkWorkers; w++ {
		go func() {
			for j := range chunkCh {
				j.run()
				j.wg.Done()
			}
		}()
	}
}

// RunChunks invokes fn(lo, hi) over a split of [0, n) into at most parts
// near-equal contiguous ranges (the same bounds ChunkRanges produces), on
// a persistent worker pool. Unlike ChunkRanges+ForEach, the steady-state
// dispatch performs no allocation beyond fn itself: no range slice, no
// per-call goroutines. The caller always participates, and helpers are
// claimed only via non-blocking hand-off to idle pool workers, so a busy
// pool degrades to the caller doing more chunks — never to blocking on
// unrelated work. Chunk bounds are independent of who executes them, so
// results writable by disjoint ranges stay deterministic.
func RunChunks(n, parts int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if parts <= 0 {
		parts = DefaultWorkers()
	}
	if parts > n {
		parts = n
	}
	if parts == 1 {
		fn(0, n)
		return
	}
	chunkOnce.Do(startChunkWorkers)
	j := chunkPool.Get().(*chunkJob)
	j.fn, j.parts = fn, parts
	j.base, j.rem = n/parts, n%parts
	j.next.Store(0)
	helpers := parts - 1
	if helpers > chunkWorkers {
		helpers = chunkWorkers
	}
claim:
	for i := 0; i < helpers; i++ {
		j.wg.Add(1)
		select {
		case chunkCh <- j:
		default:
			j.wg.Done()
			break claim
		}
	}
	j.run()
	j.wg.Wait()
	j.fn = nil
	chunkPool.Put(j)
}

// ChunkRanges splits [0, n) into at most parts contiguous half-open ranges
// of near-equal size. Useful for row-blocked matrix kernels.
func ChunkRanges(n, parts int) [][2]int {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	base := n / parts
	rem := n % parts
	start := 0
	for p := 0; p < parts; p++ {
		size := base
		if p < rem {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}
