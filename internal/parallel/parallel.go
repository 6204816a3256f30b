// Package parallel provides small, dependency-free worker-pool utilities
// used throughout the repository to fan out per-graph work: dataset
// generation, batch evaluation of allocations, and REINFORCE sample scoring.
//
// All helpers are deterministic in their outputs (each index computes its
// own result slot) even though execution order is not. A panic in one
// index is recovered on its worker, so it can neither kill the process
// from a goroutine no caller can recover nor lose its siblings' results.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the default degree of parallelism: GOMAXPROCS.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic recovered inside a worker, carrying the payload
// and the stack of the panicking goroutine.
type PanicError struct {
	// Index is the work-item index whose function panicked.
	Index int
	// Value is the value passed to panic().
	Value any
	// Stack is the stack trace captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// ForEach runs fn(worker, i) for i in [0, n) on up to workers goroutines,
// the caller's among them, and returns once every call has. workers <= 0
// selects DefaultWorkers(). Worker ids are dense in [0, min(workers, n)),
// and all calls carrying the same id run one after another on one
// goroutine, so fn may use per-worker state (a model replica, a scratch
// tape, a reusable buffer) without locking. A panicking call is
// recovered as a *PanicError, and every index runs regardless of other
// indices' failures. The returned error joins every panic and error in
// index order (nil when all succeeded).
func ForEach(n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	run := func(w int) {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = protect(w, i, fn)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() { defer wg.Done(); run(w) }()
	}
	run(0) // the caller is worker 0, and the only one when workers is 1
	wg.Wait()
	return errors.Join(errs...)
}

// protect calls fn(w, i), converting a panic into a *PanicError.
func protect(w, i int, fn func(worker, i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(w, i)
}

// Map applies fn to each index on ForEach and collects the results in
// order. Once every index has run, the lowest-index panic, if any, is
// re-raised as its *PanicError on the caller's goroutine, so a partial
// result can never masquerade as a complete one.
func Map[T any](n, workers int, fn func(i int) T) []T {
	out := make([]T, n)
	if err := ForEach(n, workers, func(_, i int) error {
		out[i] = fn(i)
		return nil
	}); err != nil {
		var pe *PanicError
		errors.As(err, &pe)
		panic(pe)
	}
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
