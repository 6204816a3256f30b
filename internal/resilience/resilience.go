// Package resilience hardens the repository's long-running training and
// evaluation loops against the failures that otherwise discard hours of
// simulator-scored REINFORCE work: a panic in one worker goroutine, a
// transient error that a retry would absorb. It wraps the
// internal/parallel fan-out helpers with panic isolation, provides
// retry-with-backoff, and is dependency-free like the packages it
// protects.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/parallel"
)

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

// ForEach runs fn(i) for i in [0, n) on the parallel worker pool,
// recovering panics so one crashing worker cannot take down the process or
// lose its siblings' results: every index is attempted regardless of other
// indices' failures. The returned error joins every panic and error in
// index order (nil when all succeeded).
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	parallel.ForEach(n, workers, func(i int) {
		errs[i] = protect(i, func() error { return fn(i) })
	})
	return errors.Join(errs...)
}

// ForEachWorker is ForEach with a stable worker id: calls sharing a
// worker id run sequentially on one goroutine (see
// parallel.ForEachWorker), so fn may drive per-worker state such as a
// model replica. Panics are isolated per index exactly like ForEach.
func ForEachWorker(n, workers int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	parallel.ForEachWorker(n, workers, func(w, i int) {
		errs[i] = protect(i, func() error { return fn(w, i) })
	})
	return errors.Join(errs...)
}

// Map applies fn to each index in parallel with panic isolation and
// collects the results in order. Slots whose fn panicked or errored hold
// the zero value; the joined error reports all of them.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}

// protect invokes fn converting a panic into a *PanicError.
func protect(i int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// RetryConfig controls Retry.
type RetryConfig struct {
	// Attempts is the maximum number of calls (min 1).
	Attempts int
	// BaseDelay is the delay after the first failure; each subsequent
	// delay doubles up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps every delay, jitter included (0 = no cap).
	MaxDelay time.Duration
	// Jitter in [0, 1] scales each delay by a uniform factor in
	// [1, 1+Jitter], decorrelating retries across workers. Jitter only
	// ever lengthens a delay: attempt n sleeps within
	// [BaseDelay·2ⁿ, BaseDelay·(1+Jitter)·2ⁿ], capped at MaxDelay, so
	// the configured base remains a hard lower bound on backoff.
	Jitter float64
	// sleep overrides the context-aware backoff sleep in tests.
	sleep func(time.Duration)
}

var jitterMu sync.Mutex
var jitterRNG = rand.New(rand.NewSource(1))

func jitterFactor(j float64) float64 {
	if j <= 0 {
		return 1
	}
	jitterMu.Lock()
	u := jitterRNG.Float64()
	jitterMu.Unlock()
	return 1 + j*u
}

// sleepCtx sleeps for d or until ctx is done, whichever comes first, so
// a cancelled caller is not held hostage by a long backoff.
func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// Retry calls op until it succeeds, Attempts are exhausted, or ctx is
// done, sleeping an exponentially growing, jittered delay between calls.
// Panics inside op are recovered and treated as failures. The final error
// wraps the last failure (or the context error when cancelled).
func Retry(ctx context.Context, cfg RetryConfig, op func() error) error {
	attempts := cfg.Attempts
	if attempts < 1 {
		attempts = 1
	}
	sleep := cfg.sleep
	if sleep == nil {
		sleep = func(d time.Duration) { sleepCtx(ctx, d) }
	}
	delay := cfg.BaseDelay
	var last error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("resilience: retry cancelled after %d attempts: %w", a, err)
		}
		last = protect(a, op)
		if last == nil {
			return nil
		}
		if a+1 < attempts && delay > 0 {
			d := time.Duration(float64(delay) * jitterFactor(cfg.Jitter))
			if cfg.MaxDelay > 0 && d > cfg.MaxDelay {
				d = cfg.MaxDelay
			}
			sleep(d)
			delay *= 2
			if cfg.MaxDelay > 0 && delay > cfg.MaxDelay {
				delay = cfg.MaxDelay
			}
		}
	}
	return fmt.Errorf("resilience: %d attempts failed: %w", attempts, last)
}
