// Package resilience hardens the repository's long-running training and
// evaluation loops against the failure that otherwise discards hours of
// simulator-scored REINFORCE work: a panic in one worker goroutine. It
// wraps the internal/parallel fan-out helpers with panic isolation and is
// dependency-free like the packages it protects.
package resilience

import (
	"errors"
	"fmt"
	"runtime/debug"

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
