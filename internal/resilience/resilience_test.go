package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachIsolatesPanicKeepsSiblingResults(t *testing.T) {
	const n = 16
	results := make([]int, n)
	err := ForEach(n, 4, func(i int) error {
		if i == 5 {
			panic("worker exploded")
		}
		results[i] = i * i
		return nil
	})
	if err == nil {
		t.Fatal("expected an error from the panicking worker")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("expected *PanicError, got %T: %v", err, err)
	}
	if pe.Index != 5 || pe.Value != "worker exploded" {
		t.Errorf("wrong panic metadata: %+v", pe)
	}
	if !strings.Contains(err.Error(), "resilience") && len(pe.Stack) == 0 {
		t.Error("expected a captured stack trace")
	}
	for i := 0; i < n; i++ {
		if i == 5 {
			continue
		}
		if results[i] != i*i {
			t.Errorf("sibling result %d lost: got %d", i, results[i])
		}
	}
}

func TestForEachWorkerIsolatesPanicsAndKeepsIDsStable(t *testing.T) {
	const n, workers = 64, 4
	var covered int32
	err := ForEachWorker(n, workers, func(w, i int) error {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of range", w)
		}
		if i == 9 {
			panic("replica exploded")
		}
		atomic.AddInt32(&covered, 1)
		return nil
	})
	if err == nil {
		t.Fatal("expected an error from the panicking entry")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 9 {
		t.Fatalf("expected PanicError for index 9, got %v", err)
	}
	if covered != n-1 {
		t.Fatalf("covered %d sibling entries, want %d", covered, n-1)
	}
}

func TestForEachJoinsMultipleFailures(t *testing.T) {
	err := ForEach(8, 0, func(i int) error {
		switch i {
		case 2:
			return fmt.Errorf("plain failure %d", i)
		case 6:
			panic(i)
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "plain failure 2") || !strings.Contains(msg, "task 6 panicked") {
		t.Errorf("joined error missing a failure: %v", msg)
	}
}

func TestMapCollectsAndReportsZeroSlots(t *testing.T) {
	out, err := Map(6, 2, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i + 1, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i, v := range out {
		want := i + 1
		if i == 3 {
			want = 0
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

func TestMapNoError(t *testing.T) {
	out, err := Map(4, 0, func(i int) (string, error) { return fmt.Sprint(i), nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 || out[2] != "2" {
		t.Errorf("bad output %v", out)
	}
}

func TestRetryEventuallySucceeds(t *testing.T) {
	var calls int32
	var slept []time.Duration
	cfg := RetryConfig{Attempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 25 * time.Millisecond,
		sleep: func(d time.Duration) { slept = append(slept, d) }}
	err := Retry(context.Background(), cfg, func() error {
		if atomic.AddInt32(&calls, 1) < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}
	if slept[1] < slept[0] {
		t.Errorf("backoff should grow: %v", slept)
	}
}

func TestRetryExhaustionWrapsLastError(t *testing.T) {
	sentinel := errors.New("always fails")
	cfg := RetryConfig{Attempts: 3, sleep: func(time.Duration) {}}
	err := Retry(context.Background(), cfg, func() error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("want wrapped sentinel, got %v", err)
	}
}

func TestRetryRecoversPanics(t *testing.T) {
	cfg := RetryConfig{Attempts: 2, sleep: func(time.Duration) {}}
	err := Retry(context.Background(), cfg, func() error { panic("retryable panic") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
}

func TestRetryStopsOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls int
	err := Retry(ctx, RetryConfig{Attempts: 5}, func() error { calls++; return errors.New("x") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls != 0 {
		t.Errorf("op ran %d times under a dead context", calls)
	}
}

func TestRetryJitterStaysInBounds(t *testing.T) {
	// Jitter only lengthens delays: the factor lives in [1, 1+J], so the
	// configured base delay stays a hard lower bound on backoff.
	for i := 0; i < 1000; i++ {
		f := jitterFactor(0.2)
		if f < 1 || f > 1.2 {
			t.Fatalf("jitter factor %f out of [1, 1.2]", f)
		}
	}
	if jitterFactor(0) != 1 {
		t.Error("zero jitter must be identity")
	}
}

// TestRetryDelaysWithinBounds pins the documented backoff contract:
// attempt n sleeps within [BaseDelay·2ⁿ, BaseDelay·(1+Jitter)·2ⁿ] and
// never past MaxDelay, jitter included.
func TestRetryDelaysWithinBounds(t *testing.T) {
	const (
		base   = 10 * time.Millisecond
		maxDel = 35 * time.Millisecond
		jitter = 0.5
	)
	var slept []time.Duration
	cfg := RetryConfig{Attempts: 5, BaseDelay: base, MaxDelay: maxDel, Jitter: jitter,
		sleep: func(d time.Duration) { slept = append(slept, d) }}
	err := Retry(context.Background(), cfg, func() error { return errors.New("always") })
	if err == nil {
		t.Fatal("op never succeeds; Retry must report failure")
	}
	if len(slept) != 4 {
		t.Fatalf("slept %d times, want 4", len(slept))
	}
	lo := base
	for n, d := range slept {
		hi := time.Duration(float64(lo) * (1 + jitter))
		wantLo, wantHi := lo, hi
		if wantLo > maxDel {
			wantLo = maxDel
		}
		if wantHi > maxDel {
			wantHi = maxDel
		}
		if d < wantLo || d > wantHi {
			t.Errorf("attempt %d slept %v, want within [%v, %v]", n, d, wantLo, wantHi)
		}
		lo *= 2
	}
	// Once the un-jittered delay hits the cap, the sleep is exactly
	// MaxDelay: jitter cannot push past it.
	if slept[3] != maxDel {
		t.Errorf("capped attempt slept %v, want exactly %v", slept[3], maxDel)
	}
}

// TestRetryCancelAbortsBackoffSleep cancels the context while Retry is
// inside a long backoff sleep: the call must return promptly with the
// context error instead of serving out the full delay.
func TestRetryCancelAbortsBackoffSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls int32
	done := make(chan error, 1)
	go func() {
		// No sleep hook: exercises the real context-aware backoff.
		cfg := RetryConfig{Attempts: 3, BaseDelay: time.Minute}
		done <- Retry(ctx, cfg, func() error {
			atomic.AddInt32(&calls, 1)
			return errors.New("transient")
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the first attempt fail and the sleep start
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Retry kept sleeping through cancellation")
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Errorf("op ran %d times; cancellation mid-sleep should stop after the first", calls)
	}
}
