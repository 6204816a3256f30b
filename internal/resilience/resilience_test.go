package resilience

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
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
