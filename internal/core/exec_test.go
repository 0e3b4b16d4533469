package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
)

func TestExecutorWorkerDefaults(t *testing.T) {
	if got := NewExecutor(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewExecutor(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewExecutor(-3).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("NewExecutor(-3).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := NewExecutor(5).Workers(); got != 5 {
		t.Fatalf("NewExecutor(5).Workers() = %d, want 5", got)
	}
}

func TestExecutorRunsAllTasks(t *testing.T) {
	leakcheck.Check(t)
	for _, workers := range []int{1, 2, 7, 16} {
		var ran atomic.Int64
		tasks := make([]func() error, 50)
		for i := range tasks {
			tasks[i] = func() error { ran.Add(1); return nil }
		}
		if err := NewExecutor(workers).RunCtx(context.Background(), tasks); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ran.Load() != 50 {
			t.Fatalf("workers=%d: ran %d of 50 tasks", workers, ran.Load())
		}
	}
}

func TestExecutorEmptyAndNil(t *testing.T) {
	e := NewExecutor(4)
	if err := e.RunCtx(context.Background(), nil); err != nil {
		t.Fatalf("Run(nil): %v", err)
	}
	if err := e.RunCtx(context.Background(), []func() error{}); err != nil {
		t.Fatalf("Run(empty): %v", err)
	}
}

// TestExecutorBoundedConcurrency verifies the semaphore: the number of
// simultaneously running tasks never exceeds the worker count.
func TestExecutorBoundedConcurrency(t *testing.T) {
	leakcheck.Check(t)
	const workers = 3
	var inFlight, peak atomic.Int64
	tasks := make([]func() error, 40)
	for i := range tasks {
		tasks[i] = func() error {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			runtime.Gosched()
			inFlight.Add(-1)
			return nil
		}
	}
	if err := NewExecutor(workers).RunCtx(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight %d exceeds worker bound %d", p, workers)
	}
}

// TestExecutorErrorPropagation verifies the first error is reported, and
// that Run still waits for (and runs) every task rather than abandoning
// goroutines — the property the leak check enforces.
func TestExecutorErrorPropagation(t *testing.T) {
	leakcheck.Check(t)
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		tasks := make([]func() error, 20)
		for i := range tasks {
			i := i
			tasks[i] = func() error {
				ran.Add(1)
				if i == 3 {
					return boom
				}
				return nil
			}
		}
		err := NewExecutor(workers).RunCtx(context.Background(), tasks)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		// Both modes drain every task so partial buckets never escape.
		if ran.Load() != 20 {
			t.Fatalf("workers=%d: ran %d tasks, want all 20", workers, ran.Load())
		}
	}
}

func TestMergeOIDs(t *testing.T) {
	got := MergeOIDs([][]dual.OID{{5, 1, 9}, nil, {1, 3, 5}, {2}})
	want := []dual.OID{1, 2, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("MergeOIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MergeOIDs = %v, want %v", got, want)
		}
	}
	if out := MergeOIDs(nil); out != nil {
		t.Fatalf("MergeOIDs(nil) = %v, want nil", out)
	}
	if out := MergeOIDs([][]dual.OID{nil, {}}); out != nil {
		t.Fatalf("MergeOIDs(empty buckets) = %v, want nil", out)
	}
}

func TestRunSubqueriesMergesAndDedups(t *testing.T) {
	subs := []func(emit func(dual.OID)) error{
		func(emit func(dual.OID)) error { emit(7); emit(2); return nil },
		func(emit func(dual.OID)) error { emit(2); emit(4); return nil },
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := RunSubqueriesCtx(context.Background(), NewExecutor(workers), subs)
		if err != nil {
			t.Fatal(err)
		}
		want := []dual.OID{2, 4, 7}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got %v, want %v", workers, got, want)
			}
		}
	}
}
