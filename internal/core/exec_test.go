package core

import (
	"context"
	"errors"
	"runtime"
	"slices"
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

// TestUnionOIDs: one band's answer comes back as is; several are merged
// in one pass, replicas collapsed, into an exact-size slice; no answer at
// all is nil.
func TestUnionOIDs(t *testing.T) {
	one := []dual.OID{2, 4, 7}
	if got := UnionOIDs([][]dual.OID{nil, one, {}}); &got[0] != &one[0] || !slices.Equal(got, one) {
		t.Fatalf("UnionOIDs of one list = %v, want that list itself", got)
	}
	got := UnionOIDs([][]dual.OID{{1, 4, 9}, nil, {2, 4, 5, 9, 12}, {0, 4}})
	if want := []dual.OID{0, 1, 2, 4, 5, 9, 12}; !slices.Equal(got, want) || cap(got) != len(want) {
		t.Fatalf("UnionOIDs = %v (cap %d), want %v at exact size", got, cap(got), want)
	}
	if got := UnionOIDs([][]dual.OID{nil, {}}); got != nil {
		t.Fatalf("UnionOIDs of empty lists = %v, want nil", got)
	}
	// A list that repeats an OID (an unmerged piece's sorted bucket) still
	// yields it once, after what dst already holds.
	got = AppendUnion([]dual.OID{0}, []dual.OID{1, 1, 3}, []dual.OID{1, 3, 3, 4})
	if want := []dual.OID{0, 1, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("AppendUnion of two lists = %v, want %v", got, want)
	}
	got = AppendUnion([]dual.OID{5}, nil, []dual.OID{1, 1, 3})
	if want := []dual.OID{5, 1, 3}; !slices.Equal(got, want) {
		t.Fatalf("AppendUnion with one empty list = %v, want %v", got, want)
	}
	// Scratch.Union folds list after list; an OID equal to the running
	// union's last one is not lost, and earlier results stay intact.
	s := GetScratch()
	defer s.Release()
	first := s.Union([][]dual.OID{{3, 8}, {1, 3}})
	second := s.Union([][]dual.OID{{9}, {2, 9, 11}, nil, {0, 2, 2}, {11, 12}})
	if want := []dual.OID{1, 3, 8}; !slices.Equal(first, want) {
		t.Fatalf("first Scratch.Union = %v, want %v", first, want)
	}
	if want := []dual.OID{0, 2, 9, 11, 12}; !slices.Equal(second, want) {
		t.Fatalf("second Scratch.Union = %v, want %v", second, want)
	}
}

// TestScratchOverCapDropped: a scratch whose buffers grew past
// maxPooledOIDs is left to the collector on Release, not pooled.
func TestScratchOverCapDropped(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := GetScratch()
	big := make([]dual.OID, maxPooledOIDs+1)
	s.Merge([][]dual.OID{big})
	s.Release()
	next := GetScratch()
	defer next.Release()
	if next == s {
		t.Fatal("a scratch past the cap came back from the pool")
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
