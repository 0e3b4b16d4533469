package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

// TestRunCtxInlineCancellation pins the workers<=1 fast path: tasks run
// inline until the context is cancelled, then the remaining ones are
// skipped and the context error surfaces.
func TestRunCtxInlineCancellation(t *testing.T) {
	exec := NewExecutor(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	tasks := make([]func() error, 8)
	for i := range tasks {
		i := i
		tasks[i] = func() error {
			ran.Add(1)
			if i == 2 {
				cancel()
			}
			return nil
		}
	}
	err := exec.RunCtx(ctx, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 3 {
		t.Fatalf("ran %d tasks after cancel at task 2, want 3", got)
	}
}

// TestRunCtxParallelCancellation checks the pooled path: once the context
// is cancelled no new task starts, in-flight tasks drain, and no
// goroutine leaks.
func TestRunCtxParallelCancellation(t *testing.T) {
	leakcheck.Check(t)
	exec := NewExecutor(2)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	release := make(chan struct{})
	var ran atomic.Int32
	tasks := make([]func() error, 32)
	for i := range tasks {
		tasks[i] = func() error {
			ran.Add(1)
			started <- struct{}{}
			<-release
			return nil
		}
	}
	done := make(chan error, 1)
	go func() { done <- exec.RunCtx(ctx, tasks) }()
	// Let the two workers start, then cancel and release them.
	<-started
	<-started
	cancel()
	close(release)
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx = %v, want context.Canceled", err)
	}
	// At most one extra task can slip in between the workers' start and
	// the cancellation taking effect (the dispatcher may already be
	// blocked on the semaphore with the next task).
	if got := ran.Load(); got > 4 {
		t.Fatalf("%d tasks ran after early cancellation, want <= 4", got)
	}
}

// TestRunCtxTaskErrorWins pins the precedence contract: a task error
// observed before cancellation beats the context error.
func TestRunCtxTaskErrorWins(t *testing.T) {
	exec := NewExecutor(1)
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := exec.RunCtx(ctx, []func() error{
		func() error { cancel(); return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunCtx = %v, want task error", err)
	}
}

// TestQueryParallelCtx checks the index-level cancellation path: a
// live context answers exactly like the single-worker sequential
// reference, an already cancelled one returns the context error and no
// results.
func TestQueryParallelCtx(t *testing.T) {
	store := pager.NewMemStore(pager.DefaultPageSize)
	tr := dual.Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66}
	ix, err := NewDualBPlus(store, DualBPlusConfig{Terrain: tr, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		v := 0.2 + 0.2*float64(i%7)
		if i%2 == 1 {
			v = -v
		}
		m := dual.Motion{OID: dual.OID(i + 1), Y0: float64((i * 137) % 1000), T0: 0, V: v}
		if err := ix.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	q := dual.MORQuery{Y1: 100, Y2: 600, T1: 10, T2: 60}
	exec := NewExecutor(4)
	want, err := ix.QueryParallelCtx(context.Background(), NewExecutor(1), q)
	if err != nil {
		t.Fatal(err)
	}
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	got, err := ix.QueryParallelCtx(live, exec, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("4 workers returned %d OIDs, sequential %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("4 workers diverge from sequential at %d", i)
		}
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ix.QueryParallelCtx(cancelled, exec, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled QueryParallelCtx = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled query returned %d results, want none", len(res))
	}

	deadline, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := ix.QueryParallelCtx(deadline, exec, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired QueryParallelCtx = %v, want context.DeadlineExceeded", err)
	}
}
