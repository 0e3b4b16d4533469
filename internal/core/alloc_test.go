package core

import (
	"context"
	"runtime"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

// Fixed per-query allocation allowed on top of the answer: the pieces'
// closures, the task list, sort.Slice's boxed slice and swapper, on
// several workers the fan-out's semaphore and goroutine closures, and the
// rounding of a large answer up to whole pages. None of it grows with the
// answer.
const (
	fixedQueryBytes  = 4096
	fixedQueryAllocs = 48
)

// queryAllocs reports what one call of query allocates on average, in
// bytes (runtime.MemStats.TotalAlloc) and in objects
// (testing.AllocsPerRun), after warm-up calls have filled the pooled
// scratch. It runs on one P, as AllocsPerRun does, so the scratch a call
// releases is the one the next call takes.
func queryAllocs(t *testing.T, query func()) (bytes, objects float64) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	for i := 0; i < 3; i++ {
		query()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / runs, testing.AllocsPerRun(runs, query)
}

// TestQueryAllocatesOnlyItsAnswer gates the serving query path on a
// MemStore, whose reads allocate nothing: a QueryParallelCtx allocates its
// answer (8 bytes per OID) and a fixed handful of small objects, on one
// worker and on two, for small queries and for Lemma 1 queries whose
// pieces emit duplicates. Piece buckets and the merge buffer come from the
// pooled scratch.
func TestQueryAllocatesOnlyItsAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop query scratches at random")
	}
	p := workload.DefaultParams(20000)
	sim, err := workload.NewSimulator(p)
	if err != nil {
		t.Fatal(err)
	}
	var ms []dual.Motion
	if err := sim.Bootstrap(func(op workload.Op) error { ms = append(ms, op.Motion); return nil }); err != nil {
		t.Fatal(err)
	}
	ix, err := NewDualBPlus(pager.NewMemStore(4096), DualBPlusConfig{Terrain: p.Terrain, C: 4, Codec: bptree.Compact})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BulkLoad(ms); err != nil {
		t.Fatal(err)
	}
	qs := append(sim.Queries(workload.SmallQueries())[:4], sim.Queries(workload.LargeQueries())[:4]...)
	// A query over most of the terrain: many subterrain pieces.
	qs = append(qs, dual.MORQuery{Y1: 100, Y2: 900, T1: 1, T2: 3})
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		exec := NewExecutor(workers)
		for i, q := range qs {
			var n int
			query := func() {
				ids, err := ix.QueryParallelCtx(ctx, exec, q)
				if err != nil {
					t.Fatal(err)
				}
				n = len(ids)
			}
			bytes, objects := queryAllocs(t, query)
			if limit := float64(8*n + fixedQueryBytes); bytes > limit {
				t.Errorf("workers=%d query %d (%d answers): %.0f B per query, want <= %.0f", workers, i, n, bytes, limit)
			}
			if objects > fixedQueryAllocs {
				t.Errorf("workers=%d query %d (%d answers): %.1f allocations per query, want <= %d", workers, i, n, objects, fixedQueryAllocs)
			}
			t.Logf("workers=%d query %d: %d answers, %.0f B, %.1f allocations per query", workers, i, n, bytes, objects)
		}
	}
}
