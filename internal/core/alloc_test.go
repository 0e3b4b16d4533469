package core

import (
	"context"
	"runtime"
	"slices"
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

// buildBytesPerMotion is what a bulk build may allocate per motion beyond
// the images of the pages it writes:
//   - 80 B of scratch per entry of the generation's largest tree, and a
//     tree takes at most one entry per motion: the collected entry (24 B),
//     its copy in the sorted run (24 B), and the radix sort's two
//     (sort key, position) pairs (16 B each);
//   - 32 B, one dual.Motion, for the rotator's group buffer when the
//     motions span more than one epoch;
//   - 16 B for what each written page costs beyond its image — its Page
//     header, its entry in the level above, the store's map slot — about
//     300 B a page: a leaf packs 306 Compact entries and a motion has at
//     most 2c = 8 (c observations, at most c residences), so a page
//     serves at least 38 motions.
//
// The sum, 128 B, is a fraction of the sorted copy of every tree's
// entries a build that materializes them all at once allocates: about
// 780 B per motion on the workload below.
const buildBytesPerMotion = 128

// TestBuildZeroAllocBeyondPages gates a fold's allocation: DualBPlus.Build
// plus its install, over a loaded index on a MemStore, allocates the page
// images it writes and at most buildBytesPerMotion per motion beside
// them, with the motions in one rotation epoch and in two.
func TestBuildZeroAllocBeyondPages(t *testing.T) {
	const n = 20000
	p := workload.DefaultParams(n)
	sim, err := workload.NewSimulator(p)
	if err != nil {
		t.Fatal(err)
	}
	var one []dual.Motion
	if err := sim.Bootstrap(func(op workload.Op) error { one = append(one, op.Motion); return nil }); err != nil {
		t.Fatal(err)
	}
	two := slices.Clone(one)
	for i := range two[n/2:] {
		two[n/2+i].T0 += p.Terrain.TPeriod()
	}
	for _, c := range []struct {
		name string
		ms   []dual.Motion
		gens int
	}{{"one-epoch", one, 1}, {"two-epochs", two, 2}} {
		st := pager.NewMemStore(pager.DefaultPageSize)
		ix, err := NewDualBPlus(st, DualBPlusConfig{Terrain: p.Terrain, C: 4, Codec: bptree.Compact})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.BulkLoad(c.ms); err != nil {
			t.Fatal(err)
		}
		writes := st.Stats().Writes
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		install, err := ix.Build(c.ms)
		if err == nil {
			err = install()
		}
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		if ix.Generations() != c.gens || ix.Len() != n {
			t.Fatalf("%s: %d generations, %d motions; want %d, %d", c.name, ix.Generations(), ix.Len(), c.gens, n)
		}
		pages := st.Stats().Writes - writes
		got := int64(m1.TotalAlloc - m0.TotalAlloc)
		limit := pages*pager.DefaultPageSize + n*buildBytesPerMotion
		if got > limit {
			t.Errorf("%s: build and install allocated %d B for %d pages written, want <= %d (%.0f B per motion beyond the pages)",
				c.name, got, pages, limit, float64(got-pages*pager.DefaultPageSize)/n)
		}
		t.Logf("%s: %d pages written, %d B allocated, %.1f B per motion beyond the pages",
			c.name, pages, got, float64(got-pages*pager.DefaultPageSize)/n)
	}
}
