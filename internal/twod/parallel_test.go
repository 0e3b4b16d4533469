package twod

import (
	"context"
	"runtime"
	"sort"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

type parallelQuerier interface {
	Index2D
	QueryParallel(ctx context.Context, exec *core.Executor, q MOR2Query) ([]dual.OID, error)
}

func sameOIDs2(a, b []dual.OID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runParallelDifferential2 churns an index and, at each checkpoint, asserts
// that QueryParallel is byte-identical across worker counts 1, 2, 8 and
// GOMAXPROCS, and set-equal to the sequential Query path on the same index
// (exact — both read the same pages, so codec rounding cancels out), and
// equal to the brute-force motion table (the caller's codec must be exact).
func runParallelDifferential2(t *testing.T, mk func(st pager.Store) parallelQuerier, seed int64) {
	t.Helper()
	leakcheck.Check(t)
	ix := mk(pager.NewMemStore(1024))
	s := newSim2(seed)
	for i := 0; i < 250; i++ {
		s.spawn(ix, t)
	}
	workerCounts := []int{1, 2, 8, runtime.GOMAXPROCS(0)}
	execs := make([]*core.Executor, len(workerCounts))
	for i, w := range workerCounts {
		execs[i] = core.NewExecutor(w)
	}
	for step := 0; step < 25; step++ {
		s.tick(ix, 4, t)
		s.churn(ix, 8, t)
		if step%4 != 0 {
			continue
		}
		for _, q := range []MOR2Query{
			s.randQuery(15, 10),
			s.randQuery(60, 25),
			s.randQuery(30, 0), // instant query
		} {
			ref, err := ix.QueryParallel(context.Background(), execs[0], q)
			if err != nil {
				t.Fatalf("step %d: sequential reference: %v", step, err)
			}
			for i := 1; i < len(execs); i++ {
				got, err := ix.QueryParallel(context.Background(), execs[i], q)
				if err != nil {
					t.Fatalf("step %d workers %d: %v", step, workerCounts[i], err)
				}
				if !sameOIDs2(ref, got) {
					t.Fatalf("step %d workers %d: parallel result diverged\nq=%+v\nref=%v\ngot=%v",
						step, workerCounts[i], q, ref, got)
				}
			}
			seen := make(map[dual.OID]bool)
			if err := ix.Query(q, func(id dual.OID) { seen[id] = true }); err != nil {
				t.Fatalf("sequential Query: %v", err)
			}
			seq := make([]dual.OID, 0, len(seen))
			for id := range seen {
				seq = append(seq, id)
			}
			sort.Slice(seq, func(i, j int) bool { return seq[i] < seq[j] })
			if !sameOIDs2(ref, seq) {
				t.Fatalf("step %d: parallel vs sequential diverged\nq=%+v\npar=%v\nseq=%v",
					step, q, ref, seq)
			}
			want := make([]dual.OID, 0, 16)
			for id, m := range s.cur {
				if m.Matches(q) {
					want = append(want, id)
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if !sameOIDs2(ref, want) {
				t.Fatalf("step %d: parallel vs oracle diverged\nq=%+v\ngot=%v\nwant=%v",
					step, q, ref, want)
			}
		}
	}
}

func TestDecomposedQueryParallelDifferential(t *testing.T) {
	mk := func(st pager.Store) parallelQuerier {
		ix, err := NewDecomposed(st, DecomposedConfig{Terrain: terr, C: 4, Codec: bptree.Wide})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	// Wide codec stores exact float64 images: the brute-force oracle must
	// match with zero tolerance.
	runParallelDifferential2(t, mk, 173)
}
