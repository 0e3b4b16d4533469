package core

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

func newParallelDual(t *testing.T, c int) *DualBPlus {
	t.Helper()
	ix, err := NewDualBPlus(pager.NewMemStore(1024),
		DualBPlusConfig{Terrain: testTerrain, C: c, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func sameOIDs(a, b []dual.OID) bool {
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

func sortedSet(m map[dual.OID]bool) []dual.OID {
	out := make([]dual.OID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestQueryParallelDifferential is the parallel-vs-sequential property
// test: for a churned index and a sweep of query shapes, QueryParallel at
// worker counts 1, 2, 8, and GOMAXPROCS must return byte-identical slices,
// agree set-wise with the sequential Query path, and (Wide codec, so no
// rounding tolerance) match the brute-force oracle exactly.
func TestQueryParallelDifferential(t *testing.T) {
	leakcheck.Check(t)
	workerCounts := []int{1, 2, 8, runtime.GOMAXPROCS(0)}
	execs := make([]*Executor, len(workerCounts))
	for i, wkr := range workerCounts {
		execs[i] = NewExecutor(wkr)
	}

	for _, seed := range []int64{42, 1999, 77} {
		for _, c := range []int{1, 4} {
			ix := newParallelDual(t, c)
			s := newSim(seed, testTerrain)
			for i := 0; i < 300; i++ {
				s.spawn(ix, t)
			}
			for step := 0; step < 30; step++ {
				s.tick(ix, 5, t)
				s.churn(ix, 10, t)
				if step%3 != 0 {
					continue
				}
				queries := []dual.MORQuery{
					s.randQuery(8, 10),   // small: inside one subterrain
					s.randQuery(60, 30),  // large: Lemma 1 decomposition
					s.randQuery(100, 50), // very large
					s.randQuery(0, 10),   // degenerate width
					s.randQuery(40, 0),   // degenerate time
				}
				for _, q := range queries {
					ref, err := ix.QueryParallelCtx(context.Background(), execs[0], q)
					if err != nil {
						t.Fatalf("seed %d c %d: sequential reference: %v", seed, c, err)
					}
					for i := 1; i < len(execs); i++ {
						got, err := ix.QueryParallelCtx(context.Background(), execs[i], q)
						if err != nil {
							t.Fatalf("seed %d c %d workers %d: %v", seed, c, workerCounts[i], err)
						}
						if !sameOIDs(ref, got) {
							t.Fatalf("seed %d c %d workers %d: parallel result diverged\nq=%+v\nref=%v\ngot=%v",
								seed, c, workerCounts[i], q, ref, got)
						}
					}
					// Set-equality with the sequential Query path (which may
					// emit duplicates across subterrain fragments).
					seen := make(map[dual.OID]bool)
					if err := ix.Query(q, func(id dual.OID) { seen[id] = true }); err != nil {
						t.Fatalf("sequential Query: %v", err)
					}
					seq := sortedSet(seen)
					if !sameOIDs(ref, seq) {
						t.Fatalf("seed %d c %d: parallel vs sequential diverged\nq=%+v\npar=%v\nseq=%v",
							seed, c, q, ref, seq)
					}
					// Exact oracle match: Wide codec stores float64, tol=0.
					if want := sortedSet(s.bruteForce(q)); !sameOIDs(ref, want) {
						t.Fatalf("seed %d c %d: parallel vs oracle diverged\nq=%+v\ngot=%v\nwant=%v",
							seed, c, q, ref, want)
					}
				}
			}
		}
	}
}

// TestDualBPlusConcurrentReaders serves queries from many goroutines
// against a fixed index — no writer, no locks — and checks every reader
// gets the oracle answer. The index read path must be mutation-free for
// this to pass under -race.
func TestDualBPlusConcurrentReaders(t *testing.T) {
	leakcheck.Check(t)
	ix := newParallelDual(t, 4)
	s := newSim(7, testTerrain)
	for i := 0; i < 300; i++ {
		s.spawn(ix, t)
	}
	type qa struct {
		q    dual.MORQuery
		want []dual.OID
	}
	cases := make([]qa, 24)
	for i := range cases {
		q := s.randQuery(50, 25)
		cases[i] = qa{q: q, want: sortedSet(s.bruteForce(q))}
	}

	exec := NewExecutor(4)
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				c := cases[(r+rep)%len(cases)]
				got, err := ix.QueryParallelCtx(context.Background(), exec, c.q)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if !sameOIDs(got, c.want) {
					t.Errorf("reader %d: got %v, want %v", r, got, c.want)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestDualBPlusReadersWithWriter is the serving-model stress test:
// queries from several goroutines under RLock, one writer churning the
// index under Lock. Readers verify their answers against an oracle
// snapshot taken inside the same RLock, so the check is exact even as the
// index moves underneath them between queries.
func TestDualBPlusReadersWithWriter(t *testing.T) {
	leakcheck.Check(t)
	ix := newParallelDual(t, 4)
	s := newSim(11, testTerrain)
	for i := 0; i < 250; i++ {
		s.spawn(ix, t)
	}

	var mu sync.RWMutex // serving latch: queries RLock, updates Lock
	var stop atomic.Bool
	var wg sync.WaitGroup
	exec := NewExecutor(2)

	oracle := func(q dual.MORQuery) []dual.OID {
		out := make([]dual.OID, 0, 16)
		for id, m := range s.cur {
			if m.Matches(q) {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}

	// The query pool is refreshed by the writer each round (under Lock):
	// queries must stay at-or-after the newest observations — a stale
	// query about the past is outside the MOR model.
	queries := make([]dual.MORQuery, 16)
	refresh := func() {
		for i := range queries {
			queries[i] = s.randQuery(60, 30)
		}
	}
	refresh()

	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				mu.RLock()
				q := queries[(r+i)%len(queries)]
				want := oracle(q)
				got, err := ix.QueryParallelCtx(context.Background(), exec, q)
				mu.RUnlock()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if !sameOIDs(got, want) {
					t.Errorf("reader %d: answer diverged from oracle under writer churn", r)
					return
				}
			}
		}(r)
	}

	for round := 0; round < 40 && !t.Failed(); round++ {
		mu.Lock()
		s.tick(ix, 2, t)
		s.churn(ix, 8, t)
		refresh()
		mu.Unlock()
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	// The index is still coherent after the churn.
	if ix.Len() != len(s.cur) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(s.cur))
	}
	q := s.randQuery(80, 40)
	got, err := ix.QueryParallelCtx(context.Background(), NewExecutor(0), q)
	if err != nil {
		t.Fatal(err)
	}
	if want := sortedSet(s.bruteForce(q)); !sameOIDs(got, want) {
		t.Fatalf("post-stress query diverged: got %v, want %v", got, want)
	}
}
