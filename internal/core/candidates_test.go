package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

// scannedEntries counts, without the query path's own counter, the index
// entries a query over ix scans: per live generation, the entries of the
// approximating b-ranges (read with RangeAppend) and the intervals
// Overlapping reports for each whole subterrain of the Lemma 1 split.
func scannedEntries(t *testing.T, ix *DualBPlus, q dual.MORQuery) int {
	t.Helper()
	n := 0
	for _, g := range ix.rot.Live() {
		signs := func(q dual.MORQuery) {
			best := g.bestObservation(q)
			for _, positive := range []bool{true, false} {
				bLo, bHi := dual.HoughYRect(q, g.yr(best), g.cfg.Terrain, positive)
				es, err := g.obs(best, positive).RangeAppend(nil, bLo-g.tref, bHi-g.tref)
				if err != nil {
					t.Fatal(err)
				}
				n += len(es)
			}
		}
		if g.small(q) {
			signs(q)
			continue
		}
		jLo, jHi := g.lemma1Split(q)
		for j := jLo; j < jHi; j++ {
			err := g.sub[j].Overlapping(q.T1-g.tref, q.T2-g.tref, func(_, _ float64, _ uint64) bool {
				n++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if lo := float64(jLo) * g.h; q.Y1 <= lo {
			sq := q
			sq.Y2 = lo
			signs(sq)
		}
		if hi := float64(jHi) * g.h; q.Y2 >= hi {
			sq := q
			sq.Y1 = hi
			signs(sq)
		}
	}
	return n
}

// TestQueryCandidatesConcurrent: concurrent readers of one two-generation
// index get exact answers on all three query paths, and afterwards every
// serialized query's LastQueryCandidates equals the entries it scanned,
// counted independently — the per-piece totals add up to exactly the
// per-entry count, whatever ran before.
func TestQueryCandidatesConcurrent(t *testing.T) {
	leakcheck.Check(t)
	ix := newParallelDual(t, 4)
	if err := ix.BulkLoad(randMotions(3102, 3000, 1.5)); err != nil {
		t.Fatal(err)
	}
	if g := ix.Generations(); g != 2 {
		t.Fatalf("index has %d live generations, the test needs 2", g)
	}
	rng := rand.New(rand.NewSource(3103))
	type qa struct {
		q    dual.MORQuery
		want []dual.OID
	}
	cases := make([]qa, 40)
	for i := range cases {
		w := 2 + rng.Float64()*20 // small: at most one subterrain (H = 25)
		if i%2 == 1 {
			w = 30 + rng.Float64()*60 // Lemma 1: whole subterrains plus endpoints
		}
		y1 := rng.Float64() * (testTerrain.YMax - w)
		t1 := rng.Float64() * 1.5 * testTerrain.TPeriod()
		q := dual.MORQuery{Y1: y1, Y2: y1 + w, T1: t1, T2: t1 + rng.Float64()*30}
		want, err := ix.QueryAppend(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		cases[i] = qa{q: q, want: want}
	}

	exec := NewExecutor(4)
	ctx := context.Background()
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for rep := 0; rep < 30; rep++ {
				c := cases[(r*7+rep)%len(cases)]
				var got []dual.OID
				var err error
				switch rep % 3 {
				case 0:
					got, err = ix.QueryAppend(nil, c.q)
				case 1:
					got, err = ix.QueryParallelCtx(ctx, exec, c.q)
				default:
					err = ix.Query(c.q, func(id dual.OID) { got = append(got, id) })
					slices.Sort(got)
				}
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if !slices.Equal(got, c.want) {
					t.Errorf("reader %d: %v: got %d OIDs, want %d", r, c.q, len(got), len(c.want))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for i, c := range cases {
		want := scannedEntries(t, ix, c.q)
		if want < len(c.want) {
			t.Fatalf("case %d: %d entries scanned for %d answers", i, want, len(c.want))
		}
		paths := []struct {
			name string
			run  func() error
		}{
			{"Query", func() error { return ix.Query(c.q, func(dual.OID) {}) }},
			{"QueryAppend", func() error { _, err := ix.QueryAppend(nil, c.q); return err }},
			{"QueryParallelCtx", func() error { _, err := ix.QueryParallelCtx(ctx, exec, c.q); return err }},
		}
		for _, p := range paths {
			if err := p.run(); err != nil {
				t.Fatal(err)
			}
			if got := ix.LastQueryCandidates(); got != want {
				t.Errorf("case %d (%s, %v): LastQueryCandidates %d, scanned %d", i, p.name, c.q, got, want)
			}
		}
	}
}

// BenchmarkQueryParallel runs 1% queries (the paper's small mix) from
// every benchmark goroutine against one 20 000-object DualBPlus on a
// MemStore, through the serving path (QueryParallelCtx on a one-worker
// executor). With -cpu 1,2 it shows whether concurrent readers of one
// index slow each other down through shared state.
func BenchmarkQueryParallel(b *testing.B) {
	p := workload.DefaultParams(20000)
	sim, err := workload.NewSimulator(p)
	if err != nil {
		b.Fatal(err)
	}
	var ms []dual.Motion
	if err := sim.Bootstrap(func(op workload.Op) error { ms = append(ms, op.Motion); return nil }); err != nil {
		b.Fatal(err)
	}
	ix, err := NewDualBPlus(pager.NewMemStore(4096),
		DualBPlusConfig{Terrain: p.Terrain, C: 4, Codec: bptree.Compact})
	if err != nil {
		b.Fatal(err)
	}
	if err := ix.BulkLoad(ms); err != nil {
		b.Fatal(err)
	}
	qs := sim.Queries(workload.SmallQueries())
	exec := NewExecutor(1)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := ix.QueryParallelCtx(ctx, exec, qs[i%len(qs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}
