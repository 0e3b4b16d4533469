package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// randMotions produces n valid motions whose update times span spread
// epochs of the rotation period, so bulk loading must reconstruct several
// generations.
func randMotions(seed int64, n int, spread float64) []dual.Motion {
	rng := rand.New(rand.NewSource(seed))
	tr := testTerrain
	ms := make([]dual.Motion, n)
	for i := range ms {
		v := tr.VMin + rng.Float64()*(tr.VMax-tr.VMin)
		if rng.Intn(2) == 0 {
			v = -v
		}
		ms[i] = dual.Motion{
			OID: dual.OID(i),
			Y0:  rng.Float64() * tr.YMax,
			T0:  rng.Float64() * spread * tr.TPeriod(),
			V:   v,
		}
	}
	return ms
}

// sortedQuery collects an index's answer as a sorted OID slice.
func sortedQuery(t *testing.T, ix Index1D, q dual.MORQuery) []dual.OID {
	t.Helper()
	var out []dual.OID
	if err := ix.Query(q, func(id dual.OID) { out = append(out, id) }); err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

func randMOR(rng *rand.Rand, spread float64) dual.MORQuery {
	tr := testTerrain
	y1 := rng.Float64() * tr.YMax
	y2 := y1 + rng.Float64()*(tr.YMax-y1)
	t1 := rng.Float64() * spread * tr.TPeriod()
	t2 := t1 + rng.Float64()*40
	return dual.MORQuery{Y1: y1, Y2: y2, T1: t1, T2: t2}
}

// The bulk-loaded DualBPlus must be answer-identical to the incrementally
// built one — sequentially, through QueryAppend, and through QueryParallel
// at every worker count.
func TestDualBPlusBulkDifferential(t *testing.T) {
	ms := randMotions(41, 2000, 1.5)
	mk := func() *DualBPlus {
		d, err := NewDualBPlus(pager.NewMemStore(1024), DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Compact})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	inc := mk()
	for _, m := range ms {
		if err := inc.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	bulk := mk()
	if err := bulk.BulkLoad(ms); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != inc.Len() || bulk.Generations() != inc.Generations() {
		t.Fatalf("bulk Len=%d gens=%d, incremental Len=%d gens=%d",
			bulk.Len(), bulk.Generations(), inc.Len(), inc.Generations())
	}
	rng := rand.New(rand.NewSource(42))
	execs := []*Executor{NewExecutor(1), NewExecutor(4)}
	buf := make([]dual.OID, 0, 1024)
	for i := 0; i < 60; i++ {
		q := randMOR(rng, 1.5)
		want := sortedQuery(t, inc, q)
		got := sortedQuery(t, bulk, q)
		if !slices.Equal(want, got) {
			t.Fatalf("query %d: bulk answered %d OIDs, incremental %d", i, len(got), len(want))
		}
		var err error
		buf, err = bulk.QueryAppend(buf[:0], q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(want, buf) {
			t.Fatalf("query %d: QueryAppend diverges from Query", i)
		}
		for _, ex := range execs {
			par, err := bulk.QueryParallelCtx(context.Background(), ex, q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(want, par) {
				t.Fatalf("query %d: QueryParallel(%d workers) diverges", i, ex.Workers())
			}
		}
	}
}

// Bulk loading on top of a populated index must fully replace it.
func TestDualBPlusBulkReplaces(t *testing.T) {
	st := pager.NewMemStore(1024)
	d, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Compact})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range randMotions(43, 1000, 1.0) {
		if err := d.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	ms2 := randMotions(44, 200, 1.0)
	if err := d.BulkLoad(ms2); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 200 {
		t.Fatalf("Len=%d after bulk replace", d.Len())
	}
	fresh, err := NewDualBPlus(pager.NewMemStore(1024), DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Compact})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.BulkLoad(ms2); err != nil {
		t.Fatal(err)
	}
	// The replaced index must answer like a fresh bulk-loaded twin.
	q := dual.MORQuery{Y1: 0, Y2: testTerrain.YMax, T1: 0, T2: testTerrain.TPeriod()}
	if !slices.Equal(sortedQuery(t, d, q), sortedQuery(t, fresh, q)) {
		t.Fatal("replaced index diverges from fresh bulk load")
	}
	// Updates must keep working after the swap.
	for _, m := range randMotions(45, 100, 1.0) {
		m.OID += 10000
		if err := d.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != 300 {
		t.Fatalf("Len=%d after post-bulk inserts", d.Len())
	}
}

// The bulk-loaded RStarSeg baseline must be answer-identical to the
// incremental one.
func TestRStarSegBulkDifferential(t *testing.T) {
	ms := randMotions(50, 2000, 1.0)
	mk := func() *RStarSeg {
		r, err := NewRStarSeg(pager.NewMemStore(1024), RStarSegConfig{Terrain: testTerrain})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	inc := mk()
	for _, m := range ms {
		if err := inc.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	bulk := mk()
	if err := bulk.BulkLoad(ms); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != inc.Len() {
		t.Fatalf("bulk Len=%d, incremental %d", bulk.Len(), inc.Len())
	}
	rng := rand.New(rand.NewSource(51))
	for i := 0; i < 60; i++ {
		q := randMOR(rng, 1.0)
		if !slices.Equal(sortedQuery(t, inc, q), sortedQuery(t, bulk, q)) {
			t.Fatalf("query %d diverges", i)
		}
	}
}

// A bulk DualBPlus reindex must cost far fewer page I/Os than the same
// contents built with Insert — the serving-layer rebuild this exists for.
func TestDualBPlusBulkIOAdvantage(t *testing.T) {
	ms := randMotions(52, 5000, 0.9)
	incStore := pager.NewMemStore(4096)
	inc, err := NewDualBPlus(incStore, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Compact})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if err := inc.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	bulkStore := pager.NewMemStore(4096)
	bulk, err := NewDualBPlus(bulkStore, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Compact})
	if err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(ms); err != nil {
		t.Fatal(err)
	}
	incIOs := incStore.Stats().IOs()
	bulkIOs := bulkStore.Stats().IOs()
	if bulkIOs*5 > incIOs {
		t.Fatalf("bulk reindex cost %d I/Os, incremental %d — want >= 5x reduction", bulkIOs, incIOs)
	}
}
