package twod

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

// The point-dual family has one implementation (core.PointDual) and four
// constructors; every behaviour of the implementation is tested once, with
// the constructors as rows. The rows live here because this is the lowest
// package that sees all four.

// dualCase is what the tests need of one dimensionality: a constructor,
// seeded generators for its motion and query types, the exact predicate,
// and the query grown by a margin on every side (the oracle forgives an
// object that float32 page rounding may have moved across the boundary).
type dualCase[M, Q any] struct {
	mk      func(st pager.Store) (*core.PointDual[M, Q], error)
	motion  func(rng *rand.Rand, id dual.OID, t0 float64) M
	query   func(rng *rand.Rand, now float64) Q
	matches func(M, Q) bool
	grow    func(q Q, by float64) Q
	check   func(Q) error
}

// dualRow is a dualCase with its type parameters erased, so the four
// constructors fit one table.
type dualRow struct {
	name                             string
	bulkDifferential, rotation       func(*testing.T)
	parallelDifferential, failedBulk func(*testing.T)
}

func newDualRow[M, Q any](name string, c dualCase[M, Q]) dualRow {
	return dualRow{
		name:             name,
		bulkDifferential: c.bulkDifferential, rotation: c.rotation,
		parallelDifferential: c.parallelDifferential, failedBulk: c.failedBulk,
	}
}

const dualPeriod = 200.0 // terr and its 1-dimensional projection: 100/0.5

func dualSpeed(rng *rand.Rand) float64 {
	v := terr.VMin + rng.Float64()*(terr.VMax-terr.VMin)
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func dualCase1D(mk func(pager.Store) (*core.HoughXDual, error)) dualCase[dual.Motion, dual.MORQuery] {
	return dualCase[dual.Motion, dual.MORQuery]{
		mk: mk,
		motion: func(rng *rand.Rand, id dual.OID, t0 float64) dual.Motion {
			return dual.Motion{OID: id, Y0: rng.Float64() * terr.XMax, T0: t0, V: dualSpeed(rng)}
		},
		query: func(rng *rand.Rand, now float64) dual.MORQuery {
			y1 := rng.Float64() * terr.XMax
			t1 := now + rng.Float64()*20
			return dual.MORQuery{Y1: y1, Y2: y1 + rng.Float64()*40, T1: t1, T2: t1 + rng.Float64()*30}
		},
		matches: dual.Motion.Matches,
		grow: func(q dual.MORQuery, by float64) dual.MORQuery {
			return dual.MORQuery{Y1: q.Y1 - by, Y2: q.Y2 + by, T1: q.T1 - by, T2: q.T2 + by}
		},
		check: core.ValidateQuery,
	}
}

func dualCase2D(mk func(pager.Store) (*Dual4, error)) dualCase[Motion2D, MOR2Query] {
	return dualCase[Motion2D, MOR2Query]{
		mk: mk,
		motion: func(rng *rand.Rand, id dual.OID, t0 float64) Motion2D {
			return Motion2D{OID: id, X0: rng.Float64() * terr.XMax, Y0: rng.Float64() * terr.YMax, T0: t0,
				VX: dualSpeed(rng), VY: dualSpeed(rng)}
		},
		query: func(rng *rand.Rand, now float64) MOR2Query {
			x1, y1 := rng.Float64()*terr.XMax, rng.Float64()*terr.YMax
			t1 := now + rng.Float64()*15
			return MOR2Query{X1: x1, X2: x1 + rng.Float64()*60, Y1: y1, Y2: y1 + rng.Float64()*60,
				T1: t1, T2: t1 + rng.Float64()*25}
		},
		matches: Motion2D.Matches,
		grow: func(q MOR2Query, by float64) MOR2Query {
			return MOR2Query{X1: q.X1 - by, X2: q.X2 + by, Y1: q.Y1 - by, Y2: q.Y2 + by, T1: q.T1 - by, T2: q.T2 + by}
		},
		check: validateQuery,
	}
}

func pointDualRows() []dualRow {
	xt := terr.xTerrain()
	return []dualRow{
		newDualRow("KDDual", dualCase1D(func(st pager.Store) (*core.HoughXDual, error) {
			return core.NewKDDual(st, core.KDDualConfig{Terrain: xt})
		})),
		newDualRow("PartTreeDual", dualCase1D(func(st pager.Store) (*core.HoughXDual, error) {
			return core.NewPartTreeDual(st, core.PartTreeDualConfig{Terrain: xt})
		})),
		newDualRow("KD4", dualCase2D(func(st pager.Store) (*Dual4, error) {
			return NewKD4(st, KD4Config{Terrain: terr})
		})),
		newDualRow("PartTree4", dualCase2D(func(st pager.Store) (*Dual4, error) {
			return NewPartTree4(st, PartTree4Config{Terrain: terr})
		})),
	}
}

func (c dualCase[M, Q]) build(t *testing.T, st pager.Store) *core.PointDual[M, Q] {
	t.Helper()
	ix, err := c.mk(st)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// spread returns n motions whose update times span 1.5 rotation periods,
// so an index holding them has two generations.
func (c dualCase[M, Q]) spread(seed int64, n int) []M {
	rng := rand.New(rand.NewSource(seed))
	ms := make([]M, n)
	for i := range ms {
		ms[i] = c.motion(rng, dual.OID(i), rng.Float64()*1.5*dualPeriod)
	}
	return ms
}

func (c dualCase[M, Q]) sorted(t *testing.T, ix *core.PointDual[M, Q], q Q) []dual.OID {
	t.Helper()
	var out []dual.OID
	if err := ix.Query(q, func(id dual.OID) { out = append(out, id) }); err != nil {
		t.Fatal(err)
	}
	slices.Sort(out)
	return out
}

// A bulk-loaded index must be answer-identical to one built by Insert, a
// second BulkLoad must replace the first, and the index must stay mutable.
func (c dualCase[M, Q]) bulkDifferential(t *testing.T) {
	ms := c.spread(46, 1500)
	inc := c.build(t, pager.NewMemStore(1024))
	for _, m := range ms {
		if err := inc.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	bulk := c.build(t, pager.NewMemStore(1024))
	if err := bulk.BulkLoad(c.spread(45, 300)); err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(ms); err != nil {
		t.Fatal(err)
	}
	if bulk.Len() != inc.Len() || bulk.Generations() != inc.Generations() {
		t.Fatalf("bulk Len=%d in %d generations, incremental %d in %d",
			bulk.Len(), bulk.Generations(), inc.Len(), inc.Generations())
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 60; i++ {
		q := c.query(rng, rng.Float64()*1.5*dualPeriod)
		if !slices.Equal(c.sorted(t, inc, q), c.sorted(t, bulk, q)) {
			t.Fatalf("query %d diverges", i)
		}
	}
	moved := c.motion(rng, 7, 1.6*dualPeriod)
	for _, ix := range []*core.PointDual[M, Q]{inc, bulk} {
		if err := ix.Delete(ms[7]); err != nil {
			t.Fatal(err)
		}
		if err := ix.Insert(moved); err != nil {
			t.Fatal(err)
		}
	}
	q := c.query(rng, 1.6*dualPeriod)
	if !slices.Equal(c.sorted(t, inc, q), c.sorted(t, bulk, q)) {
		t.Fatal("diverged after an update on top of the bulk load")
	}
}

// Under the paper's forced-update model — every object reports again
// within one period — the rotation keeps at most two live generations over
// many periods, retired generations give their pages back, and the answers
// stay those of the brute-force oracle.
func (c dualCase[M, Q]) rotation(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix := c.build(t, st)
	rng := rand.New(rand.NewSource(11))
	const n = 150
	cur := make([]M, n)
	since := make([]float64, n)
	update := func(i int, now float64) {
		if since[i] >= 0 {
			if err := ix.Delete(cur[i]); err != nil {
				t.Fatalf("t=%v: delete: %v", now, err)
			}
		}
		cur[i], since[i] = c.motion(rng, dual.OID(i), now), now
		if err := ix.Insert(cur[i]); err != nil {
			t.Fatalf("t=%v: insert: %v", now, err)
		}
	}
	for i := range cur {
		since[i] = -1
		update(i, 0)
	}
	peak := 0
	// Five periods in steps of 2: four voluntary updates a step, plus the
	// forced one for whoever has been silent for 0.9 of a period.
	for now := 2.0; now <= 5*dualPeriod; now += 2 {
		for k := 0; k < 4; k++ {
			update(rng.Intn(n), now)
		}
		for i := range cur {
			if now-since[i] > 0.9*dualPeriod {
				update(i, now)
			}
		}
		if g := ix.Generations(); g > 2 {
			t.Fatalf("t=%v: %d live generations", now, g)
		}
		if p := st.PagesInUse(); now <= dualPeriod && p > peak {
			peak = p
		} else if p > 2*peak {
			t.Fatalf("t=%v: %d pages in use, the first period peaked at %d", now, p, peak)
		}
	}
	if ix.Len() != n {
		t.Fatalf("Len = %d, want %d", ix.Len(), n)
	}
	const tol = 0.02
	for k := 0; k < 20; k++ {
		q := c.query(rng, 5*dualPeriod)
		got := c.sorted(t, ix, q)
		if len(slices.Compact(slices.Clone(got))) != len(got) {
			t.Fatalf("duplicate emissions for %+v", q)
		}
		for i, m := range cur {
			_, in := slices.BinarySearch(got, dual.OID(i))
			if in == c.matches(m, q) {
				continue
			}
			inner := c.grow(q, -tol)
			if c.matches(m, c.grow(q, tol)) && (c.check(inner) != nil || !c.matches(m, inner)) {
				continue // within tol of the boundary
			}
			t.Fatalf("object %d (%+v) for %+v: reported %v", i, m, q, in)
		}
	}
}

// QueryParallel must be byte-identical across worker counts and equal to
// the sorted sequential Query on the same index (exact: both read the same
// pages), across a bulk load, updates and two live generations.
func (c dualCase[M, Q]) parallelDifferential(t *testing.T) {
	leakcheck.Check(t)
	ix := c.build(t, pager.NewMemStore(1024))
	ms := c.spread(171, 400)
	if err := ix.BulkLoad(ms); err != nil {
		t.Fatal(err)
	}
	workers := []int{1, 2, 8, runtime.GOMAXPROCS(0)}
	rng := rand.New(rand.NewSource(172))
	for step := 0; step < 8; step++ {
		now := (1.5 + 0.02*float64(step)) * dualPeriod
		for k := 0; k < 10; k++ {
			i := rng.Intn(len(ms))
			if err := ix.Delete(ms[i]); err != nil {
				t.Fatal(err)
			}
			ms[i] = c.motion(rng, dual.OID(i), now)
			if err := ix.Insert(ms[i]); err != nil {
				t.Fatal(err)
			}
		}
		for k := 0; k < 3; k++ {
			q := c.query(rng, now)
			seq := c.sorted(t, ix, q)
			for _, w := range workers {
				got, err := ix.QueryParallel(context.Background(), core.NewExecutor(w), q)
				if err != nil {
					t.Fatalf("step %d workers %d: %v", step, w, err)
				}
				if !slices.Equal(got, seq) {
					t.Fatalf("step %d workers %d: parallel diverged from sequential\nq=%+v\npar=%v\nseq=%v", step, w, q, got, seq)
				}
			}
		}
	}
}

// A bulk load that fails midway on a batching store leaves the store as it
// was: the reindex is one batch, whichever constructor built the index.
func (c dualCase[M, Q]) failedBulk(t *testing.T) {
	for _, failAt := range []int64{1, 6, 15} {
		fs := pager.NewFaultStore(pager.NewMemStore(512), pager.FaultConfig{})
		ws, err := pager.OpenWALStore(fs, pager.NewMemLog(), pager.WALConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ix := c.build(t, ws)
		if err := ix.BulkLoad(c.spread(61, 500)); err != nil {
			t.Fatal(err)
		}
		if err := ws.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before := ws.PagesInUse()
		// Allocations reach the base store inside a batch: fail the
		// failAt-th one from here, after the old generations are gone.
		fs.SetConfig(pager.FaultConfig{Alloc: pager.OpFaults{FailEvery: fs.Counters().Allocs + failAt}, MaxFaults: 1})
		if err := ix.BulkLoad(c.spread(62, 700)); err == nil {
			t.Fatalf("fail at alloc %d: BulkLoad succeeded", failAt)
		}
		if fs.Counters().AllocFaults != 1 {
			t.Fatalf("fail at alloc %d: %d faults injected", failAt, fs.Counters().AllocFaults)
		}
		if got := ws.PagesInUse(); got != before {
			t.Fatalf("fail at alloc %d: %d pages in use after the failed reindex, %d before", failAt, got, before)
		}
	}
}

func TestPointDualBulkDifferential(t *testing.T) {
	for _, row := range pointDualRows() {
		t.Run(row.name, row.bulkDifferential)
	}
}

func TestPointDualRotation(t *testing.T) {
	for _, row := range pointDualRows() {
		t.Run(row.name, row.rotation)
	}
}

func TestPointDualQueryParallelDifferential(t *testing.T) {
	for _, row := range pointDualRows() {
		t.Run(row.name, row.parallelDifferential)
	}
}

func TestPointDualFailedBulkLoadRollsBack(t *testing.T) {
	for _, row := range pointDualRows() {
		t.Run(row.name, row.failedBulk)
	}
}
