package parttree

import (
	"errors"
	"testing"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

// TestPartTreeSurfacesStorageFaults: the partition tree's block merges and
// global rebuilds do a lot of page traffic; all of it must fail loudly,
// not corrupt silently or panic.
func TestPartTreeSurfacesStorageFaults(t *testing.T) {
	eachSpace(t, testSurfacesStorageFaults)
}

func testSurfacesStorageFaults(t *testing.T, sp space) {
	pts := make([]Point, 400)
	for i := range pts {
		var v geom.Vec
		for k, step := range []int{37, 61, 43, 71}[:sp.d] {
			v[k] = float64((i * step) % 100)
		}
		pts[i] = Pt(v, uint64(i))
	}
	// x0 <= 70 and -x0 <= -10, i.e. the band 10 <= x0 <= 70.
	region := sp.region(
		geom.HalfSpace{Coef: geom.Vec{1}, C: 70},
		geom.HalfSpace{Coef: geom.Vec{-1}, C: -10},
	)
	for _, cfg := range []pager.FaultConfig{
		{Seed: 1, Read: pager.OpFaults{FailEvery: 9}},
		{Seed: 2, Write: pager.OpFaults{FailEvery: 9}},
		{Seed: 3, Alloc: pager.OpFaults{FailEvery: 4}},
		{Seed: 4, Free: pager.OpFaults{FailEvery: 3}},
	} {
		faulty := pager.NewFaultStore(pager.NewMemStore(256), cfg)
		tr, err := New(faulty, sp.d)
		if err != nil {
			if !errors.Is(err, pager.ErrInjected) {
				t.Fatalf("cfg %+v: constructor error outside taxonomy: %v", cfg, err)
			}
			continue
		}
		var opErrs int
		check := func(err error, op string) {
			if err == nil {
				return
			}
			if !errors.Is(err, pager.ErrInjected) && !errors.Is(err, pager.ErrPageNotFound) {
				t.Fatalf("cfg %+v: %s error outside taxonomy: %v", cfg, op, err)
			}
			opErrs++
		}
		for _, p := range pts {
			check(tr.Insert(p), "insert")
		}
		check(tr.SearchRegion(region, func(Point) bool { return true }), "search")
		for _, p := range pts[:80] {
			_, err := tr.Delete(p)
			check(err, "delete")
		}
		if faulty.Counters().Total() > 0 && opErrs == 0 {
			t.Fatalf("cfg %+v: faults injected but no operation reported one", cfg)
		}
	}
}
