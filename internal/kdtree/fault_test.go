package kdtree

import (
	"errors"
	"testing"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

// TestKDTreeSurfacesStorageFaults drives the tree over a store failing
// each operation class in turn: every failure must surface as an error
// (never a panic), and a run on the same data without faults stays intact.
func TestKDTreeSurfacesStorageFaults(t *testing.T) {
	eachSpace(t, testSurfacesStorageFaults)
}

// latticePoint spreads i over [0, 100)^d.
func latticePoint(d, i int) Point {
	var v geom.Vec
	for k, step := range []int{37, 61, 43, 71}[:d] {
		v[k] = float64((i * step) % 100)
	}
	return Pt(v, uint64(i))
}

func testSurfacesStorageFaults(t *testing.T, sp space) {
	world := geom.Box{Hi: uniform(sp.d, 100)}
	query := sp.box(uniform(sp.d, 10), uniform(sp.d, 60))
	pts := make([]Point, 300)
	for i := range pts {
		pts[i] = latticePoint(sp.d, i)
	}
	for _, cfg := range []pager.FaultConfig{
		{Seed: 1, Read: pager.OpFaults{FailEvery: 5}},
		{Seed: 2, Write: pager.OpFaults{FailEvery: 5}},
		{Seed: 3, Alloc: pager.OpFaults{FailEvery: 3}},
		{Seed: 4, Free: pager.OpFaults{FailEvery: 2}},
	} {
		faulty := pager.NewFaultStore(pager.NewMemStore(256), cfg)
		tr, err := New(faulty, sp.d, world)
		if err != nil {
			if !errors.Is(err, pager.ErrInjected) {
				t.Fatalf("cfg %+v: constructor error outside taxonomy: %v", cfg, err)
			}
			continue
		}
		var opErrs int
		for _, p := range pts {
			if err := tr.Insert(p); err != nil {
				if !errors.Is(err, pager.ErrInjected) && !errors.Is(err, pager.ErrPageNotFound) {
					t.Fatalf("cfg %+v: insert error outside taxonomy: %v", cfg, err)
				}
				opErrs++
			}
		}
		if err := tr.SearchRegion(query, func(Point) bool { return true }); err != nil {
			if !errors.Is(err, pager.ErrInjected) && !errors.Is(err, pager.ErrPageNotFound) {
				t.Fatalf("cfg %+v: search error outside taxonomy: %v", cfg, err)
			}
			opErrs++
		}
		for _, p := range pts[:50] {
			if _, err := tr.Delete(p); err != nil {
				if !errors.Is(err, pager.ErrInjected) && !errors.Is(err, pager.ErrPageNotFound) {
					t.Fatalf("cfg %+v: delete error outside taxonomy: %v", cfg, err)
				}
				opErrs++
			}
		}
		if faulty.Counters().Total() > 0 && opErrs == 0 {
			t.Fatalf("cfg %+v: faults injected but no operation reported one", cfg)
		}
	}
}
