package rstar

import (
	"errors"
	"testing"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

// TestRStarSurfacesStorageFaults: every storage failure must come back as
// an error from the R*-tree's API, never a panic — including through the
// forced-reinsert and split paths that fire under load.
func TestRStarSurfacesStorageFaults(t *testing.T) {
	items := make([]Item, 250)
	for i := range items {
		x := float64((i * 37) % 100)
		y := float64((i * 61) % 100)
		items[i] = Item{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + 2, MaxY: y + 2}, Val: uint64(i)}
	}
	for _, cfg := range []pager.FaultConfig{
		{Seed: 1, Read: pager.OpFaults{FailEvery: 7}},
		{Seed: 2, Write: pager.OpFaults{FailEvery: 7}},
		{Seed: 3, Alloc: pager.OpFaults{FailEvery: 3}},
		{Seed: 4, Free: pager.OpFaults{FailEvery: 2}},
	} {
		faulty := pager.NewFaultStore(pager.NewMemStore(256), cfg)
		tr, err := New(faulty)
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
		for _, it := range items {
			check(tr.Insert(it), "insert")
		}
		check(tr.SearchRect(geom.Rect{MinX: 10, MinY: 10, MaxX: 70, MaxY: 70}, func(Item) bool { return true }), "search")
		for _, it := range items[:60] {
			_, err := tr.Delete(it)
			check(err, "delete")
		}
		if faulty.Counters().Total() > 0 && opErrs == 0 {
			t.Fatalf("cfg %+v: faults injected but no operation reported one", cfg)
		}
	}
}
