package kinetic

import (
	"errors"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// TestKineticSurfacesStorageFaults: the §3.6 structure's build phase (bulk
// page writes) and versioned query descent must both propagate storage
// failures as errors.
func TestKineticSurfacesStorageFaults(t *testing.T) {
	objs := make([]Object, 200)
	for i := range objs {
		v := 0.2 + 0.2*float64(i%7)
		if i%2 == 1 {
			v = -v
		}
		objs[i] = Object{OID: dual.OID(i + 1), Y0: float64((i * 137) % 1000), V: v}
	}
	for _, cfg := range []pager.FaultConfig{
		{Seed: 1, Read: pager.OpFaults{FailEvery: 11}},
		{Seed: 2, Write: pager.OpFaults{FailEvery: 11}},
		{Seed: 3, Alloc: pager.OpFaults{FailEvery: 5}},
	} {
		faulty := pager.NewFaultStore(pager.NewMemStore(512), cfg)
		s, err := Build(faulty, objs, 0, 60)
		if err != nil {
			if !errors.Is(err, pager.ErrInjected) && !errors.Is(err, pager.ErrPageNotFound) {
				t.Fatalf("cfg %+v: build error outside taxonomy: %v", cfg, err)
			}
			continue
		}
		var opErrs int
		for _, q := range [][3]float64{{100, 300, 10}, {0, 1000, 0}, {400, 600, 55}} {
			if err := s.Query(q[0], q[1], q[2], func(dual.OID) {}); err != nil {
				if !errors.Is(err, pager.ErrInjected) && !errors.Is(err, pager.ErrPageNotFound) {
					t.Fatalf("cfg %+v: query error outside taxonomy: %v", cfg, err)
				}
				opErrs++
			}
		}
		if err := s.Destroy(); err != nil {
			if !errors.Is(err, pager.ErrInjected) && !errors.Is(err, pager.ErrPageNotFound) {
				t.Fatalf("cfg %+v: destroy error outside taxonomy: %v", cfg, err)
			}
			opErrs++
		}
		if faulty.Counters().Total() > 0 && opErrs == 0 && faulty.Counters().ReadFaults > 0 {
			t.Fatalf("cfg %+v: read faults injected after build but no error reported", cfg)
		}
	}
}
