// Package faulttest is the storage-fault sweep harness: it drives every
// index structure in the repository — each Index1D implementation, the
// kinetic structure, and the 2-D indexes — through a build/query/update/
// query workload on top of a fault-injecting page store, and asserts the
// three robustness properties the pager substrate promises:
//
//  1. no operation ever panics, whatever the store does;
//  2. every storage failure surfaces to the caller as an error;
//  3. a store that survives to quiescence (transient faults absorbed by
//     retrying) answers queries exactly as a fault-free store would, and
//     a FileStore whose media flips or tears pages answers exactly or
//     fails with ErrPageCorrupt.
//
// The workloads are deterministic: the same motions, updates and queries
// every run, so a result fingerprint computed on a clean MemStore is the
// ground truth for every faulted run of the same workload.
package faulttest

import (
	"fmt"
	"sort"
	"strings"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/kinetic"
	"mobidx/internal/pager"
	"mobidx/internal/twod"
)

// PageSize is the page size every sweep runs at: small enough that even
// tiny workloads span many pages (deep trees, real splits and merges).
const PageSize = 512

// Workload is one index exercised by the sweep. Run builds the structure
// on the given store, mutates it, and queries it; the returned fingerprint
// canonically encodes every query's result set. Run stops at the first
// error.
type Workload struct {
	Name string
	Run  func(store pager.Store) (string, error)
}

var terrain1D = dual.Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66}

// motions1D is the deterministic 1-D population: speeds sweep the band in
// both directions, positions stride the terrain.
func motions1D(n int) []dual.Motion {
	ms := make([]dual.Motion, n)
	for i := range ms {
		v := 0.2 + 0.2*float64(i%7)
		if i%2 == 1 {
			v = -v
		}
		ms[i] = dual.Motion{OID: dual.OID(i + 1), Y0: float64((i * 137) % 1000), T0: 0, V: v}
	}
	return ms
}

var queries1D = []dual.MORQuery{
	{Y1: 100, Y2: 300, T1: 10, T2: 40},
	{Y1: 0, Y2: 1000, T1: 0, T2: 5},
	{Y1: 450, Y2: 480, T1: 100, T2: 150},
	{Y1: 700, Y2: 900, T1: 0, T2: 60},
}

// fingerprint canonicalizes one result set: sorted, deduplicated OIDs.
func fingerprint(ids []dual.OID) string {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	var prev dual.OID
	for i, id := range ids {
		if i > 0 && id == prev {
			continue
		}
		fmt.Fprintf(&sb, "%d,", id)
		prev = id
	}
	return sb.String()
}

// index is the surface the sweep drives, which every Index1D and Index2D
// implementation has for its own motion and query type.
type index[M, Q any] interface {
	Insert(M) error
	Delete(M) error
	Query(Q, func(dual.OID)) error
}

type (
	index1D = index[dual.Motion, dual.MORQuery]
	index2D = index[twod.Motion2D, twod.MOR2Query]
)

// indexWorkload builds the index from ms — by Insert, or with bulk set by
// BulkLoad: the bottom-up packed index must survive the same faults, and
// updates and queries on top of it behave identically — queries, moves a
// third of the population, and queries again. A motion change is
// Delete(old) + Insert(new), the paper's model.
func indexWorkload[M, Q any](name string, mk func(pager.Store) (index[M, Q], error), bulk bool,
	population func() []M, queries []Q, move func(m *M, i int)) Workload {
	return Workload{Name: name, Run: func(store pager.Store) (string, error) {
		idx, err := mk(store)
		if err != nil {
			return "", err
		}
		ms := population()
		if bulk {
			err = idx.(interface{ BulkLoad([]M) error }).BulkLoad(ms)
		} else {
			for _, m := range ms {
				if err = idx.Insert(m); err != nil {
					break
				}
			}
		}
		if err != nil {
			return "", err
		}
		var out strings.Builder
		runQueries := func() error {
			for _, q := range queries {
				var ids []dual.OID
				if err := idx.Query(q, func(id dual.OID) { ids = append(ids, id) }); err != nil {
					return err
				}
				out.WriteString(fingerprint(ids))
				out.WriteByte(';')
			}
			return nil
		}
		if err := runQueries(); err != nil {
			return "", err
		}
		for i := 0; i < len(ms); i += 3 {
			if err := idx.Delete(ms[i]); err != nil {
				return "", err
			}
			move(&ms[i], i)
			if err := idx.Insert(ms[i]); err != nil {
				return "", err
			}
		}
		if err := runQueries(); err != nil {
			return "", err
		}
		return out.String(), nil
	}}
}

// index1DWorkload is indexWorkload over the deterministic 1-D population.
func index1DWorkload(name string, bulk bool, mk func(pager.Store) (index1D, error)) Workload {
	return indexWorkload(name, mk, bulk, func() []dual.Motion { return motions1D(48) }, queries1D,
		func(m *dual.Motion, i int) {
			m.T0 = 50
			m.Y0 = float64((i*211 + 37) % 1000)
		})
}

var terrain2D = twod.Terrain2D{XMax: 1000, YMax: 1000, VMin: 0.16, VMax: 1.66}

func motions2D(n int) []twod.Motion2D {
	ms := make([]twod.Motion2D, n)
	for i := range ms {
		vx := 0.2 + 0.2*float64(i%7)
		vy := 0.2 + 0.2*float64((i+3)%7)
		if i%2 == 1 {
			vx = -vx
		}
		if i%3 == 1 {
			vy = -vy
		}
		ms[i] = twod.Motion2D{
			OID: dual.OID(i + 1),
			X0:  float64((i * 137) % 1000), Y0: float64((i * 251) % 1000),
			T0: 0, VX: vx, VY: vy,
		}
	}
	return ms
}

var queries2D = []twod.MOR2Query{
	{X1: 100, X2: 400, Y1: 100, Y2: 400, T1: 0, T2: 30},
	{X1: 0, X2: 1000, Y1: 0, Y2: 1000, T1: 0, T2: 1},
	{X1: 600, X2: 700, Y1: 200, Y2: 800, T1: 50, T2: 90},
}

func index2DWorkload(name string, mk func(pager.Store) (index2D, error)) Workload {
	return indexWorkload(name, mk, false, func() []twod.Motion2D { return motions2D(40) }, queries2D,
		func(m *twod.Motion2D, i int) {
			m.T0 = 40
			m.X0 = float64((i*211 + 37) % 1000)
		})
}

// kineticWorkload builds the §3.6 bounded-horizon structure and runs
// instant queries across its window, then destroys it.
func kineticWorkload() Workload {
	return Workload{Name: "kinetic", Run: func(store pager.Store) (string, error) {
		ms := motions1D(48)
		objs := make([]kinetic.Object, len(ms))
		for i, m := range ms {
			objs[i] = kinetic.Object{OID: m.OID, Y0: m.Y0, V: m.V}
		}
		s, err := kinetic.Build(store, objs, 0, 40)
		if err != nil {
			return "", err
		}
		var out strings.Builder
		for _, q := range [][3]float64{{100, 300, 10}, {0, 1000, 0}, {400, 600, 35}, {250, 260, 22}} {
			var ids []dual.OID
			if err := s.Query(q[0], q[1], q[2], func(id dual.OID) { ids = append(ids, id) }); err != nil {
				return "", err
			}
			out.WriteString(fingerprint(ids))
			out.WriteByte(';')
		}
		if err := s.Destroy(); err != nil {
			return "", err
		}
		return out.String(), nil
	}}
}

// Workloads returns every structure the sweep drives: the four Index1D
// implementations, the slow/moving hybrid, the kinetic structure, and the
// two 2-D indexes.
func Workloads() []Workload {
	return []Workload{
		index1DWorkload("dualbp", false, func(st pager.Store) (index1D, error) {
			return core.NewDualBPlus(st, core.DualBPlusConfig{Terrain: terrain1D, C: 4})
		}),
		index1DWorkload("kddual", false, func(st pager.Store) (index1D, error) {
			return core.NewKDDual(st, core.KDDualConfig{Terrain: terrain1D})
		}),
		index1DWorkload("rstarseg", false, func(st pager.Store) (index1D, error) {
			return core.NewRStarSeg(st, core.RStarSegConfig{Terrain: terrain1D})
		}),
		index1DWorkload("parttree", false, func(st pager.Store) (index1D, error) {
			return core.NewPartTreeDual(st, core.PartTreeDualConfig{Terrain: terrain1D})
		}),
		index1DWorkload("speedpart", false, func(st pager.Store) (index1D, error) {
			moving, err := core.NewDualBPlus(st, core.DualBPlusConfig{Terrain: terrain1D, C: 4})
			if err != nil {
				return nil, err
			}
			return core.NewSpeedPartitioned(st, core.SpeedPartitionedConfig{Terrain: terrain1D, SlowCutoff: 0.3}, moving)
		}),
		index1DWorkload("dualbp-bulk", true, func(st pager.Store) (index1D, error) {
			return core.NewDualBPlus(st, core.DualBPlusConfig{Terrain: terrain1D, C: 4})
		}),
		kineticWorkload(),
		index2DWorkload("kd4", func(st pager.Store) (index2D, error) {
			return twod.NewKD4(st, twod.KD4Config{Terrain: terrain2D})
		}),
		index2DWorkload("decomposed", func(st pager.Store) (index2D, error) {
			return twod.NewDecomposed(st, twod.DecomposedConfig{Terrain: terrain2D, C: 4})
		}),
	}
}

// RunGuarded executes a workload, converting any panic into a reported
// value so the sweep can attribute it to its scenario.
func RunGuarded(w Workload, store pager.Store) (res string, err error, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	res, err = w.Run(store)
	return res, err, nil
}
