package core

import (
	"fmt"

	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/kdtree"
	"mobidx/internal/pager"
	"mobidx/internal/parttree"
)

// HoughXDual is a point-dual index over the Hough-X duals (v, a) of
// 1-dimensional motions, answering the MOR query as the linear-constraint
// wedge of Proposition 1 — the query region of Figure 2.
type HoughXDual = PointDual[dual.Motion, dual.MORQuery]

// KDDualConfig configures the k-d point-access-method index.
type KDDualConfig struct {
	Terrain dual.Terrain
}

// PartTreeDualConfig configures the partition-tree index.
type PartTreeDualConfig struct {
	Terrain dual.Terrain
}

// NewKDDual creates the §3.5.1 index on the given store: the dual points
// in a disk-based k-d tree point access method (the paper's stand-in for
// the hBΠ/LSD family).
func NewKDDual(store pager.Store, cfg KDDualConfig) (*HoughXDual, error) {
	tr := cfg.Terrain
	return newHoughXDual(store, tr, func(store pager.Store, slot int) (PointIndex, error) {
		lo, hi := AxisWorld(tr, tr.TPeriod(), slot == 1)
		return kdtree.New(store, 2, geom.Box{Lo: geom.Vec{lo[0], lo[1]}, Hi: geom.Vec{hi[0], hi[1]}})
	})
}

// NewPartTreeDual creates the (almost) optimal index of §3.4 on the given
// store: the dual points in a dynamized external partition tree, answering
// the wedge as a simplex range query in O(n^(1/2+ε) + k) I/Os with linear
// space. The paper notes — and the experiments confirm — that the hidden
// constant makes it slower in practice than the B+-tree approximation; it
// is included as the worst-case-optimal anchor.
func NewPartTreeDual(store pager.Store, cfg PartTreeDualConfig) (*HoughXDual, error) {
	return newHoughXDual(store, cfg.Terrain, func(store pager.Store, _ int) (PointIndex, error) {
		return parttree.New(store, 2)
	})
}

// AxisWorld bounds the Hough-X dual points (v, a) of one axis and one
// velocity sign inside a generation of period p: for motions updated
// within [tref, tref+p), a = Y0 − V·(T0−tref) lies in [−VMax·p, YMax] for
// V > 0 and in [0, YMax + VMax·p] for V < 0. A small margin absorbs
// float32 rounding at the edges. The k-d trees need it as their world.
func AxisWorld(tr dual.Terrain, p float64, neg bool) (lo, hi [2]float64) {
	const eps = 1e-3
	if neg {
		return [2]float64{-tr.VMax - eps, -eps}, [2]float64{-tr.VMin + eps, tr.YMax + tr.VMax*p + eps}
	}
	return [2]float64{tr.VMin - eps, -tr.VMax*p - eps}, [2]float64{tr.VMax + eps, tr.YMax + eps}
}

// newHoughXDual is the d = 2 member of the point-dual family over the
// given point structure: slot 0 holds the positive velocities, slot 1 the
// negative ones, and the exact-clip classifier of dual.HoughXRegion (what
// Figures 6-9 were measured with) makes every admitted point an answer,
// modulo the float32 page rounding both sides share.
func newHoughXDual(store pager.Store, tr dual.Terrain, newTree func(pager.Store, int) (PointIndex, error)) (*HoughXDual, error) {
	if tr.YMax <= 0 || tr.VMin <= 0 || tr.VMax < tr.VMin {
		return nil, fmt.Errorf("core: invalid terrain %+v", tr)
	}
	return NewPointDual(store, PointDualSpec[dual.Motion, dual.MORQuery]{
		Period: tr.TPeriod(),
		Time:   motionTime,
		Slots:  2,
		Slot: func(m dual.Motion) int {
			if m.V > 0 {
				return 0
			}
			return 1
		},
		Point: func(m dual.Motion, tref float64) geom.GridPoint {
			p := dual.HoughX(m, tref)
			return geom.Pt(geom.Vec{p.X, p.Y}, uint64(m.OID))
		},
		NewTree: newTree,
		Region: func(q dual.MORQuery, tref float64, slot int) geom.Region {
			return dual.HoughXRegion(q, tref, tr, slot == 0)
		},
		CheckMotion: func(m dual.Motion) error { return ValidateMotion(m, tr) },
		CheckQuery:  ValidateQuery,
	})
}
