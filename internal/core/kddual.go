package core

import (
	"fmt"

	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/kdtree"
	"mobidx/internal/pager"
)

// KDDualConfig configures the k-d point-access-method index.
type KDDualConfig struct {
	Terrain dual.Terrain
}

// KDDual is the §3.5.1 approach: store each object's Hough-X dual point
// (v, a) in a disk-based k-d tree point access method (the paper's stand-in
// for the hBΠ/LSD family) and answer the MOR query as the linear-constraint
// wedge of Proposition 1 — the query region of Figure 2.
//
// Positive and negative velocities live in separate trees, as the query
// region differs per sign. Intercepts are kept bounded by the §3.2
// generation rotation: each generation computes a against its epoch start,
// so a ∈ [−VMax·T_period, YMax + VMax·T_period] always.
type KDDual struct {
	cfg   KDDualConfig
	store pager.Store
	rot   *Rotator[dual.Motion, *kdDualGen]
}

// NewKDDual creates the index on the given store.
func NewKDDual(store pager.Store, cfg KDDualConfig) (*KDDual, error) {
	if cfg.Terrain.YMax <= 0 || cfg.Terrain.VMin <= 0 || cfg.Terrain.VMax < cfg.Terrain.VMin {
		return nil, fmt.Errorf("core: invalid terrain %+v", cfg.Terrain)
	}
	k := &KDDual{cfg: cfg, store: store}
	rot, err := NewRotator(cfg.Terrain.TPeriod(), motionTime, func(tref float64) (*kdDualGen, error) {
		return newKDDualGen(store, cfg, tref)
	})
	if err != nil {
		return nil, err
	}
	k.rot = rot
	return k, nil
}

// Insert implements Index1D.
func (k *KDDual) Insert(m dual.Motion) error {
	if err := ValidateMotion(m, k.cfg.Terrain); err != nil {
		return err
	}
	return k.rot.Insert(m)
}

// Delete implements Index1D.
func (k *KDDual) Delete(m dual.Motion) error { return k.rot.Delete(m) }

// Len implements Index1D.
func (k *KDDual) Len() int { return k.rot.Len() }

// Generations exposes the live generation count (normally ≤ 2).
func (k *KDDual) Generations() int { return k.rot.Generations() }

// Query implements Index1D.
func (k *KDDual) Query(q dual.MORQuery, emit func(dual.OID)) error {
	// Objects live in exactly one generation and one sign tree: no
	// cross-generation duplicates are possible.
	for _, g := range k.rot.Live() {
		if err := g.Query(q, emit); err != nil {
			return err
		}
	}
	return nil
}

type kdDualGen struct {
	cfg  KDDualConfig
	tref float64
	pos  *kdtree.Tree
	neg  *kdtree.Tree
	size int
}

func newKDDualGen(store pager.Store, cfg KDDualConfig, tref float64) (*kdDualGen, error) {
	tr := cfg.Terrain
	p := tr.TPeriod()
	// Intercept range for motions updated within [tref, tref+p):
	// a = Y0 − V·(T0−tref), so a ∈ [−VMax·p, YMax] for V > 0 and
	// a ∈ [0, YMax + VMax·p] for V < 0. Small eps margin absorbs float32
	// rounding at the edges.
	const eps = 1e-3
	posWorld := geom.Box{
		Lo: geom.Vec{tr.VMin - eps, -tr.VMax*p - eps},
		Hi: geom.Vec{tr.VMax + eps, tr.YMax + eps},
	}
	negWorld := geom.Box{
		Lo: geom.Vec{-tr.VMax - eps, -eps},
		Hi: geom.Vec{-tr.VMin + eps, tr.YMax + tr.VMax*p + eps},
	}
	pt, err := kdtree.New(store, 2, posWorld)
	if err != nil {
		return nil, err
	}
	nt, err := kdtree.New(store, 2, negWorld)
	if err != nil {
		return nil, err
	}
	return &kdDualGen{cfg: cfg, tref: tref, pos: pt, neg: nt}, nil
}

func (g *kdDualGen) tree(positive bool) *kdtree.Tree {
	if positive {
		return g.pos
	}
	return g.neg
}

func (g *kdDualGen) Len() int { return g.size }

// point is the motion's Hough-X dual (v, a) relative to tref.
func (g *kdDualGen) point(m dual.Motion) kdtree.Point {
	p := dual.HoughX(m, g.tref)
	return kdtree.Pt(geom.Vec{p.X, p.Y}, uint64(m.OID))
}

func (g *kdDualGen) Insert(m dual.Motion) error {
	if err := g.tree(m.V > 0).Insert(g.point(m)); err != nil {
		return err
	}
	g.size++
	return nil
}

func (g *kdDualGen) Delete(m dual.Motion) error {
	found, err := g.tree(m.V > 0).Delete(g.point(m))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: motion of object %d not found in kd index", m.OID)
	}
	g.size--
	return nil
}

func (g *kdDualGen) Query(q dual.MORQuery, emit func(dual.OID)) error {
	for _, positive := range []bool{true, false} {
		// The exact-clip classifier: Figures 6-9 were measured with it.
		reg := dual.HoughXRegion(q, g.tref, g.cfg.Terrain, positive)
		err := g.tree(positive).SearchRegion(reg, func(p kdtree.Point) bool {
			// Points inside the Proposition 1 region are exact answers
			// (modulo the float32 page rounding both sides share).
			emit(dual.OID(p.Val))
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *kdDualGen) Destroy() error {
	if err := g.pos.Destroy(); err != nil {
		return err
	}
	return g.neg.Destroy()
}
