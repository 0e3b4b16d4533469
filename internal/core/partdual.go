package core

import (
	"fmt"

	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/pager"
	"mobidx/internal/parttree"
)

// PartTreeDualConfig configures the partition-tree index.
type PartTreeDualConfig struct {
	Terrain dual.Terrain
}

// PartTreeDual is the (almost) optimal method of §3.4: Hough-X dual points
// in a dynamized external partition tree, answering the Proposition 1
// wedge as a simplex range query in O(n^(1/2+ε) + k) I/Os with linear
// space. The paper notes — and the experiments confirm — that the hidden
// constant makes it slower in practice than the B+-tree approximation; it
// is included as the worst-case-optimal anchor.
type PartTreeDual struct {
	cfg PartTreeDualConfig
	rot *Rotator[dual.Motion, *partDualGen]
}

// NewPartTreeDual creates the index on the given store.
func NewPartTreeDual(store pager.Store, cfg PartTreeDualConfig) (*PartTreeDual, error) {
	if cfg.Terrain.YMax <= 0 || cfg.Terrain.VMin <= 0 || cfg.Terrain.VMax < cfg.Terrain.VMin {
		return nil, fmt.Errorf("core: invalid terrain %+v", cfg.Terrain)
	}
	p := &PartTreeDual{cfg: cfg}
	rot, err := NewRotator(cfg.Terrain.TPeriod(), motionTime, func(tref float64) (*partDualGen, error) {
		pos, err := parttree.New(store, 2)
		if err != nil {
			return nil, err
		}
		neg, err := parttree.New(store, 2)
		if err != nil {
			return nil, err
		}
		return &partDualGen{cfg: cfg, tref: tref, pos: pos, neg: neg}, nil
	})
	if err != nil {
		return nil, err
	}
	p.rot = rot
	return p, nil
}

// Insert implements Index1D.
func (p *PartTreeDual) Insert(m dual.Motion) error {
	if err := ValidateMotion(m, p.cfg.Terrain); err != nil {
		return err
	}
	return p.rot.Insert(m)
}

// Delete implements Index1D.
func (p *PartTreeDual) Delete(m dual.Motion) error { return p.rot.Delete(m) }

// Len implements Index1D.
func (p *PartTreeDual) Len() int { return p.rot.Len() }

// Query implements Index1D.
func (p *PartTreeDual) Query(q dual.MORQuery, emit func(dual.OID)) error {
	for _, g := range p.rot.Live() {
		if err := g.Query(q, emit); err != nil {
			return err
		}
	}
	return nil
}

type partDualGen struct {
	cfg  PartTreeDualConfig
	tref float64
	pos  *parttree.Tree
	neg  *parttree.Tree
	size int
}

func (g *partDualGen) tree(positive bool) *parttree.Tree {
	if positive {
		return g.pos
	}
	return g.neg
}

func (g *partDualGen) Len() int { return g.size }

// point is the motion's Hough-X dual (v, a) relative to tref.
func (g *partDualGen) point(m dual.Motion) parttree.Point {
	p := dual.HoughX(m, g.tref)
	return parttree.Pt(geom.Vec{p.X, p.Y}, uint64(m.OID))
}

func (g *partDualGen) Insert(m dual.Motion) error {
	if err := g.tree(m.V > 0).Insert(g.point(m)); err != nil {
		return err
	}
	g.size++
	return nil
}

func (g *partDualGen) Delete(m dual.Motion) error {
	found, err := g.tree(m.V > 0).Delete(g.point(m))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: motion of object %d not found in partition tree", m.OID)
	}
	g.size--
	return nil
}

func (g *partDualGen) Query(q dual.MORQuery, emit func(dual.OID)) error {
	for _, positive := range []bool{true, false} {
		reg := dual.HoughXRegion(q, g.tref, g.cfg.Terrain, positive)
		err := g.tree(positive).SearchRegion(reg, func(p parttree.Point) bool {
			emit(dual.OID(p.Val))
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *partDualGen) Destroy() error {
	if err := g.pos.Destroy(); err != nil {
		return err
	}
	return g.neg.Destroy()
}
