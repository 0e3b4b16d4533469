package twod

import (
	"fmt"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/parttree"
)

// PartTree4Config configures the 4-dimensional partition-tree method.
type PartTree4Config struct {
	Terrain Terrain2D
}

// PartTree4 realizes the §4.2 remark that the two-dimensional MOR query,
// mapped to a simplex in the 4-dimensional dual space (vx, ax, vy, ay),
// can be answered by a 4-dimensional partition tree in O(n^(3/4+ε) + k)
// I/Os — "almost matching the lower bound for four dimensions". Like the
// other dual indexes it keeps four quadrant trees per generation (one per
// velocity-sign pair) under the §3.2 rotation.
type PartTree4 struct {
	cfg PartTree4Config
	rot *core.Rotator[Motion2D, *part4Gen]
}

// NewPartTree4 creates the index on the given store.
func NewPartTree4(store pager.Store, cfg PartTree4Config) (*PartTree4, error) {
	t := cfg.Terrain
	if t.XMax <= 0 || t.YMax <= 0 || t.VMin <= 0 || t.VMax < t.VMin {
		return nil, fmt.Errorf("twod: invalid terrain %+v", t)
	}
	p := &PartTree4{cfg: cfg}
	rot, err := core.NewRotator(t.TPeriod(), motion2DTime, func(tref float64) (*part4Gen, error) {
		g := &part4Gen{cfg: cfg, tref: tref}
		for q := 0; q < 4; q++ {
			tree, err := parttree.New(store, 4)
			if err != nil {
				return nil, err
			}
			g.quads[q] = tree
		}
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	p.rot = rot
	return p, nil
}

// Insert implements Index2D.
func (p *PartTree4) Insert(m Motion2D) error {
	if err := p.cfg.Terrain.validate(m); err != nil {
		return err
	}
	return p.rot.Insert(m)
}

// Delete implements Index2D.
func (p *PartTree4) Delete(m Motion2D) error { return p.rot.Delete(m) }

// Len implements Index2D.
func (p *PartTree4) Len() int { return p.rot.Len() }

// Query implements Index2D.
func (p *PartTree4) Query(q MOR2Query, emit func(dual.OID)) error {
	for _, g := range p.rot.Live() {
		if err := g.Query(q, emit); err != nil {
			return err
		}
	}
	return nil
}

type part4Gen struct {
	cfg   PartTree4Config
	tref  float64
	quads [4]*parttree.Tree
	size  int
}

func (g *part4Gen) Len() int { return g.size }

func (g *part4Gen) Insert(m Motion2D) error {
	tree := g.quads[quadrant(m.VX, m.VY)]
	if err := tree.Insert(parttree.Pt(dualVec(m, g.tref), uint64(m.OID))); err != nil {
		return err
	}
	g.size++
	return nil
}

func (g *part4Gen) Delete(m Motion2D) error {
	tree := g.quads[quadrant(m.VX, m.VY)]
	found, err := tree.Delete(parttree.Pt(dualVec(m, g.tref), uint64(m.OID)))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("twod: motion of object %d not found in 4D partition tree", m.OID)
	}
	g.size--
	return nil
}

func (g *part4Gen) Query(q MOR2Query, emit func(dual.OID)) error {
	for quad := 0; quad < 4; quad++ {
		negX := quad&1 != 0
		negY := quad&2 != 0
		reg := constraints4(q, g.tref, g.cfg.Terrain, negX, negY)
		err := g.quads[quad].SearchRegion(reg, func(p parttree.Point) bool {
			if m := motionAt(p.Vec(), dual.OID(p.Val), g.tref); m.Matches(q) {
				emit(m.OID)
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (g *part4Gen) Destroy() error {
	for _, t := range g.quads {
		if err := t.Destroy(); err != nil {
			return err
		}
	}
	return nil
}

// Interface compliance.
var _ Index2D = (*PartTree4)(nil)
