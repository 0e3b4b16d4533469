package core

import (
	"fmt"

	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/pager"
	"mobidx/internal/rstar"
)

// RStarSegConfig configures the baseline.
type RStarSegConfig struct {
	Terrain dual.Terrain
}

// RStarSeg is the traditional-SAM baseline of §3.1/§5: each motion is a
// trajectory line segment in the (t, y) plane, running from the update
// point (T0, Y0) to the terrain border the object is heading for (where it
// must issue its next update), approximated by its minimum bounding
// rectangle in an R*-tree. The MOR query is the rectangle
// [T1,T2] × [Y1,Y2]; candidates are filtered by exact segment/rectangle
// intersection, with the segment's orientation recovered from the
// velocity-sign bit packed into the stored reference.
//
// This is the method the paper shows performs worst on both queries
// (Figures 6-7) and updates (">90 I/Os per update", §5): the MBR of a long
// diagonal segment covers far more area than the trajectory does.
type RStarSeg struct {
	cfg  RStarSegConfig
	tree *rstar.Tree
}

// NewRStarSeg creates the baseline index on the given store.
func NewRStarSeg(store pager.Store, cfg RStarSegConfig) (*RStarSeg, error) {
	if cfg.Terrain.YMax <= 0 || cfg.Terrain.VMin <= 0 || cfg.Terrain.VMax < cfg.Terrain.VMin {
		return nil, fmt.Errorf("core: invalid terrain %+v", cfg.Terrain)
	}
	t, err := rstar.New(store, rstar.Config{})
	if err != nil {
		return nil, err
	}
	return &RStarSeg{cfg: cfg, tree: t}, nil
}

// segment returns the trajectory segment of m in the (t, y) plane, from
// the update point to the border the object will hit.
func (r *RStarSeg) segment(m dual.Motion) (geom.Segment, error) {
	if m.V == 0 {
		return geom.Segment{}, fmt.Errorf("core: RStarSeg indexes moving objects only (v != 0)")
	}
	var yEnd float64
	if m.V > 0 {
		yEnd = r.cfg.Terrain.YMax
	}
	tEnd := m.T0 + (yEnd-m.Y0)/m.V
	return geom.Segment{
		A: geom.Point{X: m.T0, Y: m.Y0},
		B: geom.Point{X: tEnd, Y: yEnd},
	}, nil
}

// segItem is the R*-tree entry of m's trajectory segment seg: its MBR,
// and the object id packed over the velocity-sign bit, which is all
// segHit needs to rebuild the exact segment from the entry alone.
func segItem(m dual.Motion, seg geom.Segment) rstar.Item {
	val := uint64(m.OID) << 1
	if m.V < 0 {
		val |= 1
	}
	return rstar.Item{Rect: seg.Bound(), Val: val}
}

// segOID is the object id of an entry segItem built.
func segOID(it rstar.Item) dual.OID { return dual.OID(it.Val >> 1) }

// segHit reports whether the segment an entry stores meets rect: a
// rising segment runs corner to corner up its MBR, a falling one down.
func segHit(it rstar.Item, rect geom.Rect) bool {
	seg := geom.Segment{
		A: geom.Point{X: it.Rect.MinX, Y: it.Rect.MinY},
		B: geom.Point{X: it.Rect.MaxX, Y: it.Rect.MaxY},
	}
	if it.Val&1 == 1 {
		seg.A.Y, seg.B.Y = it.Rect.MaxY, it.Rect.MinY
	}
	return seg.IntersectsRect(rect)
}

// Insert implements Index1D.
func (r *RStarSeg) Insert(m dual.Motion) error {
	if err := ValidateMotion(m, r.cfg.Terrain); err != nil {
		return err
	}
	seg, err := r.segment(m)
	if err != nil {
		return err
	}
	return r.tree.Insert(segItem(m, seg))
}

// Delete implements Index1D.
func (r *RStarSeg) Delete(m dual.Motion) error {
	seg, err := r.segment(m)
	if err != nil {
		return err
	}
	found, err := r.tree.Delete(segItem(m, seg))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: motion of object %d not found in R*-tree", m.OID)
	}
	return nil
}

// Len implements Index1D.
func (r *RStarSeg) Len() int { return r.tree.Len() }

// Query implements Index1D.
func (r *RStarSeg) Query(q dual.MORQuery, emit func(dual.OID)) error {
	if err := ValidateQuery(q); err != nil {
		return err
	}
	rect := geom.Rect{MinX: q.T1, MinY: q.Y1, MaxX: q.T2, MaxY: q.Y2}
	return r.tree.SearchRect(rect, func(it rstar.Item) bool {
		if segHit(it, rect) {
			emit(segOID(it))
		}
		return true
	})
}

// Interface compliance checks.
var (
	_ Index1D = (*DualBPlus)(nil)
	_ Index1D = (*HoughXDual)(nil)
	_ Index1D = (*RStarSeg)(nil)
)
