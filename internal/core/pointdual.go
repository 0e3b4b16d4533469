package core

import (
	"context"
	"fmt"

	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

// PointIndex is the seam between a point-dual index and the paged point
// structure under it: the five methods kdtree.Tree and parttree.Tree have
// in common, at any dimensionality.
type PointIndex interface {
	Insert(p geom.GridPoint) error
	Delete(p geom.GridPoint) (found bool, err error)
	BulkLoad(pts []geom.GridPoint) error
	SearchRegion(reg geom.Region, fn func(geom.GridPoint) bool) error
	Destroy() error
}

// PointDualSpec is everything that tells one point-dual index from
// another: the dual transform (which point a motion becomes, and in which
// velocity-sign tree of its generation it lives), the point structure, and
// the linear-constraint region a query becomes. The four indexes of the
// family — k-d and partition tree, over (v, a) for 1-dimensional motions
// and over (vx, ax, vy, ay) for planar ones — are four specs.
type PointDualSpec[M, Q any] struct {
	// Period is the §3.2 rotation period; Time is a motion's update time,
	// which picks its generation.
	Period float64
	Time   func(M) float64
	// Slots is the number of sign trees per generation (2^axes); Slot is
	// the one holding m, and Point is m's dual point relative to the
	// generation's reference time, carrying the object id as Val.
	Slots int
	Slot  func(M) int
	Point func(m M, tref float64) geom.GridPoint
	// NewTree makes the empty point structure of one slot.
	NewTree func(store pager.Store, slot int) (PointIndex, error)
	// Region is q in the dual space of one slot's tree.
	Region func(q Q, tref float64, slot int) geom.Region
	// Filter, when set, is the exact test of a point the region admitted
	// (d = 4: the per-axis wedges may hold at different instants). Nil
	// means the region is exact.
	Filter func(p geom.GridPoint, tref float64, q Q) bool
	// CheckMotion and CheckQuery reject hostile input (non-finite values,
	// off-terrain motions, reversed ranges) before it reaches a tree.
	CheckMotion func(M) error
	CheckQuery  func(Q) error
}

// PointDual is the paper's "index the dual point, answer a
// linear-constraint query" method (§3.4, §3.5.1, §4.2): every motion is a
// point in a paged point structure, positive and negative velocities in
// separate trees since the query region differs per sign, and generations
// rotated per §3.2 so that intercepts, computed against each generation's
// epoch start, stay bounded however long the system runs.
type PointDual[M, Q any] struct {
	spec  PointDualSpec[M, Q]
	store pager.Store
	rot   *Rotator[M, *pointGen[M, Q]]
}

// NewPointDual creates an empty index on store.
func NewPointDual[M, Q any](store pager.Store, spec PointDualSpec[M, Q]) (*PointDual[M, Q], error) {
	d := &PointDual[M, Q]{spec: spec, store: store}
	rot, err := NewRotator(spec.Period, spec.Time, d.newGen)
	if err != nil {
		return nil, err
	}
	d.rot = rot
	return d, nil
}

// newGen makes the empty generation whose dual points are relative to tref.
func (d *PointDual[M, Q]) newGen(tref float64) (*pointGen[M, Q], error) {
	g := &pointGen[M, Q]{spec: &d.spec, tref: tref}
	for slot := 0; slot < d.spec.Slots; slot++ {
		t, err := d.spec.NewTree(d.store, slot)
		if err != nil {
			return nil, err
		}
		g.trees = append(g.trees, t)
	}
	return g, nil
}

// Insert adds an object's current motion.
func (d *PointDual[M, Q]) Insert(m M) error {
	if err := d.spec.CheckMotion(m); err != nil {
		return err
	}
	return d.rot.Insert(m)
}

// Delete removes a motion previously added; the exact motion must be
// passed back.
func (d *PointDual[M, Q]) Delete(m M) error { return d.rot.Delete(m) }

// Len returns the number of indexed objects.
func (d *PointDual[M, Q]) Len() int { return d.rot.Len() }

// Generations exposes the live generation count (normally ≤ 2).
func (d *PointDual[M, Q]) Generations() int { return d.rot.Generations() }

// BulkLoad replaces the index's contents with the given motions, packing
// every sign tree of every generation with its structure's bottom-up
// builder. On a batching store the reindex commits atomically, and a
// failure midway leaves the store as it was. The input slice is not
// modified.
func (d *PointDual[M, Q]) BulkLoad(ms []M) error {
	for _, m := range ms {
		if err := d.spec.CheckMotion(m); err != nil {
			return err
		}
	}
	return pager.RunBatch(d.store, func() error {
		return d.rot.BulkLoad(ms, (*pointGen[M, Q]).load)
	})
}

// Query reports every object whose motion satisfies q, each exactly once:
// an object lives in one generation and one sign tree.
func (d *PointDual[M, Q]) Query(q Q, emit func(dual.OID)) error {
	if err := d.spec.CheckQuery(q); err != nil {
		return err
	}
	for _, scan := range d.scans(q) {
		if err := scan(emit); err != nil {
			return err
		}
	}
	return nil
}

// QueryParallel answers q by running the sign-tree scans of every live
// generation concurrently on exec; ctx stops the fan-out between scans.
// The returned OIDs are sorted ascending and deduplicated; the slice is
// identical for every worker count. The scans only read index pages, so
// QueryParallel may run concurrently with other queries but not with
// Insert, Delete or BulkLoad.
func (d *PointDual[M, Q]) QueryParallel(ctx context.Context, exec *Executor, q Q) ([]dual.OID, error) {
	if err := d.spec.CheckQuery(q); err != nil {
		return nil, err
	}
	return RunSubqueriesCtx(ctx, exec, d.scans(q))
}

// scans returns the pieces of q: one sign-tree scan per slot of every live
// generation, in epoch and slot order.
func (d *PointDual[M, Q]) scans(q Q) []func(emit func(dual.OID)) error {
	var scans []func(emit func(dual.OID)) error
	for _, g := range d.rot.Live() {
		for slot := range g.trees {
			scans = append(scans, func(emit func(dual.OID)) error { return g.scan(slot, q, emit) })
		}
	}
	return scans
}

// pointGen is one generation: a tree per velocity-sign slot, dual points
// relative to tref.
type pointGen[M, Q any] struct {
	spec  *PointDualSpec[M, Q]
	tref  float64
	trees []PointIndex
	size  int
}

func (g *pointGen[M, Q]) Len() int { return g.size }

func (g *pointGen[M, Q]) Insert(m M) error {
	if err := g.trees[g.spec.Slot(m)].Insert(g.spec.Point(m, g.tref)); err != nil {
		return err
	}
	g.size++
	return nil
}

func (g *pointGen[M, Q]) Delete(m M) error {
	p := g.spec.Point(m, g.tref)
	found, err := g.trees[g.spec.Slot(m)].Delete(p)
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("core: motion of object %d not found in the point index", p.Val)
	}
	g.size--
	return nil
}

// load fills a fresh generation from the motions of its epoch.
func (g *pointGen[M, Q]) load(ms []M) error {
	pts := make([][]geom.GridPoint, len(g.trees))
	for _, m := range ms {
		slot := g.spec.Slot(m)
		pts[slot] = append(pts[slot], g.spec.Point(m, g.tref))
	}
	for slot, t := range g.trees {
		if err := t.BulkLoad(pts[slot]); err != nil {
			return err
		}
	}
	g.size = len(ms)
	return nil
}

// scan searches one sign tree with q's region there.
func (g *pointGen[M, Q]) scan(slot int, q Q, emit func(dual.OID)) error {
	filter := g.spec.Filter
	return g.trees[slot].SearchRegion(g.spec.Region(q, g.tref, slot), func(p geom.GridPoint) bool {
		if filter == nil || filter(p, g.tref, q) {
			emit(dual.OID(p.Val))
		}
		return true
	})
}

func (g *pointGen[M, Q]) Destroy() error {
	for _, t := range g.trees {
		if err := t.Destroy(); err != nil {
			return err
		}
	}
	return nil
}
