// Package twod implements the full 2-dimensional problem of §4.2: objects
// move freely in the rectangle [0, XMax] × [0, YMax] with a constant
// velocity vector, and the two-dimensional MOR query asks which objects
// are inside a query rectangle at some instant of a future time window.
//
// Three methods are provided, mirroring the paper's discussion:
//
//   - NewKD4 and NewPartTree4: project the trajectory onto the (x, t) and
//     (y, t) planes and take the Hough-X dual of each, giving the
//     4-dimensional point (vx, ax, vy, ay). The query becomes a conjunction
//     of the two planes' Proposition 1 wedges — a simplex in ℝ⁴ — answered
//     by a paged k-d tree or partition tree at d = 4, with candidates
//     filtered exactly (the conjunction alone over-approximates, because
//     the x- and y-conditions may hold at different instants). Both are
//     core.PointDual, the rotated point-dual index the 1-dimensional k-d
//     and partition-tree methods are too.
//
//   - Decomposed: answer two 1-dimensional MOR queries, one per axis, with
//     the Dual-B+ method of §3.5.2, intersect the answer sets by object
//     id, and filter exactly. This is the paper's "decompose the motion
//     into two independent motions" alternative.
//
// All use the §3.2 generation rotation to keep dual intercepts bounded.
//
// Per-axis speed model: each velocity component satisfies
// VMin ≤ |vx|, |vy| ≤ VMax, the assumption under which both the per-axis
// dual transforms and the per-axis forced-update period are valid (an
// object hits some border within min(XMax, YMax)/VMin).
package twod

import (
	"context"
	"fmt"
	"math"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/kdtree"
	"mobidx/internal/pager"
	"mobidx/internal/parttree"
)

// Motion2D is the motion information of one object in the plane.
type Motion2D struct {
	OID    dual.OID
	X0, Y0 float64 // position at time T0
	T0     float64
	VX, VY float64
}

// At returns the object's position at time t.
func (m Motion2D) At(t float64) (x, y float64) {
	return m.X0 + m.VX*(t-m.T0), m.Y0 + m.VY*(t-m.T0)
}

// XMotion and YMotion project the motion per axis.
func (m Motion2D) XMotion() dual.Motion {
	return dual.Motion{OID: m.OID, Y0: m.X0, T0: m.T0, V: m.VX}
}

// YMotion projects the motion onto the y axis.
func (m Motion2D) YMotion() dual.Motion {
	return dual.Motion{OID: m.OID, Y0: m.Y0, T0: m.T0, V: m.VY}
}

// MOR2Query is the two-dimensional MOR query of §2.
type MOR2Query struct {
	X1, X2 float64
	Y1, Y2 float64
	T1, T2 float64
}

// xQuery and yQuery project the query per axis.
func (q MOR2Query) xQuery() dual.MORQuery {
	return dual.MORQuery{Y1: q.X1, Y2: q.X2, T1: q.T1, T2: q.T2}
}

func (q MOR2Query) yQuery() dual.MORQuery {
	return dual.MORQuery{Y1: q.Y1, Y2: q.Y2, T1: q.T1, T2: q.T2}
}

// Matches is the exact membership predicate: the object is inside the
// rectangle at some instant of [T1, T2] iff the per-axis residence time
// intervals and the window have a common point.
func (m Motion2D) Matches(q MOR2Query) bool {
	lo, hi := q.T1, q.T2
	clip := func(p0, v, a, b float64) bool {
		// Times with a <= p0 + v·(t−T0) <= b.
		if geom.ApproxEq(v, 0) {
			return p0 >= a-geom.Eps && p0 <= b+geom.Eps
		}
		tA := m.T0 + (a-p0)/v
		tB := m.T0 + (b-p0)/v
		if tA > tB {
			tA, tB = tB, tA
		}
		if tA > lo {
			lo = tA
		}
		if tB < hi {
			hi = tB
		}
		return true
	}
	if !clip(m.X0, m.VX, q.X1, q.X2) {
		return false
	}
	if !clip(m.Y0, m.VY, q.Y1, q.Y2) {
		return false
	}
	return lo <= hi+1e-9
}

// Terrain2D bounds the plane and the per-axis speed band.
type Terrain2D struct {
	XMax, YMax float64
	VMin, VMax float64
}

// TPeriod is the forced-update bound: an object reaches some border within
// min(XMax, YMax)/VMin.
func (t Terrain2D) TPeriod() float64 { return math.Min(t.XMax, t.YMax) / t.VMin }

func (t Terrain2D) xTerrain() dual.Terrain {
	return dual.Terrain{YMax: t.XMax, VMin: t.VMin, VMax: t.VMax}
}

func (t Terrain2D) yTerrain() dual.Terrain {
	return dual.Terrain{YMax: t.YMax, VMin: t.VMin, VMax: t.VMax}
}

// validate is the admission test of every 2-dimensional index, the
// 1-dimensional one on each axis: m is finite, each velocity component is
// inside the speed band and the position is inside the terrain.
func (t Terrain2D) validate(m Motion2D) error {
	if err := core.ValidateMotion(m.XMotion(), t.xTerrain()); err != nil {
		return fmt.Errorf("twod: x axis: %w", err)
	}
	if err := core.ValidateMotion(m.YMotion(), t.yTerrain()); err != nil {
		return fmt.Errorf("twod: y axis: %w", err)
	}
	return nil
}

// validateQuery is the admission test of every 2-dimensional query entry
// point, the 1-dimensional one on each axis: q's bounds are finite and
// ordered. A NaN bound classifies every cell "outside" or "inside" and
// would answer with the wrong objects and no error.
func validateQuery(q MOR2Query) error {
	if err := core.ValidateQuery(q.xQuery()); err != nil {
		return fmt.Errorf("twod: x axis: %w", err)
	}
	if err := core.ValidateQuery(q.yQuery()); err != nil {
		return fmt.Errorf("twod: y axis: %w", err)
	}
	return nil
}

// Index2D answers two-dimensional MOR queries.
type Index2D interface {
	Insert(m Motion2D) error
	Delete(m Motion2D) error
	Query(q MOR2Query, emit func(dual.OID)) error
	Len() int
}

// ---------------------------------------------------------------------------
// The 4-dimensional duals: k-d tree and partition tree
// ---------------------------------------------------------------------------

// Dual4 is a point-dual index over the 4-dimensional dual points
// (vx, ax, vy, ay), one tree per velocity quadrant and generation.
type Dual4 = core.PointDual[Motion2D, MOR2Query]

// KD4Config configures the 4-dimensional dual k-d method.
type KD4Config struct {
	Terrain Terrain2D
}

// PartTree4Config configures the 4-dimensional partition-tree method.
type PartTree4Config struct {
	Terrain Terrain2D
}

// NewKD4 creates the 4-dimensional dual k-d index on the given store.
func NewKD4(store pager.Store, cfg KD4Config) (*Dual4, error) {
	t := cfg.Terrain
	return newDual4(store, t, func(store pager.Store, quad int) (core.PointIndex, error) {
		// Per-axis ranges mirror the 1-dimensional analysis, with the
		// planar period.
		xLo, xHi := core.AxisWorld(t.xTerrain(), t.TPeriod(), quad&1 != 0)
		yLo, yHi := core.AxisWorld(t.yTerrain(), t.TPeriod(), quad&2 != 0)
		return kdtree.New(store, 4, geom.Box{
			Lo: geom.Vec{xLo[0], xLo[1], yLo[0], yLo[1]},
			Hi: geom.Vec{xHi[0], xHi[1], yHi[0], yHi[1]},
		})
	})
}

// NewPartTree4 creates the index that realizes the §4.2 remark that the
// two-dimensional MOR query, mapped to a simplex in the 4-dimensional dual
// space, can be answered by a 4-dimensional partition tree in
// O(n^(3/4+ε) + k) I/Os — "almost matching the lower bound for four
// dimensions".
func NewPartTree4(store pager.Store, cfg PartTree4Config) (*Dual4, error) {
	return newDual4(store, cfg.Terrain, func(store pager.Store, _ int) (core.PointIndex, error) {
		return parttree.New(store, 4)
	})
}

// newDual4 is the d = 4 member of the point-dual family over the given
// point structure. Quadrant (vx<0 ? 1 : 0) | (vy<0 ? 2 : 0) is the slot.
// The conjunction of the per-axis wedges over-approximates (the axis
// conditions may hold at different instants), so candidates are filtered
// with the exact 2-dimensional predicate rebuilt from the dual point.
func newDual4(store pager.Store, t Terrain2D, newTree func(pager.Store, int) (core.PointIndex, error)) (*Dual4, error) {
	if t.XMax <= 0 || t.YMax <= 0 || t.VMin <= 0 || t.VMax < t.VMin {
		return nil, fmt.Errorf("twod: invalid terrain %+v", t)
	}
	return core.NewPointDual(store, core.PointDualSpec[Motion2D, MOR2Query]{
		Period: t.TPeriod(),
		Time:   func(m Motion2D) float64 { return m.T0 },
		Slots:  4,
		Slot: func(m Motion2D) int {
			quad := 0
			if m.VX < 0 {
				quad |= 1
			}
			if m.VY < 0 {
				quad |= 2
			}
			return quad
		},
		Point: func(m Motion2D, tref float64) geom.GridPoint {
			x, y := m.At(tref)
			return geom.Pt(geom.Vec{m.VX, x, m.VY, y}, uint64(m.OID))
		},
		NewTree: newTree,
		Region: func(q MOR2Query, tref float64, quad int) geom.Region {
			return constraints4(q, tref, t, quad&1 != 0, quad&2 != 0)
		},
		Filter: func(p geom.GridPoint, tref float64, q MOR2Query) bool {
			v := p.Vec()
			return Motion2D{X0: v[1], Y0: v[3], T0: tref, VX: v[0], VY: v[2]}.Matches(q)
		},
		CheckMotion: t.validate,
		CheckQuery:  validateQuery,
	})
}

// constraints4 builds the ℝ⁴ simplex: the Proposition 1 wedge of the x
// projection on dims (0,1) and of the y projection on dims (2,3). The
// region classifies a cell one half-space at a time (geom.HalfSpaces): the
// eight constraints are never clipped against a cell together. Exact
// per-projection clipping was measured in its place and changes no I/O
// count: the 4-D k-d dual reads 141 of 141 pages at N = 20k and 749 of 749
// at 100k (ROADMAP item 3(b)).
func constraints4(q MOR2Query, tref float64, tr Terrain2D, negX, negY bool) geom.HalfSpaces {
	hs := make([]geom.HalfSpace, 0, 8)
	add := func(vDim int, axis dual.MORQuery, t dual.Terrain, neg bool) {
		for _, c := range dual.HoughXRegion(axis, tref, t, !neg).Cs {
			h := geom.HalfSpace{C: c.C}
			h.Coef[vDim], h.Coef[vDim+1] = c.A, c.B
			hs = append(hs, h)
		}
	}
	add(0, q.xQuery(), tr.xTerrain(), negX)
	add(2, q.yQuery(), tr.yTerrain(), negY)
	return geom.HalfSpaces{D: 4, Hs: hs}
}

// ---------------------------------------------------------------------------
// Decomposed: two 1-dimensional Dual-B+ indexes intersected
// ---------------------------------------------------------------------------

// DecomposedConfig configures the per-axis decomposition method.
type DecomposedConfig struct {
	Terrain Terrain2D
	// C is the observation-index count per axis (see core.DualBPlusConfig).
	C int
	// Codec selects the on-page record precision of the axis indexes.
	Codec bptree.Codec
}

// Decomposed answers the two-dimensional MOR query by running one
// 1-dimensional MOR query per axis and intersecting the answers by object
// id, then filtering exactly against the stored motion.
type Decomposed struct {
	cfg     DecomposedConfig
	xIndex  *core.DualBPlus
	yIndex  *core.DualBPlus
	motions map[dual.OID]Motion2D
}

// NewDecomposed creates the index; both axis indexes share the store.
func NewDecomposed(store pager.Store, cfg DecomposedConfig) (*Decomposed, error) {
	t := cfg.Terrain
	if t.XMax <= 0 || t.YMax <= 0 || t.VMin <= 0 || t.VMax < t.VMin {
		return nil, fmt.Errorf("twod: invalid terrain %+v", t)
	}
	xi, err := core.NewDualBPlus(store, core.DualBPlusConfig{Terrain: t.xTerrain(), C: cfg.C, Codec: cfg.Codec})
	if err != nil {
		return nil, err
	}
	yi, err := core.NewDualBPlus(store, core.DualBPlusConfig{Terrain: t.yTerrain(), C: cfg.C, Codec: cfg.Codec})
	if err != nil {
		return nil, err
	}
	return &Decomposed{cfg: cfg, xIndex: xi, yIndex: yi, motions: make(map[dual.OID]Motion2D)}, nil
}

// Insert implements Index2D.
func (d *Decomposed) Insert(m Motion2D) error {
	if err := d.cfg.Terrain.validate(m); err != nil {
		return err
	}
	if _, dup := d.motions[m.OID]; dup {
		return fmt.Errorf("twod: object %d already indexed", m.OID)
	}
	if err := d.xIndex.Insert(m.XMotion()); err != nil {
		return err
	}
	if err := d.yIndex.Insert(m.YMotion()); err != nil {
		return err
	}
	d.motions[m.OID] = m
	return nil
}

// Delete implements Index2D.
func (d *Decomposed) Delete(m Motion2D) error {
	if err := d.xIndex.Delete(m.XMotion()); err != nil {
		return err
	}
	if err := d.yIndex.Delete(m.YMotion()); err != nil {
		return err
	}
	delete(d.motions, m.OID)
	return nil
}

// Len implements Index2D.
func (d *Decomposed) Len() int { return len(d.motions) }

// Query implements Index2D: it emits, in ascending order, the answer
// QueryParallel gives on a one-worker executor, and on an error emits
// nothing.
func (d *Decomposed) Query(q MOR2Query, emit func(dual.OID)) error {
	ids, err := d.QueryParallel(context.Background(), core.NewExecutor(1), q)
	if err != nil {
		return err
	}
	for _, id := range ids {
		emit(id)
	}
	return nil
}

// QueryParallel answers q by running the pieces of the two per-axis
// 1-dimensional MOR queries — their Lemma 1 decompositions — as one flat
// list on exec (core.RunPiecesCtx; ctx stops the fan-out between pieces),
// so the pieces of the slower axis do not wait for the faster axis. It
// then intersects the per-axis answers by object id and filters with the
// exact 2-dimensional predicate. The returned OIDs are sorted ascending
// and deduplicated; the slice is identical for every worker count. Safe
// to run concurrently with other queries, but not with Insert/Delete.
func (d *Decomposed) QueryParallel(ctx context.Context, exec *core.Executor, q MOR2Query) ([]dual.OID, error) {
	if err := validateQuery(q); err != nil {
		return nil, err
	}
	pieces := d.xIndex.Subqueries(q.xQuery())
	nx := len(pieces)
	pieces = append(pieces, d.yIndex.Subqueries(q.yQuery())...)
	buckets, err := core.RunPiecesCtx(ctx, exec, pieces)
	if err != nil {
		return nil, err
	}
	xIDs := core.MergeOIDs(buckets[:nx])
	yIDs := core.MergeOIDs(buckets[nx:])
	// Intersect two sorted slices; the result inherits sortedness.
	var out []dual.OID
	i, j := 0, 0
	for i < len(xIDs) && j < len(yIDs) {
		switch {
		case xIDs[i] < yIDs[j]:
			i++
		case xIDs[i] > yIDs[j]:
			j++
		default:
			if m, ok := d.motions[xIDs[i]]; ok && m.Matches(q) {
				out = append(out, xIDs[i])
			}
			i++
			j++
		}
	}
	return out, nil
}

// Interface compliance checks.
var (
	_ Index2D = (*Dual4)(nil)
	_ Index2D = (*Decomposed)(nil)
)
