// Package twod implements the full 2-dimensional problem of §4.2: objects
// move freely in the rectangle [0, XMax] × [0, YMax] with a constant
// velocity vector, and the two-dimensional MOR query asks which objects
// are inside a query rectangle at some instant of a future time window.
//
// Two methods are provided, mirroring the paper's discussion:
//
//   - KD4: project the trajectory onto the (x, t) and (y, t) planes and
//     take the Hough-X dual of each, giving the 4-dimensional point
//     (vx, ax, vy, ay). The query becomes a conjunction of the two planes'
//     Proposition 1 wedges — a simplex in ℝ⁴ — answered by a paged
//     k-d tree at d = 4 (package kdtree), with candidates filtered
//     exactly (the conjunction alone over-approximates, because the x- and
//     y-conditions may hold at different instants).
//
//   - Decomposed: answer two 1-dimensional MOR queries, one per axis, with
//     the Dual-B+ method of §3.5.2, intersect the answer sets by object
//     id, and filter exactly. This is the paper's "decompose the motion
//     into two independent motions" alternative.
//
// Both use the §3.2 generation rotation to keep dual intercepts bounded.
//
// Per-axis speed model: each velocity component satisfies
// VMin ≤ |vx|, |vy| ≤ VMax, the assumption under which both the per-axis
// dual transforms and the per-axis forced-update period are valid (an
// object hits some border within min(XMax, YMax)/VMin).
package twod

import (
	"fmt"
	"math"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/kdtree"
	"mobidx/internal/pager"
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

func (t Terrain2D) validate(m Motion2D) error {
	for _, v := range []float64{m.VX, m.VY} {
		s := math.Abs(v)
		if s < t.VMin-1e-12 || s > t.VMax+1e-12 {
			return fmt.Errorf("twod: component speed %v outside [%v, %v]", v, t.VMin, t.VMax)
		}
	}
	if m.X0 < -1e-9 || m.X0 > t.XMax+1e-9 || m.Y0 < -1e-9 || m.Y0 > t.YMax+1e-9 {
		return fmt.Errorf("twod: position (%v, %v) outside terrain", m.X0, m.Y0)
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

func motion2DTime(m Motion2D) float64 { return m.T0 }

// ---------------------------------------------------------------------------
// KD4: 4-dimensional dual k-d tree
// ---------------------------------------------------------------------------

// KD4Config configures the 4-dimensional dual method.
type KD4Config struct {
	Terrain Terrain2D
}

// KD4 indexes the 4-dimensional dual points (vx, ax, vy, ay).
type KD4 struct {
	cfg KD4Config
	rot *core.Rotator[Motion2D, *kd4Gen]
}

// NewKD4 creates the index on the given store.
func NewKD4(store pager.Store, cfg KD4Config) (*KD4, error) {
	t := cfg.Terrain
	if t.XMax <= 0 || t.YMax <= 0 || t.VMin <= 0 || t.VMax < t.VMin {
		return nil, fmt.Errorf("twod: invalid terrain %+v", t)
	}
	k := &KD4{cfg: cfg}
	rot, err := core.NewRotator(t.TPeriod(), motion2DTime, func(tref float64) (*kd4Gen, error) {
		return newKD4Gen(store, cfg, tref)
	})
	if err != nil {
		return nil, err
	}
	k.rot = rot
	return k, nil
}

// Insert implements Index2D.
func (k *KD4) Insert(m Motion2D) error {
	if err := k.cfg.Terrain.validate(m); err != nil {
		return err
	}
	return k.rot.Insert(m)
}

// Delete implements Index2D.
func (k *KD4) Delete(m Motion2D) error { return k.rot.Delete(m) }

// Len implements Index2D.
func (k *KD4) Len() int { return k.rot.Len() }

// Generations exposes the live generation count (normally ≤ 2).
func (k *KD4) Generations() int { return k.rot.Generations() }

// Query implements Index2D.
func (k *KD4) Query(q MOR2Query, emit func(dual.OID)) error {
	for _, g := range k.rot.Live() {
		if err := g.Query(q, emit); err != nil {
			return err
		}
	}
	return nil
}

// kd4Gen holds four quadrant trees (sign of vx × sign of vy).
type kd4Gen struct {
	cfg   KD4Config
	tref  float64
	quads [4]*kdtree.Tree // index = (vx>0 ? 0 : 1) | (vy>0 ? 0 : 2)
	size  int
}

func quadrant(vx, vy float64) int {
	q := 0
	if vx < 0 {
		q |= 1
	}
	if vy < 0 {
		q |= 2
	}
	return q
}

func newKD4Gen(store pager.Store, cfg KD4Config, tref float64) (*kd4Gen, error) {
	t := cfg.Terrain
	p := t.TPeriod()
	const eps = 1e-3
	// Per-axis intercept ranges mirror the 1-dimensional analysis: for a
	// positive component a ∈ [−VMax·p, extent]; for a negative one
	// a ∈ [0, extent + VMax·p].
	vRange := func(negV bool) (lo, hi float64) {
		if negV {
			return -t.VMax - eps, -t.VMin + eps
		}
		return t.VMin - eps, t.VMax + eps
	}
	aRange := func(negV bool, extent float64) (lo, hi float64) {
		if negV {
			return -eps, extent + t.VMax*p + eps
		}
		return -t.VMax*p - eps, extent + eps
	}
	g := &kd4Gen{cfg: cfg, tref: tref}
	for q := 0; q < 4; q++ {
		negX := q&1 != 0
		negY := q&2 != 0
		vxLo, vxHi := vRange(negX)
		axLo, axHi := aRange(negX, t.XMax)
		vyLo, vyHi := vRange(negY)
		ayLo, ayHi := aRange(negY, t.YMax)
		tree, err := kdtree.New(store, 4, geom.Box{
			Lo: geom.Vec{vxLo, axLo, vyLo, ayLo},
			Hi: geom.Vec{vxHi, axHi, vyHi, ayHi},
		})
		if err != nil {
			return nil, err
		}
		g.quads[q] = tree
	}
	return g, nil
}

// dualVec maps the motion to its dual point (vx, ax, vy, ay) relative to
// tref; motionAt is its inverse.
func dualVec(m Motion2D, tref float64) geom.Vec {
	x, y := m.At(tref)
	return geom.Vec{m.VX, x, m.VY, y}
}

func motionAt(v geom.Vec, oid dual.OID, tref float64) Motion2D {
	return Motion2D{OID: oid, X0: v[1], Y0: v[3], T0: tref, VX: v[0], VY: v[2]}
}

func (g *kd4Gen) Len() int { return g.size }

func (g *kd4Gen) Insert(m Motion2D) error {
	tree := g.quads[quadrant(m.VX, m.VY)]
	if err := tree.Insert(kdtree.Pt(dualVec(m, g.tref), uint64(m.OID))); err != nil {
		return err
	}
	g.size++
	return nil
}

func (g *kd4Gen) Delete(m Motion2D) error {
	tree := g.quads[quadrant(m.VX, m.VY)]
	found, err := tree.Delete(kdtree.Pt(dualVec(m, g.tref), uint64(m.OID)))
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("twod: motion of object %d not found in kd4 index", m.OID)
	}
	g.size--
	return nil
}

// constraints4 builds the ℝ⁴ simplex: the Proposition 1 wedge of the x
// projection on dims (0,1) and of the y projection on dims (2,3), with
// times relative to tref. The region classifies a cell one half-space at a
// time (geom.HalfSpaces): the eight constraints are never clipped against
// a cell together, which is E8's suspected defect (ROADMAP item 6(b)).
func constraints4(q MOR2Query, tref float64, tr Terrain2D, negX, negY bool) geom.HalfSpaces {
	t1 := q.T1 - tref
	t2 := q.T2 - tref
	var hs []geom.HalfSpace
	add := func(vDim, aDim int, Y1, Y2 float64, neg bool) {
		half := func(v, a, c float64) geom.HalfSpace {
			h := geom.HalfSpace{C: c}
			h.Coef[vDim] = v
			h.Coef[aDim] = a
			return h
		}
		if !neg {
			hs = append(hs,
				half(-1, 0, -tr.VMin), // v >= vmin
				half(1, 0, tr.VMax),   // v <= vmax
				half(-t2, -1, -Y1),    // a + t2 v >= Y1
				half(t1, 1, Y2),       // a + t1 v <= Y2
			)
		} else {
			hs = append(hs,
				half(1, 0, -tr.VMin),
				half(-1, 0, tr.VMax),
				half(-t1, -1, -Y1),
				half(t2, 1, Y2),
			)
		}
	}
	add(0, 1, q.X1, q.X2, negX)
	add(2, 3, q.Y1, q.Y2, negY)
	return geom.HalfSpaces{D: 4, Hs: hs}
}

// quadScan searches one velocity quadrant's tree with the ℝ⁴ simplex and
// filters candidates with the exact 2-dimensional predicate.
func (g *kd4Gen) quadScan(quad int, q MOR2Query, emit func(dual.OID)) error {
	negX := quad&1 != 0
	negY := quad&2 != 0
	reg := constraints4(q, g.tref, g.cfg.Terrain, negX, negY)
	return g.quads[quad].SearchRegion(reg, func(p kdtree.Point) bool {
		// The conjunction of per-axis wedges over-approximates (the
		// axis conditions may hold at different instants): filter with
		// the exact 2-dimensional predicate reconstructed from the
		// dual point.
		if m := motionAt(p.Vec(), dual.OID(p.Val), g.tref); m.Matches(q) {
			emit(m.OID)
		}
		return true
	})
}

func (g *kd4Gen) Query(q MOR2Query, emit func(dual.OID)) error {
	for quad := 0; quad < 4; quad++ {
		if err := g.quadScan(quad, q, emit); err != nil {
			return err
		}
	}
	return nil
}

// subqueries returns the four independent quadrant scans; an object lives
// in exactly one quadrant tree, so the union of emissions is
// duplicate-free and equals Query's answer.
func (g *kd4Gen) subqueries(q MOR2Query) []func(emit func(dual.OID)) error {
	subs := make([]func(emit func(dual.OID)) error, 0, 4)
	for quad := 0; quad < 4; quad++ {
		quad := quad
		subs = append(subs, func(emit func(dual.OID)) error {
			return g.quadScan(quad, q, emit)
		})
	}
	return subs
}

func (g *kd4Gen) Destroy() error {
	for _, t := range g.quads {
		if err := t.Destroy(); err != nil {
			return err
		}
	}
	return nil
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

// Query implements Index2D: intersect the two per-axis answers, then apply
// the exact 2-dimensional predicate.
func (d *Decomposed) Query(q MOR2Query, emit func(dual.OID)) error {
	xq := dual.MORQuery{Y1: q.X1, Y2: q.X2, T1: q.T1, T2: q.T2}
	yq := dual.MORQuery{Y1: q.Y1, Y2: q.Y2, T1: q.T1, T2: q.T2}
	xHits := make(map[dual.OID]struct{})
	if err := d.xIndex.Query(xq, func(id dual.OID) { xHits[id] = struct{}{} }); err != nil {
		return err
	}
	return d.yIndex.Query(yq, func(id dual.OID) {
		if _, ok := xHits[id]; !ok {
			return
		}
		if m, ok := d.motions[id]; ok && m.Matches(q) {
			emit(id)
		}
	})
}

// Interface compliance checks.
var (
	_ Index2D = (*KD4)(nil)
	_ Index2D = (*Decomposed)(nil)
)
