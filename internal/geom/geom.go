// Package geom provides the small computational-geometry kernel used by the
// mobile-object indexes: points, rectangles, segments, half-plane
// (linear-constraint) conjunctions, and exact overlap tests between
// rectangles and convex constraint regions.
//
// Linear-constraint queries follow Goldstein, Ramakrishnan, Shaft and Yu
// ("Processing Queries By Linear Constraints", PODS 1997): a query region is
// a conjunction of half-planes, and an access method prunes a subtree iff
// its bounding rectangle does not intersect the region, reporting a whole
// subtree when its rectangle is contained in the region.
package geom

import "math"

// Eps is the tolerance used by the predicates in this package. Coordinates
// in the workloads of the paper are O(10^3) and velocities O(1), so a fixed
// absolute tolerance is adequate.
const Eps = 1e-9

// ApproxEq reports whether a and b are equal to within Eps. It is the
// only sanctioned way to test two floats for equality in this module;
// exact ==/!= on floats is rejected by the floateq static-analysis pass.
func ApproxEq(a, b float64) bool {
	return math.Abs(a-b) <= Eps
}

// Point is a point in the plane.
type Point struct {
	X, Y float64
}

// Rect is an axis-parallel rectangle [MinX,MaxX] x [MinY,MaxY].
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyRect returns a rectangle that behaves as the identity under Union:
// it contains nothing and extends nothing.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r is an empty rectangle (as built by EmptyRect, or
// inverted by construction).
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX-Eps && p.X <= r.MaxX+Eps && p.Y >= r.MinY-Eps && p.Y <= r.MaxY+Eps
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	return s.MinX >= r.MinX-Eps && s.MaxX <= r.MaxX+Eps && s.MinY >= r.MinY-Eps && s.MaxY <= r.MaxY+Eps
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX+Eps && s.MinX <= r.MaxX+Eps && r.MinY <= s.MaxY+Eps && s.MinY <= r.MaxY+Eps
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX), MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX), MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Area returns the area of r (zero for empty or degenerate rectangles).
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) * (r.MaxY - r.MinY)
}

// Margin returns half the perimeter of r, the quantity minimized by the
// R*-tree split axis selection.
func (r Rect) Margin() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.MaxX - r.MinX) + (r.MaxY - r.MinY)
}

// Intersection returns the overlap of r and s; the result is empty when they
// are disjoint.
func (r Rect) Intersection(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX), MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX), MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// OverlapArea returns the area of the intersection of r and s.
func (r Rect) OverlapArea(s Rect) float64 { return r.Intersection(s).Area() }

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{X: (r.MinX + r.MaxX) / 2, Y: (r.MinY + r.MaxY) / 2} }

// Corners returns the four corners of r in counter-clockwise order.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.MinX, r.MinY}, {r.MaxX, r.MinY}, {r.MaxX, r.MaxY}, {r.MinX, r.MaxY},
	}
}

// Segment is a straight line segment between two points.
type Segment struct {
	A, B Point
}

// Bound returns the minimum bounding rectangle of s.
func (s Segment) Bound() Rect {
	return Rect{
		MinX: math.Min(s.A.X, s.B.X), MinY: math.Min(s.A.Y, s.B.Y),
		MaxX: math.Max(s.A.X, s.B.X), MaxY: math.Max(s.A.Y, s.B.Y),
	}
}

// IntersectsRect reports whether the segment has at least one point inside
// r, within Eps.
func (s Segment) IntersectsRect(r Rect) bool {
	if r.IsEmpty() {
		return false
	}
	t0, t1, ok := s.Clip(r)
	return ok && t0 <= t1+Eps
}

// Clip clips the segment's parameter interval [0, 1] against each slab of
// r (Liang–Barsky), which is exact for axis-parallel rectangles: the
// points A + t(B-A), t in [t0, t1], are the ones inside r. ok is false
// when a slab excludes the whole segment. Rounding can leave t0 slightly
// above t1; each caller decides how much of that it forgives.
func (s Segment) Clip(r Rect) (t0, t1 float64, ok bool) {
	t0, t1 = 0.0, 1.0
	dx := s.B.X - s.A.X
	dy := s.B.Y - s.A.Y
	clip := func(p, q float64) bool {
		// Clip t-range against p*t <= q.
		if math.Abs(p) < Eps {
			return q >= -Eps // parallel: inside iff q >= 0
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}
	ok = clip(-dx, s.A.X-r.MinX) && clip(dx, r.MaxX-s.A.X) &&
		clip(-dy, s.A.Y-r.MinY) && clip(dy, r.MaxY-s.A.Y)
	return t0, t1, ok
}

// Constraint is the half-plane A*x + B*y <= C.
type Constraint struct {
	A, B, C float64
}

// Holds reports whether p satisfies the constraint.
func (c Constraint) Holds(p Point) bool { return c.A*p.X+c.B*p.Y <= c.C+Eps }

// Eval returns A*x + B*y - C; negative or zero means p satisfies c.
func (c Constraint) Eval(p Point) float64 { return c.A*p.X + c.B*p.Y - c.C }

// ConvexRegion is a conjunction of half-planes (a possibly unbounded convex
// polygon). The zero value is the whole plane.
type ConvexRegion struct {
	Cs []Constraint
}

// NewRegion builds a region from constraints.
func NewRegion(cs ...Constraint) ConvexRegion { return ConvexRegion{Cs: cs} }

// ContainsPoint reports whether p satisfies every constraint.
func (r ConvexRegion) ContainsPoint(p Point) bool {
	for _, c := range r.Cs {
		if !c.Holds(p) {
			return false
		}
	}
	return true
}

// ContainsRect reports whether every point of rect satisfies every
// constraint; for half-planes it suffices to test the four corners.
func (r ConvexRegion) ContainsRect(rect Rect) bool {
	if rect.IsEmpty() {
		return true
	}
	corners := rect.Corners()
	for _, c := range r.Cs {
		for _, p := range corners {
			if !c.Holds(p) {
				return false
			}
		}
	}
	return true
}

// IntersectsRect reports whether rect and the region share at least one
// point. It clips the rectangle by every half-plane (Sutherland–Hodgman)
// and checks whether anything remains; this is exact for convex regions.
func (r ConvexRegion) IntersectsRect(rect Rect) bool {
	if rect.IsEmpty() {
		return false
	}
	poly := make([]Point, 0, 8)
	c4 := rect.Corners()
	poly = append(poly, c4[:]...)
	for _, c := range r.Cs {
		poly = clipPolygon(poly, c)
		if len(poly) == 0 {
			return false
		}
	}
	return true
}

// ClipRect returns the vertices of rect clipped by the region, or nil when
// the intersection is empty.
func (r ConvexRegion) ClipRect(rect Rect) []Point {
	if rect.IsEmpty() {
		return nil
	}
	poly := make([]Point, 0, 8)
	c4 := rect.Corners()
	poly = append(poly, c4[:]...)
	for _, c := range r.Cs {
		poly = clipPolygon(poly, c)
		if len(poly) == 0 {
			return nil
		}
	}
	return poly
}

// clipPolygon clips a convex polygon by a half-plane.
func clipPolygon(poly []Point, c Constraint) []Point {
	if len(poly) == 0 {
		return nil
	}
	out := make([]Point, 0, len(poly)+1)
	for i := range poly {
		cur := poly[i]
		nxt := poly[(i+1)%len(poly)]
		curIn := c.Eval(cur) <= Eps
		nxtIn := c.Eval(nxt) <= Eps
		if curIn {
			out = append(out, cur)
		}
		if curIn != nxtIn {
			// Edge crosses the boundary A*x+B*y=C.
			d1 := c.Eval(cur)
			d2 := c.Eval(nxt)
			t := d1 / (d1 - d2)
			out = append(out, Point{
				X: cur.X + t*(nxt.X-cur.X),
				Y: cur.Y + t*(nxt.Y-cur.Y),
			})
		}
	}
	return out
}

// RegionRelation is how a cell relates to a query region.
type RegionRelation int

// Classification outcomes for bounding shapes tested against a query region.
const (
	Outside RegionRelation = iota // no common point
	Inside                        // fully contained: report the whole subtree
	Partial                       // boundary crosses: recurse
)

// ClassifyRect classifies rect against the region.
func (r ConvexRegion) ClassifyRect(rect Rect) RegionRelation {
	if r.ContainsRect(rect) {
		return Inside
	}
	if r.IntersectsRect(rect) {
		return Partial
	}
	return Outside
}

// MaxDims is the highest dimensionality the point indexes store: the dual
// space (vx, ax, vy, ay) of §4.2.
const MaxDims = 4

// Vec is a point of ℝ^d, d ≤ MaxDims, held inline so that carrying one
// costs no allocation. Coordinates past d are zero.
type Vec [MaxDims]float64

// GridVec is a Vec snapped to the float32 grid on which the point indexes
// store coordinates on their pages.
type GridVec [MaxDims]float32

// Grid snaps v to the float32 grid.
func (v Vec) Grid() GridVec {
	var g GridVec
	for i, x := range v {
		g[i] = float32(x)
	}
	return g
}

// Vec widens g back to float64; the values are unchanged.
func (g GridVec) Vec() Vec {
	var v Vec
	for i, x := range g {
		v[i] = float64(x)
	}
	return v
}

// GridPoint is one point of a paged point index (kdtree, parttree): its
// coordinates on the float32 grid the pages store (zero past the index's
// dimensionality) and an opaque reference. Held inline, a point costs no
// allocation of its own.
type GridPoint struct {
	C   GridVec
	Val uint64 // must fit in 32 bits
}

// Pt snaps c to the float32 grid used on page.
func Pt(c Vec, val uint64) GridPoint { return GridPoint{C: c.Grid(), Val: val} }

// Vec returns the point's coordinates.
func (p GridPoint) Vec() Vec { return p.C.Vec() }

// Box is the axis-parallel d-box [Lo, Hi].
type Box struct {
	Lo, Hi Vec
}

// Contains reports whether the first d coordinates of p lie inside b
// (boundary inclusive).
func (b Box) Contains(p Vec, d int) bool {
	for i := 0; i < d; i++ {
		if p[i] < b.Lo[i]-Eps || p[i] > b.Hi[i]+Eps {
			return false
		}
	}
	return true
}

// Region is a query region as a point index sees it: the one thing a k-d
// tree or a partition tree needs from a query is how it relates to a cell
// and whether it holds a point. There are exactly two implementations.
// ConvexRegion (d = 2) clips the cell against the whole conjunction, which
// is exact; HalfSpaces (any d) tests one constraint at a time, which never
// misses an answer but may call a cell Partial that the conjunction as a
// whole does not reach.
type Region interface {
	// Dims is the dimensionality of the space the region lives in; an
	// index of another dimensionality rejects it.
	Dims() int
	ClassifyBox(b Box) RegionRelation
	ContainsVec(p Vec) bool
}

// Dims implements Region: a ConvexRegion lives in the plane.
func (r ConvexRegion) Dims() int { return 2 }

// ClassifyBox implements Region by the exact clip of ClassifyRect.
func (r ConvexRegion) ClassifyBox(b Box) RegionRelation {
	return r.ClassifyRect(Rect{MinX: b.Lo[0], MinY: b.Lo[1], MaxX: b.Hi[0], MaxY: b.Hi[1]})
}

// ContainsVec implements Region.
func (r ConvexRegion) ContainsVec(p Vec) bool { return r.ContainsPoint(Point{X: p[0], Y: p[1]}) }

// HalfSpace is the constraint Coef·x <= C in ℝ^d.
type HalfSpace struct {
	Coef Vec
	C    float64
}

// Extremes returns the minimum and maximum of Coef·x over the first d
// dimensions of b: a linear functional attains both at corners, chosen per
// coordinate by the sign of its coefficient.
func (h HalfSpace) Extremes(b Box, d int) (lo, hi float64) {
	for i := 0; i < d; i++ {
		if a := h.Coef[i]; a >= 0 {
			lo += a * b.Lo[i]
			hi += a * b.Hi[i]
		} else {
			lo += a * b.Hi[i]
			hi += a * b.Lo[i]
		}
	}
	return lo, hi
}

// HalfSpaces is a conjunction of half-spaces in ℝ^D; with no constraints
// it is the whole space.
type HalfSpaces struct {
	D  int
	Hs []HalfSpace
}

// Dims implements Region.
func (r HalfSpaces) Dims() int { return r.D }

// ClassifyBox implements Region one constraint at a time: Outside as soon
// as one half-space misses the box entirely, Inside when every one
// contains it.
func (r HalfSpaces) ClassifyBox(b Box) RegionRelation {
	rel := Inside
	for _, h := range r.Hs {
		lo, hi := h.Extremes(b, r.D)
		if lo > h.C+Eps {
			return Outside
		}
		if hi > h.C+Eps {
			rel = Partial
		}
	}
	return rel
}

// ContainsVec implements Region.
func (r HalfSpaces) ContainsVec(p Vec) bool {
	for _, h := range r.Hs {
		s := 0.0
		for i := 0; i < r.D; i++ {
			s += h.Coef[i] * p[i]
		}
		if s > h.C+Eps {
			return false
		}
	}
	return true
}
