// Package dual implements the dual space-time representations of §3.2 of
// "On Indexing Mobile Objects" (Kollios, Gunopulos, Tsotras, PODS 1999):
//
//   - Hough-X maps the trajectory y(t) = v·t + a to the point (v, a);
//     the one-dimensional MOR query becomes the wedge of Proposition 1.
//   - Hough-Y maps the same trajectory, rewritten t = n·y + b with
//     n = 1/v, to the point (n, b); b is the time at which the object
//     crosses a chosen horizontal observation line y = y_r. The MOR query
//     becomes the intersection of two half-planes (Figure 4), which the
//     approximation method of §3.5.2 relaxes to a rectangle whose extra
//     area E is given by Equation (1).
//
// The package also defines Motion, the linear motion model of §2, and the
// exact MOR membership predicate used for final filtering.
package dual

import (
	"math"

	"mobidx/internal/geom"
)

// OID identifies a mobile object.
type OID uint64

// Motion is the motion information of one object moving on a line: it was
// at position Y0 at time T0 and moves with constant velocity V, so its
// position at time t ≥ T0 is Y0 + V·(t − T0). Objects issue an update
// (delete + insert) whenever V changes or a terrain border is reached (§2).
type Motion struct {
	OID OID
	Y0  float64 // position at time T0
	T0  float64 // time of the last update
	V   float64 // velocity; |V| ∈ [VMin, VMax] for "moving" objects
}

// Op is one motion mutation: an insert of a new motion or a delete of a
// previously inserted one. An object's update is a delete+insert pair. It
// is the one op type of the serving layers: shard.Op, ingest.Op and
// subscribe.Op are aliases of it, so a batch passes between them uncopied.
type Op struct {
	Insert bool
	M      Motion
}

// At returns the object's position at time t.
func (m Motion) At(t float64) float64 { return m.Y0 + m.V*(t-m.T0) }

// MORQuery is the one-dimensional MOR query of §2: report all objects that
// reside inside [Y1, Y2] at some instant in [T1, T2], with T1 ≤ T2.
type MORQuery struct {
	Y1, Y2 float64 // spatial range, Y1 ≤ Y2
	T1, T2 float64 // time range, now ≤ T1 ≤ T2
}

// Matches is the exact membership predicate: it reports whether the motion
// places the object inside the query's spatial range at some time within
// the query's time range. Access methods over-approximate and then filter
// candidates through Matches.
func (m Motion) Matches(q MORQuery) bool {
	// The times at which y(t) ∈ [Y1, Y2] form a closed interval (possibly
	// empty, possibly unbounded for v = 0); intersect it with [T1, T2].
	if geom.ApproxEq(m.V, 0) {
		return m.Y0 >= q.Y1-geom.Eps && m.Y0 <= q.Y2+geom.Eps
	}
	tA := m.T0 + (q.Y1-m.Y0)/m.V
	tB := m.T0 + (q.Y2-m.Y0)/m.V
	if tA > tB {
		tA, tB = tB, tA
	}
	return tA <= q.T2+geom.Eps && tB >= q.T1-geom.Eps
}

// Terrain bounds the 1-dimensional world (§2, §3.2): objects live on
// [0, YMax] and moving objects have speeds in [VMin, VMax].
type Terrain struct {
	YMax float64
	VMin float64
	VMax float64
}

// TPeriod returns YMax/VMin, the maximum time between forced updates: every
// object must have updated within the last TPeriod instants, the fact that
// makes the two-index rotation scheme of §3.2 correct.
func (tr Terrain) TPeriod() float64 { return tr.YMax / tr.VMin }

// ---------------------------------------------------------------------------
// Hough-X: (v, a) plane
// ---------------------------------------------------------------------------

// HoughX maps the motion to its Hough-X dual point (v, a), with the
// intercept a computed against the vertical line t = tref (the epoch start
// of the index holding the point, per the rotation scheme of §3.2, which
// keeps intercepts bounded).
func HoughX(m Motion, tref float64) geom.Point {
	return geom.Point{X: m.V, Y: m.At(tref)}
}

// MotionFromHoughX inverts HoughX.
func MotionFromHoughX(id OID, p geom.Point, tref float64) Motion {
	return Motion{OID: id, Y0: p.Y, T0: tref, V: p.X}
}

// HoughXRegion returns the query region of Proposition 1 in the (v, a)
// plane for the given velocity sign. Times in q are absolute; tref is the
// reference line against which the stored intercepts were computed.
//
// For v > 0 the region is
//
//	v ≥ vmin ∧ v ≤ vmax ∧ a + t2·v ≥ Y1 ∧ a + t1·v ≤ Y2
//
// and for v < 0
//
//	v ≤ −vmin ∧ v ≥ −vmax ∧ a + t1·v ≥ Y1 ∧ a + t2·v ≤ Y2
//
// with t1 = T1 − tref, t2 = T2 − tref.
func HoughXRegion(q MORQuery, tref float64, tr Terrain, positive bool) geom.ConvexRegion {
	t1 := q.T1 - tref
	t2 := q.T2 - tref
	if positive {
		return geom.NewRegion(
			geom.Constraint{A: -1, B: 0, C: -tr.VMin}, // v ≥ vmin
			geom.Constraint{A: 1, B: 0, C: tr.VMax},   // v ≤ vmax
			geom.Constraint{A: -t2, B: -1, C: -q.Y1},  // a + t2·v ≥ Y1
			geom.Constraint{A: t1, B: 1, C: q.Y2},     // a + t1·v ≤ Y2
		)
	}
	return geom.NewRegion(
		geom.Constraint{A: 1, B: 0, C: -tr.VMin}, // v ≤ −vmin
		geom.Constraint{A: -1, B: 0, C: tr.VMax}, // v ≥ −vmax
		geom.Constraint{A: -t1, B: -1, C: -q.Y1}, // a + t1·v ≥ Y1
		geom.Constraint{A: t2, B: 1, C: q.Y2},    // a + t2·v ≤ Y2
	)
}

// HoughXBound returns a bounding rectangle of the Hough-X query region for
// the given sign, used to seed range searches before exact pruning.
func HoughXBound(q MORQuery, tref float64, tr Terrain, positive bool) geom.Rect {
	t1 := q.T1 - tref
	t2 := q.T2 - tref
	if positive {
		// a ≥ Y1 − v·t2 ≥ Y1 − vmax·t2 ; a ≤ Y2 − v·t1 ≤ Y2 − vmin·t1.
		return geom.Rect{
			MinX: tr.VMin, MaxX: tr.VMax,
			MinY: q.Y1 - tr.VMax*t2, MaxY: q.Y2 - tr.VMin*t1,
		}
	}
	return geom.Rect{
		MinX: -tr.VMax, MaxX: -tr.VMin,
		MinY: q.Y1 + tr.VMin*t1, MaxY: q.Y2 + tr.VMax*t2,
	}
}

// ---------------------------------------------------------------------------
// Hough-Y: (n, b) plane
// ---------------------------------------------------------------------------

// HoughY maps the motion to its Hough-Y dual (n, b) observed from the
// horizontal line y = yr: n = 1/v and b is the time at which the object's
// trajectory crosses y = yr.
func HoughY(m Motion, yr float64) (n, b float64) {
	n = 1 / m.V
	b = m.T0 + (yr-m.Y0)/m.V
	return n, b
}

// MotionFromHoughY inverts HoughY: an object with crossing time b at y = yr
// and velocity v follows y(t) = yr + v·(t − b).
func MotionFromHoughY(id OID, v, b, yr float64) Motion {
	return Motion{OID: id, Y0: yr, T0: b, V: v}
}

// intervalProd returns the min and max of n·w over n ∈ [nLo, nHi].
func intervalProd(nLo, nHi, w float64) (lo, hi float64) {
	a := nLo * w
	b := nHi * w
	return math.Min(a, b), math.Max(a, b)
}

// HoughYRect returns the rectangle approximation of the MOR query in the
// Hough-Y plane observed from y = yr (Figure 4): the n-side is fixed to the
// full slope range for the velocity sign, and the b-range is the smallest
// interval containing the exact wedge. Every object in the exact answer
// with the given sign has b within the returned range; the converse over-
// approximation error is the area E of Equation (1).
func HoughYRect(q MORQuery, yr float64, tr Terrain, positive bool) (bLo, bHi float64) {
	var nLo, nHi float64
	if positive {
		nLo, nHi = 1/tr.VMax, 1/tr.VMin
	} else {
		nLo, nHi = -1/tr.VMin, -1/tr.VMax
	}
	// The trajectory crosses y at time t(y) = b + n·(y − yr). For n > 0 the
	// object is inside [Y1,Y2] during [t(Y1), t(Y2)]; for n < 0 during
	// [t(Y2), t(Y1)]. Overlap with [T1,T2] gives, uniformly in sign,
	//   b ≥ T1 − max(n·(Yfar − yr))   and   b ≤ T2 − min(n·(Ynear − yr))
	// where Yfar/Ynear are the endpoints producing the widest window.
	yFar, yNear := q.Y2, q.Y1
	if !positive {
		yFar, yNear = q.Y1, q.Y2
	}
	_, hi := intervalProd(nLo, nHi, yFar-yr)
	lo, _ := intervalProd(nLo, nHi, yNear-yr)
	return q.T1 - hi, q.T2 - lo
}

// EnlargementE is the extra area E = E1 + E2 of Equation (1) incurred by
// approximating the Hough-Y wedge with a rectangle when the b-coordinates
// are observed from y = yr:
//
//	E = ½ · ((vmax − vmin)/(vmin·vmax))² · (|Y2 − yr| + |Y1 − yr|)
//
// The approximation method routes each query to the observation index
// minimizing this quantity (§3.5.2).
func EnlargementE(q MORQuery, yr float64, tr Terrain) float64 {
	f := (tr.VMax - tr.VMin) / (tr.VMin * tr.VMax)
	return 0.5 * f * f * (math.Abs(q.Y2-yr) + math.Abs(q.Y1-yr))
}

// EnlargementBound is the bound of Equation (2) on E when the query's
// spatial extent does not exceed one subterrain (YMax/c) and the query is
// routed to the nearest observation index.
func EnlargementBound(tr Terrain, c int) float64 {
	f := (tr.VMax - tr.VMin) / (tr.VMin * tr.VMax)
	return 0.5 * f * f * (tr.YMax / float64(c))
}
