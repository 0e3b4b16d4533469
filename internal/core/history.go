package core

import (
	"fmt"
	"math"

	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/pager"
	"mobidx/internal/rstar"
)

// History implements the paper's §7 extension: "some applications may
// require keeping the history of mobile objects (for traffic analysis
// etc.); then the indices presented need to support historical queries".
//
// The archive is append-only: whenever an object's motion is superseded
// (or the object leaves), the closed piece of its trajectory — a line
// segment in the (t, y) plane from the update that created it to the
// update that ended it — is recorded in an R*-tree. Unlike the live
// R*-tree baseline of §3.1, whose segments run to the terrain border and
// overlap terribly, archived segments are short (they span one update
// interval), which is exactly the regime where an R*-tree behaves well.
//
// A historical MOR query ("who was inside [Y1, Y2] at some instant of the
// past window [T1, T2]?") is a rectangle search plus exact segment
// filtering. Current motions are not part of the archive; pair History
// with any live Index1D and route queries by whether the window lies in
// the past.
type History struct {
	terrain dual.Terrain
	tree    *rstar.Tree
	open    map[dual.OID]dual.Motion
	closed  int
}

// NewHistory creates an empty trajectory archive.
func NewHistory(store pager.Store, terrain dual.Terrain) (*History, error) {
	if terrain.YMax <= 0 {
		return nil, fmt.Errorf("core: invalid terrain %+v", terrain)
	}
	t, err := rstar.New(store)
	if err != nil {
		return nil, err
	}
	return &History{terrain: terrain, tree: t, open: make(map[dual.OID]dual.Motion)}, nil
}

// Begin records that m is the object's motion from m.T0 on. Any previous
// open motion of the same object is closed at m.T0 and archived. A motion
// with a non-finite field is refused with ErrInvalidMotion; there is no
// speed-band check, since the archive keeps slow objects too.
func (h *History) Begin(m dual.Motion) error {
	if err := finiteMotion(m); err != nil {
		return err
	}
	if old, ok := h.open[m.OID]; ok {
		if err := h.archive(old, m.T0); err != nil {
			return err
		}
	}
	h.open[m.OID] = m
	return nil
}

// End closes the object's open motion at time t and archives it; the
// object disappears from the (historical) present. A non-finite t is
// refused with ErrInvalidMotion.
func (h *History) End(id dual.OID, t float64) error {
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return invalid(ErrInvalidMotion, "core: non-finite end time %v for object %d", t, id)
	}
	old, ok := h.open[id]
	if !ok {
		return fmt.Errorf("core: object %d has no open motion", id)
	}
	if err := h.archive(old, t); err != nil {
		return err
	}
	delete(h.open, id)
	return nil
}

// archive stores the trajectory piece of m over [m.T0, tEnd]. A piece
// that ends before it begins, or whose end position overflows the float
// range, is refused with ErrInvalidMotion: a NaN coordinate in the R*-tree
// would hide other pieces from every later search.
func (h *History) archive(m dual.Motion, tEnd float64) error {
	if tEnd < m.T0 {
		return invalid(ErrInvalidMotion, "core: motion of %d ends at %v before it began at %v", m.OID, tEnd, m.T0)
	}
	end := m.At(tEnd)
	if math.IsNaN(end) || math.IsInf(end, 0) {
		return invalid(ErrInvalidMotion, "core: motion of %d leaves the float range by %v", m.OID, tEnd)
	}
	seg := geom.Segment{
		A: geom.Point{X: m.T0, Y: m.Y0},
		B: geom.Point{X: tEnd, Y: end},
	}
	h.closed++
	return h.tree.Insert(segItem(m, seg))
}

// Closed returns the number of archived trajectory pieces.
func (h *History) Closed() int { return h.closed }

// Open returns the number of objects with an open (current) motion.
func (h *History) Open() int { return len(h.open) }

// QueryPast reports every object that was inside [q.Y1, q.Y2] at some
// instant of [q.T1, q.T2], considering archived trajectory pieces and,
// for windows reaching past the last update, the still-open motions.
// Each object is reported at most once. A query with a non-finite or
// reversed bound is refused with ErrInvalidQuery.
func (h *History) QueryPast(q dual.MORQuery, emit func(dual.OID)) error {
	if err := ValidateQuery(q); err != nil {
		return err
	}
	seen := make(map[dual.OID]struct{})
	hit := func(id dual.OID) {
		if _, dup := seen[id]; dup {
			return
		}
		seen[id] = struct{}{}
		emit(id)
	}
	rect := geom.Rect{MinX: q.T1, MinY: q.Y1, MaxX: q.T2, MaxY: q.Y2}
	err := h.tree.SearchRect(rect, func(it rstar.Item) bool {
		if segHit(it, rect) {
			hit(segOID(it))
		}
		return true
	})
	if err != nil {
		return err
	}
	// Open motions cover [T0, ∞); clip the query to each one's validity.
	for id, m := range h.open {
		if q.T2 < m.T0 {
			continue
		}
		cq := q
		if cq.T1 < m.T0 {
			cq.T1 = m.T0
		}
		if m.Matches(cq) {
			hit(id)
		}
	}
	return nil
}

// TrajectoryLength returns the total archived time span of one object —
// a simple analytic the paper's traffic-analysis motivation asks for.
// Cost is a full scan filtered by id; analytic workloads would keep a
// per-object secondary index, which is outside the paper's scope.
func (h *History) TrajectoryLength(id dual.OID) (float64, error) {
	total := 0.0
	err := h.tree.SearchRect(geom.Rect{
		MinX: math.Inf(-1), MinY: math.Inf(-1),
		MaxX: math.Inf(1), MaxY: math.Inf(1),
	}, func(it rstar.Item) bool {
		if segOID(it) == id {
			total += it.Rect.MaxX - it.Rect.MinX
		}
		return true
	})
	return total, err
}
