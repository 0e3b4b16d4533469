// Package route implements the 1.5-dimensional problem of §4.1: objects
// move in the plane but only along a fixed network of routes, each a chain
// of straight line segments.
//
// The route geometry is indexed by a standard SAM (the R*-tree), which the
// paper argues is cheap to maintain: there are far fewer routes than
// objects and they change rarely. Each route carries its own 1-dimensional
// mobile-object index (the Dual-B+ method) over arc-length positions. A
// two-dimensional MOR query is decomposed: the SAM finds the route
// segments crossing the query rectangle, each intersection is clipped to
// an arc-length interval, and every interval becomes a 1-dimensional MOR
// query on that route's index.
package route

import (
	"fmt"
	"math"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/pager"
	"mobidx/internal/rstar"
)

// RouteID identifies a route in the network.
type RouteID uint32

// Route is a polyline with cumulative arc lengths; objects on the route
// are addressed by arc length from its start.
type Route struct {
	ID  RouteID
	Pts []geom.Point
	cum []float64 // cum[i] = arc length at Pts[i]
}

// Length returns the total arc length.
func (r *Route) Length() float64 { return r.cum[len(r.cum)-1] }

// PointAt maps an arc length s ∈ [0, Length] to a point on the route.
func (r *Route) PointAt(s float64) geom.Point {
	if s <= 0 {
		return r.Pts[0]
	}
	for i := 1; i < len(r.cum); i++ {
		if s <= r.cum[i] {
			f := (s - r.cum[i-1]) / (r.cum[i] - r.cum[i-1])
			a, b := r.Pts[i-1], r.Pts[i]
			return geom.Point{X: a.X + f*(b.X-a.X), Y: a.Y + f*(b.Y-a.Y)}
		}
	}
	return r.Pts[len(r.Pts)-1]
}

// Config configures a network.
type Config struct {
	// VMin and VMax bound the speeds (along-route) of moving objects.
	VMin, VMax float64
	// C is the observation-index count for each route's Dual-B+ index.
	C int
	// Codec is the on-page record precision for the per-route indexes.
	Codec bptree.Codec
}

// Network is a route network with per-route mobile-object indexes.
type Network struct {
	cfg     Config
	store   pager.Store
	sam     *rstar.Tree
	routes  map[RouteID]*Route
	order   []RouteID // insertion order, for deterministic iteration
	indexes map[RouteID]*core.DualBPlus
}

// NewNetwork creates an empty network on the given store.
func NewNetwork(store pager.Store, cfg Config) (*Network, error) {
	if cfg.VMin <= 0 || cfg.VMax < cfg.VMin {
		return nil, fmt.Errorf("route: invalid speed band [%v, %v]", cfg.VMin, cfg.VMax)
	}
	if cfg.C == 0 {
		cfg.C = 4
	}
	sam, err := rstar.New(store, rstar.Config{})
	if err != nil {
		return nil, err
	}
	return &Network{
		cfg:     cfg,
		store:   store,
		sam:     sam,
		routes:  make(map[RouteID]*Route),
		indexes: make(map[RouteID]*core.DualBPlus),
	}, nil
}

// samVal packs a route id and segment index into the R*-tree's 32-bit
// reference: 16 bits each.
func samVal(rid RouteID, seg int) (uint64, error) {
	if rid > math.MaxUint16 {
		return 0, fmt.Errorf("route: route id %d exceeds 16 bits", rid)
	}
	if seg > math.MaxUint16 {
		return 0, fmt.Errorf("route: segment index %d exceeds 16 bits", seg)
	}
	return uint64(rid)<<16 | uint64(seg), nil
}

// AddRoute registers a polyline route. Routes must have at least two
// distinct points and distinct ids.
func (n *Network) AddRoute(id RouteID, pts []geom.Point) (*Route, error) {
	if len(pts) < 2 {
		return nil, fmt.Errorf("route: route %d needs at least two points", id)
	}
	if _, dup := n.routes[id]; dup {
		return nil, fmt.Errorf("route: duplicate route id %d", id)
	}
	r := &Route{ID: id, Pts: pts, cum: make([]float64, len(pts))}
	for i := 1; i < len(pts); i++ {
		dx := pts[i].X - pts[i-1].X
		dy := pts[i].Y - pts[i-1].Y
		seg := math.Hypot(dx, dy)
		if seg == 0 {
			return nil, fmt.Errorf("route: route %d has a zero-length segment at %d", id, i)
		}
		r.cum[i] = r.cum[i-1] + seg
	}
	for i := 1; i < len(pts); i++ {
		v, err := samVal(id, i-1)
		if err != nil {
			return nil, err
		}
		seg := geom.Segment{A: pts[i-1], B: pts[i]}
		if err := n.sam.Insert(rstar.Item{Rect: seg.Bound(), Val: v}); err != nil {
			return nil, err
		}
	}
	ix, err := core.NewDualBPlus(n.store, core.DualBPlusConfig{
		Terrain: dual.Terrain{YMax: r.Length(), VMin: n.cfg.VMin, VMax: n.cfg.VMax},
		C:       n.cfg.C,
		Codec:   n.cfg.Codec,
	})
	if err != nil {
		return nil, err
	}
	n.routes[id] = r
	n.order = append(n.order, id)
	n.indexes[id] = ix
	return r, nil
}

// RemoveRoute drops a route and its per-route index. All objects on the
// route must have been deleted first (they would otherwise dangle).
func (n *Network) RemoveRoute(id RouteID) error {
	r, ok := n.routes[id]
	if !ok {
		return fmt.Errorf("route: unknown route %d", id)
	}
	if n.indexes[id].Len() != 0 {
		return fmt.Errorf("route: route %d still carries %d objects", id, n.indexes[id].Len())
	}
	for i := 1; i < len(r.Pts); i++ {
		v, err := samVal(id, i-1)
		if err != nil {
			return err
		}
		seg := geom.Segment{A: r.Pts[i-1], B: r.Pts[i]}
		found, err := n.sam.Delete(rstar.Item{Rect: seg.Bound(), Val: v})
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("route: segment %d of route %d missing from SAM", i-1, id)
		}
	}
	delete(n.routes, id)
	delete(n.indexes, id)
	for i, rid := range n.order {
		if rid == id {
			n.order = append(n.order[:i], n.order[i+1:]...)
			break
		}
	}
	return nil
}

// Route returns a registered route.
func (n *Network) Route(id RouteID) (*Route, bool) {
	r, ok := n.routes[id]
	return r, ok
}

// Len returns the total number of indexed objects across routes.
func (n *Network) Len() int {
	total := 0
	for _, ix := range n.indexes {
		total += ix.Len()
	}
	return total
}

// Insert adds an object's motion along the given route: m.Y0 is the arc
// length at time m.T0 and m.V the along-route speed. Objects must update
// when they reach either end of the route (§4.1 keeps objects on their
// route at intersections unless they issue an update).
func (n *Network) Insert(rid RouteID, m dual.Motion) error {
	ix, ok := n.indexes[rid]
	if !ok {
		return fmt.Errorf("route: unknown route %d", rid)
	}
	return ix.Insert(m)
}

// Delete removes a motion previously inserted on the route.
func (n *Network) Delete(rid RouteID, m dual.Motion) error {
	ix, ok := n.indexes[rid]
	if !ok {
		return fmt.Errorf("route: unknown route %d", rid)
	}
	return ix.Delete(m)
}

// Hit is one query result: the object and the route it travels.
type Hit struct {
	OID   dual.OID
	Route RouteID
}

// Query answers the two-dimensional MOR query: report every object that is
// inside rect at some instant in [t1, t2]. The SAM prunes to the routes
// and segments crossing rect; each clipped segment contributes an
// arc-length interval queried on the route's 1-dimensional index. Hits
// come route by route in the order the routes were added, so a repeated
// query emits the same sequence.
func (n *Network) Query(rect geom.Rect, t1, t2 float64, emit func(Hit)) error {
	// Collect clipped arc-length intervals per route.
	type span struct{ lo, hi float64 }
	spans := make(map[RouteID][]span)
	err := n.sam.SearchRect(rect, func(it rstar.Item) bool {
		rid := RouteID(it.Val >> 16)
		segIdx := int(it.Val & 0xffff)
		r := n.routes[rid]
		a, b := r.Pts[segIdx], r.Pts[segIdx+1]
		// A strict end test: no reversed span reaches the route's index.
		f0, f1, ok := geom.Segment{A: a, B: b}.Clip(rect)
		if !ok || f0 > f1 {
			return true
		}
		segLo := r.cum[segIdx]
		segLen := r.cum[segIdx+1] - segLo
		spans[rid] = append(spans[rid], span{segLo + f0*segLen, segLo + f1*segLen})
		return true
	})
	if err != nil {
		return err
	}
	for _, rid := range n.order {
		ss, ok := spans[rid]
		if !ok {
			continue
		}
		ix := n.indexes[rid]
		seen := make(map[dual.OID]struct{})
		for _, s := range ss {
			q := dual.MORQuery{Y1: s.lo, Y2: s.hi, T1: t1, T2: t2}
			err := ix.Query(q, func(id dual.OID) {
				if _, dup := seen[id]; dup {
					return
				}
				seen[id] = struct{}{}
				emit(Hit{OID: id, Route: rid})
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
