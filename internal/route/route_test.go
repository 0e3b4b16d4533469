package route

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

func newNet(t *testing.T) (*Network, *pager.MemStore) {
	t.Helper()
	st := pager.NewMemStore(1024)
	n, err := NewNetwork(st, Config{VMin: 0.5, VMax: 2, C: 4, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	return n, st
}

func TestRouteGeometry(t *testing.T) {
	n, _ := newNet(t)
	r, err := n.AddRoute(1, []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}, {X: 3, Y: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Length(); math.Abs(got-11) > 1e-9 {
		t.Fatalf("Length = %v, want 11", got)
	}
	p := r.PointAt(5)
	if math.Abs(p.X-3) > 1e-9 || math.Abs(p.Y-4) > 1e-9 {
		t.Fatalf("PointAt(5) = %+v, want (3,4)", p)
	}
	p = r.PointAt(2.5)
	if math.Abs(p.X-1.5) > 1e-9 || math.Abs(p.Y-2) > 1e-9 {
		t.Fatalf("PointAt(2.5) = %+v", p)
	}
	if got := r.PointAt(-1); got != r.Pts[0] {
		t.Fatalf("PointAt clamps low: %+v", got)
	}
	if got := r.PointAt(99); got != r.Pts[2] {
		t.Fatalf("PointAt clamps high: %+v", got)
	}
}

func TestAddRouteErrors(t *testing.T) {
	n, _ := newNet(t)
	if _, err := n.AddRoute(1, []geom.Point{{X: 0, Y: 0}}); err == nil {
		t.Fatal("single-point route accepted")
	}
	if _, err := n.AddRoute(1, []geom.Point{{X: 0, Y: 0}, {X: 0, Y: 0}}); err == nil {
		t.Fatal("zero-length segment accepted")
	}
	if _, err := n.AddRoute(1, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRoute(1, []geom.Point{{X: 0, Y: 0}, {X: 2, Y: 0}}); err == nil {
		t.Fatal("duplicate route id accepted")
	}
	m := dual.Motion{OID: 1, Y0: 0, T0: 0, V: 1}
	if err := n.Insert(99, m); err == nil {
		t.Fatal("insert on unknown route accepted")
	}
}

// Differential test: a grid-of-highways network with objects vs brute force
// over 2D positions.
func TestNetworkQueryDifferential(t *testing.T) {
	n, _ := newNet(t)
	rng := rand.New(rand.NewSource(91))

	// Three horizontal and two vertical roads plus one diagonal.
	routes := map[RouteID][]geom.Point{
		1: {{X: 0, Y: 100}, {X: 1000, Y: 100}},
		2: {{X: 0, Y: 500}, {X: 1000, Y: 500}},
		3: {{X: 0, Y: 900}, {X: 1000, Y: 900}},
		4: {{X: 200, Y: 0}, {X: 200, Y: 1000}},
		5: {{X: 800, Y: 0}, {X: 800, Y: 1000}},
		6: {{X: 0, Y: 0}, {X: 500, Y: 500}, {X: 1000, Y: 0}},
	}
	for id, pts := range routes {
		if _, err := n.AddRoute(id, pts); err != nil {
			t.Fatal(err)
		}
	}

	type obj struct {
		rid RouteID
		m   dual.Motion
	}
	var objs []obj
	oid := dual.OID(0)
	for rid := RouteID(1); rid <= 6; rid++ {
		r, _ := n.Route(rid)
		for k := 0; k < 120; k++ {
			v := 0.5 + rng.Float64()*1.5
			if rng.Intn(2) == 0 {
				v = -v
			}
			m := dual.Motion{OID: oid, Y0: rng.Float64() * r.Length(), T0: 0, V: v}
			oid++
			if err := n.Insert(rid, m); err != nil {
				t.Fatal(err)
			}
			objs = append(objs, obj{rid, m})
		}
	}
	if n.Len() != len(objs) {
		t.Fatalf("Len = %d want %d", n.Len(), len(objs))
	}

	for trial := 0; trial < 40; trial++ {
		x := rng.Float64() * 900
		y := rng.Float64() * 900
		rect := geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*300, MaxY: y + rng.Float64()*300}
		t1 := rng.Float64() * 50
		t2 := t1 + rng.Float64()*100

		// Brute force: sample each object's 2D position densely in time.
		want := map[dual.OID]bool{}
		for _, o := range objs {
			r, _ := n.Route(o.rid)
			for k := 0; k <= 300; k++ {
				tt := t1 + float64(k)/300*(t2-t1)
				s := o.m.At(tt)
				if s < 0 || s > r.Length() {
					continue
				}
				if rect.Contains(r.PointAt(s)) {
					want[o.m.OID] = true
					break
				}
			}
		}
		got := map[dual.OID]bool{}
		if err := n.Query(rect, t1, t2, func(h Hit) { got[h.OID] = true }); err != nil {
			t.Fatal(err)
		}
		// Sampling misses grazing contacts; the index may legitimately
		// report a superset of the sampled answer but never miss one.
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing object %d", trial, id)
			}
		}
		// And anything extra must at least graze the rectangle: verify
		// with a fine analytic check on each extra.
		for id := range got {
			if want[id] {
				continue
			}
			var o obj
			for _, cand := range objs {
				if cand.m.OID == id {
					o = cand
					break
				}
			}
			r, _ := n.Route(o.rid)
			ok := false
			for k := 0; k <= 3000 && !ok; k++ {
				tt := t1 + float64(k)/3000*(t2-t1)
				s := o.m.At(tt)
				if s < 0 || s > r.Length() {
					continue
				}
				p := r.PointAt(s)
				grown := geom.Rect{MinX: rect.MinX - 0.5, MinY: rect.MinY - 0.5, MaxX: rect.MaxX + 0.5, MaxY: rect.MaxY + 0.5}
				if grown.Contains(p) {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("trial %d: spurious object %d on route %d", trial, id, o.rid)
			}
		}
	}
}

func TestNetworkUpdate(t *testing.T) {
	n, _ := newNet(t)
	if _, err := n.AddRoute(1, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}); err != nil {
		t.Fatal(err)
	}
	m := dual.Motion{OID: 7, Y0: 10, T0: 0, V: 1}
	if err := n.Insert(1, m); err != nil {
		t.Fatal(err)
	}
	// Object at arc 10 moving right: query a window around x=30 at t=20.
	found := 0
	rect := geom.Rect{MinX: 25, MinY: -1, MaxX: 35, MaxY: 1}
	if err := n.Query(rect, 18, 22, func(Hit) { found++ }); err != nil {
		t.Fatal(err)
	}
	if found != 1 {
		t.Fatalf("found %d, want 1", found)
	}
	// Update: reverse direction.
	if err := n.Delete(1, m); err != nil {
		t.Fatal(err)
	}
	m2 := dual.Motion{OID: 7, Y0: 30, T0: 20, V: -1}
	if err := n.Insert(1, m2); err != nil {
		t.Fatal(err)
	}
	found = 0
	if err := n.Query(rect, 38, 42, func(Hit) { found++ }); err != nil {
		t.Fatal(err)
	}
	if found != 0 {
		t.Fatalf("reversed object still found ahead")
	}
	found = 0
	rect2 := geom.Rect{MinX: 5, MinY: -1, MaxX: 15, MaxY: 1}
	if err := n.Query(rect2, 38, 42, func(Hit) { found++ }); err != nil {
		t.Fatal(err)
	}
	if found != 1 {
		t.Fatalf("reversed object not found behind: %d", found)
	}
}

// The SAM must prune: querying a small rectangle must not touch the
// indexes of routes far away.
func TestNetworkPrunesRoutes(t *testing.T) {
	n, st := newNet(t)
	rng := rand.New(rand.NewSource(97))
	for rid := RouteID(0); rid < 40; rid++ {
		y := float64(rid) * 25
		if _, err := n.AddRoute(rid, []geom.Point{{X: 0, Y: y}, {X: 1000, Y: y}}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 50; k++ {
			v := 0.5 + rng.Float64()
			m := dual.Motion{OID: dual.OID(int(rid)*100 + k), Y0: rng.Float64() * 1000, T0: 0, V: v}
			if err := n.Insert(rid, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	total := st.PagesInUse()
	before := st.Stats()
	rect := geom.Rect{MinX: 400, MinY: 480, MaxX: 600, MaxY: 530} // touches ~3 routes
	if err := n.Query(rect, 0, 10, func(Hit) {}); err != nil {
		t.Fatal(err)
	}
	reads := st.Stats().Sub(before).Reads
	if reads > int64(total/5) {
		t.Fatalf("query read %d of %d pages — route pruning failed", reads, total)
	}
}

func TestRemoveRoute(t *testing.T) {
	n, _ := newNet(t)
	if _, err := n.AddRoute(1, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRoute(2, []geom.Point{{X: 0, Y: 50}, {X: 100, Y: 50}}); err != nil {
		t.Fatal(err)
	}
	m := dual.Motion{OID: 1, Y0: 10, T0: 0, V: 1}
	if err := n.Insert(1, m); err != nil {
		t.Fatal(err)
	}
	// A populated route refuses removal.
	if err := n.RemoveRoute(1); err == nil {
		t.Fatal("populated route removed")
	}
	if err := n.Delete(1, m); err != nil {
		t.Fatal(err)
	}
	if err := n.RemoveRoute(1); err != nil {
		t.Fatal(err)
	}
	if err := n.RemoveRoute(1); err == nil {
		t.Fatal("double removal accepted")
	}
	// Queries over the removed route's corridor find nothing; route 2
	// still answers.
	m2 := dual.Motion{OID: 2, Y0: 10, T0: 0, V: 1}
	if err := n.Insert(2, m2); err != nil {
		t.Fatal(err)
	}
	hits := 0
	if err := n.Query(geom.Rect{MinX: 0, MinY: -10, MaxX: 100, MaxY: 60}, 0, 5, func(Hit) { hits++ }); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("hits = %d, want 1 (route 2 only)", hits)
	}
}

// A query emits the same hit sequence every time it runs: the per-route
// intervals are visited in the order the routes were added, never in map
// order.
func TestNetworkQueryOrderDeterministic(t *testing.T) {
	n, _ := newNet(t)
	for rid := RouteID(1); rid <= 10; rid++ {
		y := float64(rid) * 50
		if _, err := n.AddRoute(rid, []geom.Point{{X: 0, Y: y}, {X: 1000, Y: y}}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 5; k++ {
			m := dual.Motion{OID: dual.OID(int(rid)*100 + k), Y0: float64(100 + 10*k), T0: 0, V: 1}
			if err := n.Insert(rid, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func() []Hit {
		var hits []Hit
		if err := n.Query(geom.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, 0, 10,
			func(h Hit) { hits = append(hits, h) }); err != nil {
			t.Fatal(err)
		}
		return hits
	}
	first := run()
	if len(first) != 50 {
		t.Fatalf("query found %d hits, want 50", len(first))
	}
	for i := 0; i < 20; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d emitted a different hit sequence:\n got %v\nwant %v", i, got, first)
		}
	}
}
