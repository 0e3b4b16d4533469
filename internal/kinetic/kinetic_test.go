package kinetic

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

func randObjects(rng *rand.Rand, n int, ymax, vmax float64) []Object {
	objs := make([]Object, n)
	for i := range objs {
		v := (rng.Float64()*2 - 1) * vmax
		objs[i] = Object{OID: dual.OID(i), Y0: rng.Float64() * ymax, V: v}
	}
	return objs
}

// bruteCrossings counts pairs that swap order between tStart and tStart+h.
func bruteCrossings(objs []Object, h float64) int {
	m := 0
	for i := 0; i < len(objs); i++ {
		for j := i + 1; j < len(objs); j++ {
			a, b := objs[i], objs[j]
			s0 := a.Y0 - b.Y0
			s1 := (a.Y0 + a.V*h) - (b.Y0 + b.V*h)
			if (s0 < 0 && s1 > 0) || (s0 > 0 && s1 < 0) {
				m++
			}
		}
	}
	return m
}

func TestCrossingsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		objs := randObjects(rng, n, 100, 2)
		h := 1 + rng.Float64()*50
		got := Crossings(objs, 0, h)
		want := bruteCrossings(objs, h)
		if len(got) != want {
			t.Fatalf("trial %d: %d crossings, brute force %d", trial, len(got), want)
		}
		// Times must be sorted and within the window.
		prev := math.Inf(-1)
		for _, c := range got {
			if c.Time < prev {
				t.Fatal("crossings not time-sorted")
			}
			prev = c.Time
			if c.Time <= 0 || c.Time > h {
				t.Fatalf("crossing time %v outside (0, %v]", c.Time, h)
			}
			// Verify the two objects really meet at that time.
			var a, b Object
			for _, o := range objs {
				if o.OID == c.A {
					a = o
				}
				if o.OID == c.B {
					b = o
				}
			}
			ya := a.Y0 + a.V*c.Time
			yb := b.Y0 + b.V*c.Time
			if math.Abs(ya-yb) > 1e-6 {
				t.Fatalf("objects %d,%d at %v apart at their crossing", c.A, c.B, math.Abs(ya-yb))
			}
		}
	}
}

func TestCrossingsDegenerate(t *testing.T) {
	if got := Crossings(nil, 0, 10); got != nil {
		t.Fatal("crossings of empty set")
	}
	if got := Crossings([]Object{{OID: 1, Y0: 5, V: 1}}, 0, 10); got != nil {
		t.Fatal("crossings of singleton")
	}
	// Parallel objects never cross.
	objs := []Object{{OID: 1, Y0: 0, V: 1}, {OID: 2, Y0: 5, V: 1}}
	if got := Crossings(objs, 0, 100); len(got) != 0 {
		t.Fatalf("parallel objects crossed: %v", got)
	}
	// Touch exactly at the horizon: not a crossing.
	objs = []Object{{OID: 1, Y0: 0, V: 1}, {OID: 2, Y0: 10, V: 0}}
	if got := Crossings(objs, 0, 10); len(got) != 0 {
		t.Fatalf("touch at horizon reported: %v", got)
	}
	// Cross strictly inside.
	if got := Crossings(objs, 0, 11); len(got) != 1 {
		t.Fatalf("expected one crossing, got %v", got)
	}
}

func bruteQuery(objs []Object, tStart, yl, yh, tq float64) map[dual.OID]bool {
	out := map[dual.OID]bool{}
	for _, o := range objs {
		y := o.Y0 + o.V*(tq-tStart)
		if y >= yl && y <= yh {
			out[o.OID] = true
		}
	}
	return out
}

func TestStructureDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 5, 300, 2000} {
		st := pager.NewMemStore(1024)
		objs := randObjects(rng, n, 1000, 2)
		tStart, horizon := 100.0, 200.0
		s, err := Build(st, objs, tStart, horizon)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 60; trial++ {
			yl := rng.Float64()*1200 - 100
			yh := yl + rng.Float64()*200
			tq := tStart + rng.Float64()*horizon
			want := bruteQuery(objs, tStart, yl, yh, tq)
			got := map[dual.OID]bool{}
			if err := s.Query(yl, yh, tq, func(id dual.OID) { got[id] = true }); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d trial %d: got %d want %d (tq=%v)", n, trial, len(got), len(want), tq)
			}
			for id := range want {
				if !got[id] {
					t.Fatalf("n=%d: missing %d", n, id)
				}
			}
		}
		// Boundary instants.
		for _, tq := range []float64{tStart, tStart + horizon} {
			want := bruteQuery(objs, tStart, 200, 600, tq)
			got := map[dual.OID]bool{}
			if err := s.Query(200, 600, tq, func(id dual.OID) { got[id] = true }); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d boundary tq=%v: got %d want %d", n, tq, len(got), len(want))
			}
		}
	}
}

// Query instants exactly at crossing times must still report by value.
func TestQueryAtCrossingTimes(t *testing.T) {
	st := pager.NewMemStore(1024)
	objs := []Object{
		{OID: 1, Y0: 0, V: 2},
		{OID: 2, Y0: 10, V: 1},
		{OID: 3, Y0: 20, V: 0},
		{OID: 4, Y0: 30, V: -1},
	}
	s, err := Build(st, objs, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range Crossings(objs, 0, 100) {
		want := bruteQuery(objs, 0, -100, 300, c.Time)
		got := map[dual.OID]bool{}
		if err := s.Query(-100, 300, c.Time, func(id dual.OID) { got[id] = true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("at crossing %v: got %d want %d", c.Time, len(got), len(want))
		}
	}
}

func TestQueryOutsideWindow(t *testing.T) {
	st := pager.NewMemStore(1024)
	s, err := Build(st, randObjects(rand.New(rand.NewSource(1)), 10, 100, 1), 50, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Query(0, 100, 30, func(dual.OID) {}); err == nil {
		t.Fatal("query before window accepted")
	}
	if err := s.Query(0, 100, 70, func(dual.OID) {}); err == nil {
		t.Fatal("query after window accepted")
	}
}

// Space must be O(n + m): scale with objects plus crossings.
func TestSpaceLinearInNPlusM(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	st := pager.NewMemStore(4096)
	objs := randObjects(rng, 20000, 10000, 2)
	s, err := Build(st, objs, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	bd := newBuilder(st)
	// Rough page budget: leaves n/leafSpan, copies+logs ~2 pages per
	// leafLogCap changes, internal levels a small multiple on top.
	minPages := len(objs)/bd.leafSpan + 1
	changePages := 2 * (2*s.M()/bd.leafLogCap + 1)
	budget := 4 * (minPages + changePages)
	if got := st.PagesInUse(); got > budget {
		t.Fatalf("space %d pages exceeds budget %d (n=%d, M=%d)", got, budget, s.N(), s.M())
	}
}

// Query cost must be logarithmic: O(log_B(n+m) + answer/B) page reads.
func TestQueryIOLogarithmic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	st := pager.NewMemStore(4096)
	objs := randObjects(rng, 50000, 100000, 2)
	s, err := Build(st, objs, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		yl := rng.Float64() * 99000
		tq := rng.Float64() * 100
		before := st.Stats()
		found := 0
		if err := s.Query(yl, yl+200, tq, func(dual.OID) { found++ }); err != nil {
			t.Fatal(err)
		}
		reads := st.Stats().Sub(before).Reads
		// Height is ~2-3; each level costs a copy + maybe a log page, the
		// version lookup a few more, plus ~found/leafSpan + 2 leaves.
		budget := int64(20 + 4*(found/newBuilder(st).leafSpan+2))
		if reads > budget {
			t.Fatalf("query read %d pages for %d results", reads, found)
		}
	}
}

func TestDestroyFreesPages(t *testing.T) {
	st := pager.NewMemStore(1024)
	objs := randObjects(rand.New(rand.NewSource(17)), 3000, 1000, 2)
	s, err := Build(st, objs, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if st.PagesInUse() == 0 {
		t.Fatal("structure used no pages?")
	}
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if st.PagesInUse() != 0 {
		t.Fatalf("%d pages leak after Destroy", st.PagesInUse())
	}
}

func TestStaggered(t *testing.T) {
	st := pager.NewMemStore(1024)
	rng := rand.New(rand.NewSource(21))
	sg, err := NewStaggered(st, 50)
	if err != nil {
		t.Fatal(err)
	}
	objs := randObjects(rng, 500, 1000, 2)
	now := 0.0
	snapshot := func() []Object {
		// Objects as of `now`: advance their positions.
		out := make([]Object, len(objs))
		for i, o := range objs {
			out[i] = Object{OID: o.OID, Y0: o.Y0 + o.V*now, V: o.V}
		}
		return out
	}
	for step := 0; step < 20; step++ {
		if err := sg.Advance(now, snapshot); err != nil {
			t.Fatal(err)
		}
		if sg.Structures() > 2 {
			t.Fatalf("step %d: %d live structures", step, sg.Structures())
		}
		// Any tq within [now, now+T] must be answerable.
		for k := 0; k < 10; k++ {
			tq := now + rng.Float64()*50
			yl := rng.Float64()*1000 - 100
			yh := yl + 100
			want := map[dual.OID]bool{}
			for _, o := range objs {
				y := o.Y0 + o.V*tq
				if y >= yl && y <= yh {
					want[o.OID] = true
				}
			}
			got := map[dual.OID]bool{}
			if err := sg.Query(yl, yh, tq, func(id dual.OID) { got[id] = true }); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: got %d want %d", step, len(got), len(want))
			}
		}
		now += 17 // deliberately not a multiple of T
	}
	// Old structures must have been destroyed: pages bounded.
	if sg.Structures() > 2 {
		t.Fatal("stale structures retained")
	}
}

// Heavy-crossing workload: all objects converge, quadratic M, still exact.
func TestConvergingObjects(t *testing.T) {
	st := pager.NewMemStore(1024)
	n := 120
	objs := make([]Object, n)
	for i := range objs {
		// Everyone heads toward y=0 at a speed proportional to distance:
		// they all meet near t=10.
		objs[i] = Object{OID: dual.OID(i), Y0: float64(i * 10), V: -float64(i)}
	}
	s, err := Build(st, objs, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if s.M() != n*(n-1)/2 {
		t.Fatalf("M = %d, want full quadratic %d", s.M(), n*(n-1)/2)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		tq := rng.Float64() * 20
		yl := rng.Float64()*1400 - 200
		yh := yl + rng.Float64()*300
		want := bruteQuery(objs, 0, yl, yh, tq)
		got := map[dual.OID]bool{}
		if err := s.Query(yl, yh, tq, func(id dual.OID) { got[id] = true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d want %d", trial, len(got), len(want))
		}
	}
}

// K-nearest-neighbor queries against brute force.
func TestQueryKNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	st := pager.NewMemStore(1024)
	objs := randObjects(rng, 800, 1000, 2)
	s, err := Build(st, objs, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		y := rng.Float64() * 1000
		tq := rng.Float64() * 100
		k := 1 + rng.Intn(12)
		got, err := s.QueryKNearest(y, tq, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("got %d neighbors, want %d", len(got), k)
		}
		// Brute force k-th distance.
		dists := make([]float64, len(objs))
		for i, o := range objs {
			dists[i] = math.Abs(o.Y0 + o.V*tq - y)
		}
		sort.Float64s(dists)
		for i, nb := range got {
			if math.Abs(nb.Dist-dists[i]) > 1e-9 {
				t.Fatalf("trial %d: neighbor %d dist %v, want %v", trial, i, nb.Dist, dists[i])
			}
		}
		// Results sorted by distance.
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatal("neighbors not distance-sorted")
			}
		}
	}
}

func TestQueryKNearestEdges(t *testing.T) {
	st := pager.NewMemStore(1024)
	s, err := Build(st, []Object{{OID: 1, Y0: 10, V: 1}, {OID: 2, Y0: 20, V: -1}}, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s.QueryKNearest(0, 10, 0); got != nil {
		t.Fatal("k=0 should return nothing")
	}
	got, err := s.QueryKNearest(0, 10, 99) // k > n clamps
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("k>n: got %d", len(got))
	}
	empty, err := Build(pager.NewMemStore(1024), nil, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := empty.QueryKNearest(5, 10, 3); got != nil {
		t.Fatal("empty structure should return nothing")
	}
}

// QueryKNearest shares Query's window check: an instant past the window's
// end, or a NaN one, is refused rather than answered from crossings that
// were never recorded; inside the window the answer is brute force's.
func TestQueryKNearestOutsideWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	objs := randObjects(rng, 3000, 1000, 2)
	s, err := Build(pager.NewMemStore(1024), objs, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, tq := range []float64{-1, 10.5, 200, 1000, math.NaN()} {
		if got, err := s.QueryKNearest(500, tq, 5); err == nil {
			t.Fatalf("tq=%v outside [0, 10]: %d neighbors and no error", tq, len(got))
		}
		if err := s.Query(0, 1000, tq, func(dual.OID) {}); err == nil {
			t.Fatalf("tq=%v outside [0, 10]: Query returned no error", tq)
		}
	}
	for trial := 0; trial < 50; trial++ {
		y, k := rng.Float64()*1000, 1+rng.Intn(12)
		got, err := s.QueryKNearest(y, 5, k)
		if err != nil {
			t.Fatal(err)
		}
		dists := make([]float64, len(objs))
		for i, o := range objs {
			dists[i] = math.Abs(o.Y0 + o.V*5 - y)
		}
		sort.Float64s(dists)
		if len(got) != k || math.Abs(got[k-1].Dist-dists[k-1]) > 1e-9 {
			t.Fatalf("trial %d: k-th distance %v of %d neighbors, want %v", trial, got[len(got)-1].Dist, len(got), dists[k-1])
		}
	}
}

// A NaN or ±Inf position must be refused, not answered with nothing: every
// comparison with NaN is false, so the descent finds no object.
func TestQueryNonFinitePosition(t *testing.T) {
	objs := []Object{{OID: 1, Y0: 100, V: 1}, {OID: 2, Y0: 200, V: -1}}
	s, err := Build(pager.NewMemStore(1024), objs, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := s.QueryKNearest(y, 5, 1); err == nil {
			t.Errorf("QueryKNearest(%v): %d neighbors and no error", y, len(got))
		}
		if err := s.Query(y, 300, 5, func(dual.OID) {}); err == nil {
			t.Errorf("Query(%v, 300): no error", y)
		}
		if err := s.Query(0, y, 5, func(dual.OID) {}); err == nil {
			t.Errorf("Query(0, %v): no error", y)
		}
	}
}

// Validate must pass on random builds and catch the invariant it guards.
func TestValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		st := pager.NewMemStore(1024)
		s, err := Build(st, randObjects(rng, 500+trial*400, 1000, 2), 0, 150)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(50); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
