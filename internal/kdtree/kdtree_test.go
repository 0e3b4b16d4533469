package kdtree

import (
	"fmt"
	"math/rand"
	"testing"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

// space is one row of the suites: the dual plane with the exact-clip
// classifier the 1-dimensional indexes use, and §4.2's 4-dimensional dual
// space with the per-constraint classifier.
type space struct {
	d     int
	exact bool // queries are geom.ConvexRegion rather than geom.HalfSpaces
}

var spaces = []space{{d: 2, exact: true}, {d: 4}}

func (sp space) String() string {
	if sp.d == 2 && !sp.exact {
		return "d=2 per constraint"
	}
	return fmt.Sprintf("d=%d", sp.d)
}

// region builds the row's classifier over the conjunction hs.
func (sp space) region(hs ...geom.HalfSpace) geom.Region {
	if !sp.exact {
		return geom.HalfSpaces{D: sp.d, Hs: hs}
	}
	cs := make([]geom.Constraint, len(hs))
	for i, h := range hs {
		cs[i] = geom.Constraint{A: h.Coef[0], B: h.Coef[1], C: h.C}
	}
	return geom.NewRegion(cs...)
}

// box is the region lo <= x <= hi.
func (sp space) box(lo, hi geom.Vec) geom.Region {
	var hs []geom.HalfSpace
	for k := 0; k < sp.d; k++ {
		var up, down geom.Vec
		up[k], down[k] = 1, -1
		hs = append(hs, geom.HalfSpace{Coef: up, C: hi[k]}, geom.HalfSpace{Coef: down, C: -lo[k]})
	}
	return sp.region(hs...)
}

// randRegion is a conjunction of three random half-spaces.
func (sp space) randRegion(rng *rand.Rand) geom.Region {
	hs := make([]geom.HalfSpace, 3)
	for i := range hs {
		for k := 0; k < sp.d; k++ {
			hs[i].Coef[k] = rng.Float64()*2 - 1
		}
		hs[i].C = rng.Float64() * 500 * float64(sp.d)
	}
	return sp.region(hs...)
}

// uniform fills the first d coordinates with c.
func uniform(d int, c float64) geom.Vec {
	var v geom.Vec
	for k := 0; k < d; k++ {
		v[k] = c
	}
	return v
}

func world(d int) geom.Box { return geom.Box{Lo: uniform(d, -10), Hi: uniform(d, 1010)} }

func newTree(t testing.TB, pageSize, d int) (*Tree, *pager.MemStore) {
	t.Helper()
	st := pager.NewMemStore(pageSize)
	tr, err := New(st, d, world(d))
	if err != nil {
		t.Fatal(err)
	}
	return tr, st
}

func randPoint(rng *rand.Rand, d int, val uint64) Point {
	var v geom.Vec
	for k := 0; k < d; k++ {
		v[k] = rng.Float64() * 1000
	}
	return Pt(v, val)
}

// search collects the references a region query reports.
func search(t testing.TB, tr *Tree, reg geom.Region) map[uint64]bool {
	t.Helper()
	got := map[uint64]bool{}
	if err := tr.SearchRegion(reg, func(p Point) bool { got[p.Val] = true; return true }); err != nil {
		t.Fatal(err)
	}
	return got
}

// brute is the oracle: the references of ref that reg contains.
func brute(ref []Point, reg geom.Region) map[uint64]bool {
	want := map[uint64]bool{}
	for _, p := range ref {
		if reg.ContainsVec(p.Vec()) {
			want[p.Val] = true
		}
	}
	return want
}

func sameSet(t testing.TB, what string, got, want map[uint64]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d points, want %d", what, len(got), len(want))
	}
	for v := range want {
		if !got[v] {
			t.Fatalf("%s: missing %d", what, v)
		}
	}
}

func eachSpace(t *testing.T, fn func(t *testing.T, sp space)) {
	for _, sp := range spaces {
		t.Run(sp.String(), func(t *testing.T) { fn(t, sp) })
	}
}

func TestBucketCapacity(t *testing.T) {
	// 12-byte points at d = 2: (4096-8)/12 = 340, the paper's B modulo
	// header. 20-byte points at d = 4: B = 204, the R*-tree baseline's
	// record size.
	want := map[int]int{2: 340, 4: 204}
	eachSpace(t, func(t *testing.T, sp space) {
		if tr, _ := newTree(t, 4096, sp.d); tr.BucketCap() != want[sp.d] {
			t.Fatalf("bucket cap = %d, want %d", tr.BucketCap(), want[sp.d])
		}
	})
}

func TestNewValidation(t *testing.T) {
	st := pager.NewMemStore(512)
	if _, err := New(st, 0, geom.Box{}); err == nil {
		t.Fatal("dims 0 accepted")
	}
	if _, err := New(st, geom.MaxDims+1, world(geom.MaxDims)); err == nil {
		t.Fatal("dims past MaxDims accepted")
	}
	if _, err := New(st, 4, world(2)); err == nil {
		t.Fatal("world of fewer dimensions than the tree accepted")
	}
	if _, err := New(st, 2, geom.Box{Lo: geom.Vec{0, 5}, Hi: geom.Vec{1, 5}}); err == nil {
		t.Fatal("empty-extent world accepted")
	}
	if _, err := New(pager.NewMemStore(64), 4, world(4)); err == nil {
		t.Fatal("page too small for four buckets accepted")
	}
}

func TestRejectOutsideWorld(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, _ := newTree(t, 512, sp.d)
		p := uniform(sp.d, 0)
		p[sp.d-1] = 5000
		if err := tr.Insert(Pt(p, 1)); err == nil {
			t.Fatal("expected error for out-of-world point")
		}
		if err := tr.Insert(Pt(uniform(sp.d, 1), 1<<32)); err == nil {
			t.Fatal("expected error for a reference past 32 bits")
		}
	})
}

// A point or a region of another dimensionality than the tree is refused.
func TestDimMismatch(t *testing.T) {
	tr, _ := newTree(t, 512, 2)
	if err := tr.Insert(Pt(uniform(4, 1), 1)); err == nil {
		t.Fatal("4-coordinate insert into a 2-dimensional tree accepted")
	}
	if _, err := tr.Delete(Pt(uniform(4, 1), 1)); err == nil {
		t.Fatal("4-coordinate delete from a 2-dimensional tree accepted")
	}
	if err := tr.BulkLoad([]Point{Pt(uniform(4, 1), 1)}); err == nil {
		t.Fatal("4-coordinate bulk load into a 2-dimensional tree accepted")
	}
	if err := tr.SearchRegion(geom.HalfSpaces{D: 4}, func(Point) bool { return true }); err == nil {
		t.Fatal("4-dimensional region on a 2-dimensional tree accepted")
	}
	tr4, _ := newTree(t, 512, 4)
	if err := tr4.SearchRegion(geom.NewRegion(), func(Point) bool { return true }); err == nil {
		t.Fatal("planar region on a 4-dimensional tree accepted")
	}
}

func TestInsertSearchSmall(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, _ := newTree(t, 512, sp.d)
		var ref []Point
		for i := 0; i < 500; i++ {
			p := uniform(sp.d, float64(i/25))
			p[0] = float64(i % 25)
			ref = append(ref, Pt(p, uint64(i)))
			if err := tr.Insert(ref[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		q := sp.box(uniform(sp.d, 0), uniform(sp.d, 5))
		want := brute(ref, q)
		if len(want) != 36 {
			t.Fatalf("oracle found %d points in the 6x6 corner", len(want))
		}
		sameSet(t, "corner box", search(t, tr, q), want)
	})
}

func TestRandomOpsAgainstBruteForce(t *testing.T) {
	// The dual plane is also run through the per-constraint classifier: a
	// tree does not care which one a query brings.
	for _, sp := range append([]space{{d: 2}}, spaces...) {
		t.Run(sp.String(), func(t *testing.T) { testRandomOps(t, sp, 256); testRandomOps(t, sp, 512) })
	}
}

func testRandomOps(t *testing.T, sp space, pageSize int) {
	tr, _ := newTree(t, pageSize, sp.d)
	rng := rand.New(rand.NewSource(71))
	var ref []Point
	nextVal := uint64(0)
	for op := 0; op < 6000; op++ {
		switch {
		case len(ref) == 0 || rng.Float64() < 0.62:
			p := randPoint(rng, sp.d, nextVal)
			nextVal++
			if err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
			ref = append(ref, p)
		default:
			i := rng.Intn(len(ref))
			found, err := tr.Delete(ref[i])
			if err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if !found {
				t.Fatalf("op %d: delete missed %+v", op, ref[i])
			}
			ref = append(ref[:i], ref[i+1:]...)
		}
		if op%600 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	for trial := 0; trial < 50; trial++ {
		what := fmt.Sprintf("page %d trial %d", pageSize, trial)
		var lo, hi geom.Vec
		for k := 0; k < sp.d; k++ {
			lo[k] = rng.Float64() * 900
			hi[k] = lo[k] + rng.Float64()*200*float64(sp.d)
		}
		// The box is checked against an oracle that shares no code
		// with the region's own point test.
		inBox := map[uint64]bool{}
		for _, p := range ref {
			if (geom.Box{Lo: lo, Hi: hi}).Contains(p.Vec(), sp.d) {
				inBox[p.Val] = true
			}
		}
		sameSet(t, what+" box", search(t, tr, sp.box(lo, hi)), inBox)
		q := sp.randRegion(rng)
		sameSet(t, what+" half-spaces", search(t, tr, q), brute(ref, q))
	}
}

func TestSearchRegionWedge(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, _ := newTree(t, 512, sp.d)
		rng := rand.New(rand.NewSource(73))
		var ref []Point
		for i := 0; i < 4000; i++ {
			ref = append(ref, randPoint(rng, sp.d, uint64(i)))
			if err := tr.Insert(ref[i]); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 30; trial++ {
			// Two random half-spaces and x >= 0, which keeps it bounded-ish.
			h := func() (h geom.HalfSpace) {
				for k := 0; k < sp.d; k++ {
					h.Coef[k] = rng.Float64()*2 - 1
				}
				h.C = rng.Float64() * 1000
				return h
			}
			reg := sp.region(h(), h(), geom.HalfSpace{Coef: geom.Vec{-1}})
			sameSet(t, fmt.Sprintf("wedge %d", trial), search(t, tr, reg), brute(ref, reg))
		}
	})
}

// All-identical points must overflow into a chain and still be findable
// and deletable.
func TestDegenerateDuplicates(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, st := newTree(t, 256, sp.d)
		n := tr.BucketCap()*3 + 5
		same := uniform(sp.d, 7)
		for i := 0; i < n; i++ {
			if err := tr.Insert(Pt(same, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if got := len(search(t, tr, sp.box(same, same))); got != n {
			t.Fatalf("found %d duplicates, want %d", got, n)
		}
		if got := len(search(t, tr, sp.region())); got != n {
			t.Fatalf("unconstrained query found %d duplicates, want %d", got, n)
		}
		for i := 0; i < n; i++ {
			found, err := tr.Delete(Pt(same, uint64(i)))
			if err != nil || !found {
				t.Fatalf("delete dup %d: found=%v err=%v", i, found, err)
			}
		}
		if tr.Len() != 0 || st.PagesInUse() != 1 {
			t.Fatalf("Len = %d, %d pages after deleting every duplicate", tr.Len(), st.PagesInUse())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDrainReclaimsPages(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, st := newTree(t, 256, sp.d)
		rng := rand.New(rand.NewSource(79))
		var ref []Point
		for i := 0; i < 3000; i++ {
			ref = append(ref, randPoint(rng, sp.d, uint64(i)))
			if err := tr.Insert(ref[i]); err != nil {
				t.Fatal(err)
			}
		}
		full := st.PagesInUse()
		for i, p := range ref {
			found, err := tr.Delete(p)
			if err != nil || !found {
				t.Fatalf("delete %d: found=%v err=%v", i, found, err)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("Len = %d", tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Collapses must reclaim nearly everything (a couple of pages of slack
		// for the root bucket and a possibly-sparse root directory page).
		if got := st.PagesInUse(); got > 3 {
			t.Fatalf("pages after drain = %d (was %d), want <= 3", got, full)
		}
		// Still usable.
		if err := tr.Insert(Pt(uniform(sp.d, 1), 9)); err != nil {
			t.Fatal(err)
		}
		if n := len(search(t, tr, sp.region())); n != 1 {
			t.Fatal("tree unusable after drain")
		}
	})
}

func TestDestroy(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, st := newTree(t, 512, sp.d)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 2000; i++ {
			if err := tr.Insert(randPoint(rng, sp.d, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 40; i++ { // an overflow chain to free as well
			if err := tr.Insert(Pt(uniform(sp.d, 3), uint64(5000+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Destroy(); err != nil {
			t.Fatal(err)
		}
		if st.PagesInUse() != 0 {
			t.Fatalf("%d pages leak after Destroy", st.PagesInUse())
		}
	})
}

func TestEarlyStop(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, _ := newTree(t, 256, sp.d)
		for i := 0; i < 300; i++ {
			p := uniform(sp.d, 1)
			p[0] = float64(i)
			if err := tr.Insert(Pt(p, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		if err := tr.SearchRegion(sp.region(), func(Point) bool { n++; return n < 9 }); err != nil {
			t.Fatal(err)
		}
		if n != 9 {
			t.Fatalf("early stop visited %d", n)
		}
	})
}

// Query I/O must be far below a full scan thanks to k-d pruning: a box 3 %
// of the domain wide in the plane, 2 % wide in four dimensions.
func TestQueryIOBetterThanScan(t *testing.T) {
	for _, row := range []struct {
		sp       space
		n        int
		lo, hi   float64
		fraction int64 // reads must stay under total/fraction
	}{
		{spaces[0], 100000, 400, 430, 5},
		{spaces[1], 50000, 100, 120, 3},
	} {
		t.Run(row.sp.String(), func(t *testing.T) {
			tr, st := newTree(t, 4096, row.sp.d)
			rng := rand.New(rand.NewSource(83))
			for i := 0; i < row.n; i++ {
				if err := tr.Insert(randPoint(rng, row.sp.d, uint64(i))); err != nil {
					t.Fatal(err)
				}
			}
			total := int64(st.PagesInUse())
			before := st.Stats()
			found := len(search(t, tr, row.sp.box(uniform(row.sp.d, row.lo), uniform(row.sp.d, row.hi))))
			reads := st.Stats().Sub(before).Reads
			if row.sp.d == 2 && found == 0 {
				t.Fatal("query found nothing")
			}
			if reads > total/row.fraction {
				t.Fatalf("query read %d of %d pages — no pruning?", reads, total)
			}
		})
	}
}

// The k-d tree must split on every dimension for skewed dual-like data —
// the paper's Figure 3 argument. We verify each dimension appears among
// the splits by checking query performance on a thin slab in it.
func TestSplitsBothDimensions(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		// World matches the actual data domain per dimension, as the dual
		// indexes configure it: narrow velocities, wide intercepts.
		extent := geom.Vec{2, 1000, 2, 1000}
		var hi geom.Vec
		copy(hi[:sp.d], extent[:])
		st := pager.NewMemStore(512)
		tr, err := New(st, sp.d, geom.Box{Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(89))
		for i := 0; i < 20000; i++ {
			var p geom.Vec
			for k := 0; k < sp.d; k++ {
				p[k] = rng.Float64() * extent[k]
			}
			if err := tr.Insert(Pt(p, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		total := int64(st.PagesInUse())
		// A slab a tenth of the domain wide in one dimension: only a
		// fraction of the pages should be read. With four dimensions to
		// share the splits each is cut less often, so the slab is allowed
		// more.
		limit := total * 2 / 5
		if sp.d == 4 {
			limit = total * 3 / 5
		}
		for k := 0; k < sp.d; k++ {
			slabHi := hi
			slabHi[k] = extent[k] / 10
			before := st.Stats()
			search(t, tr, sp.box(geom.Vec{}, slabHi))
			if reads := st.Stats().Sub(before).Reads; reads > limit {
				t.Fatalf("slab in dimension %d read %d of %d pages: that dimension never split", k, reads, total)
			}
		}
	})
}
