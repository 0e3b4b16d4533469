package parttree

import (
	"fmt"
	"math"
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

// randRegion is a conjunction of n random half-spaces.
func (sp space) randRegion(rng *rand.Rand, n int) geom.Region {
	hs := make([]geom.HalfSpace, n)
	for i := range hs {
		for k := 0; k < sp.d; k++ {
			hs[i].Coef[k] = rng.Float64()*2 - 1
		}
		hs[i].C = rng.Float64() * 500 * float64(sp.d)
	}
	return sp.region(hs...)
}

// slab is the region at most w away from the hyperplane Σx = c.
func (sp space) slab(c, w float64) geom.Region {
	up, down := uniform(sp.d, 1), uniform(sp.d, -1)
	return sp.region(geom.HalfSpace{Coef: up, C: c + w}, geom.HalfSpace{Coef: down, C: -(c - w)})
}

// uniform fills the first d coordinates with c.
func uniform(d int, c float64) geom.Vec {
	var v geom.Vec
	for k := 0; k < d; k++ {
		v[k] = c
	}
	return v
}

func newTree(t testing.TB, pageSize, d int) (*Tree, *pager.MemStore) {
	t.Helper()
	st := pager.NewMemStore(pageSize)
	tr, err := New(st, d)
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

func randPoints(rng *rand.Rand, d, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = randPoint(rng, d, uint64(i))
	}
	return pts
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

func TestNewValidation(t *testing.T) {
	st := pager.NewMemStore(512)
	for _, d := range []int{0, geom.MaxDims + 1} {
		if _, err := New(st, d); err == nil {
			t.Fatalf("dims=%d accepted", d)
		}
	}
	if _, err := New(pager.NewMemStore(32), 4); err == nil {
		t.Fatal("page too small for two cells accepted")
	}
	// One page per node: 20-byte cells and 12-byte records at d = 2, as the
	// paper's B+-tree method; 36 and 20 at d = 4.
	for d, want := range map[int][2]int{2: {204, 340}, 4: {113, 204}} {
		tr, _ := newTree(t, 4096, d)
		if tr.fanout != want[0] || tr.leafCap != want[1] {
			t.Errorf("d=%d: fanout %d, leaf capacity %d; want %v", d, tr.fanout, tr.leafCap, want)
		}
	}
}

// A point or a region of another dimensionality than the tree is refused,
// and so is a reference the 32-bit page slot cannot hold.
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
	if err := tr.Insert(Pt(uniform(2, 1), 1<<32)); err == nil {
		t.Fatal("a reference past 32 bits accepted")
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
		for i := 0; i < 300; i++ {
			p := uniform(sp.d, float64(i/20))
			p[0] = float64(i % 20)
			ref = append(ref, Pt(p, uint64(i)))
			if err := tr.Insert(ref[i]); err != nil {
				t.Fatal(err)
			}
		}
		if tr.Len() != 300 {
			t.Fatalf("Len = %d", tr.Len())
		}
		// The half-space x0 + x1 <= 5.
		q := sp.region(geom.HalfSpace{Coef: geom.Vec{1, 1}, C: 5})
		want := brute(ref, q)
		if len(want) != 21 {
			t.Fatalf("oracle found %d points under the diagonal", len(want))
		}
		sameSet(t, "half-space", search(t, tr, q), want)
	})
}

func TestRandomOpsAgainstBruteForce(t *testing.T) {
	// The dual plane is also run through the per-constraint classifier: a
	// tree does not care which one a query brings.
	for _, sp := range append([]space{{d: 2}}, spaces...) {
		t.Run(sp.String(), func(t *testing.T) { testRandomOps(t, sp) })
	}
}

func testRandomOps(t *testing.T, sp space) {
	tr, _ := newTree(t, 512, sp.d)
	rng := rand.New(rand.NewSource(51))
	var ref []Point
	nextVal := uint64(0)
	for op := 0; op < 4000; op++ {
		switch {
		case len(ref) == 0 || rng.Float64() < 0.6:
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
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len=%d want %d", tr.Len(), len(ref))
	}
	for trial := 0; trial < 50; trial++ {
		reg := sp.randRegion(rng, 2+trial%2)
		sameSet(t, fmt.Sprintf("trial %d", trial), search(t, tr, reg), brute(ref, reg))
	}
}

func TestBlocksLogarithmic(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, _ := newTree(t, 512, sp.d)
		rng := rand.New(rand.NewSource(52))
		for i := 0; i < 5000; i++ {
			if err := tr.Insert(randPoint(rng, sp.d, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		// log2(5000) ≈ 12.3; the logarithmic method keeps one block per
		// occupied size class.
		if tr.Blocks() > 14 {
			t.Fatalf("%d blocks for 5000 points", tr.Blocks())
		}
	})
}

func TestDeleteTriggersRebuild(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, st := newTree(t, 512, sp.d)
		ref := randPoints(rand.New(rand.NewSource(53)), sp.d, 2000)
		for _, p := range ref {
			if err := tr.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		full := st.PagesInUse()
		for i := 0; i < 1900; i++ {
			found, err := tr.Delete(ref[i])
			if err != nil || !found {
				t.Fatalf("delete %d: %v %v", i, found, err)
			}
		}
		if tr.Len() != 100 {
			t.Fatalf("Len = %d", tr.Len())
		}
		// The half-dead rebuild must have reclaimed most of the space.
		if st.PagesInUse() > full/4 {
			t.Fatalf("pages %d of %d after 95%% deletion", st.PagesInUse(), full)
		}
		// Remaining points still searchable.
		sameSet(t, "after rebuild", search(t, tr, sp.region()), brute(ref[1900:], sp.region()))
	})
}

func TestDeleteAbsent(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, _ := newTree(t, 512, sp.d)
		if err := tr.Insert(Pt(uniform(sp.d, 1), 1)); err != nil {
			t.Fatal(err)
		}
		for _, p := range []Point{Pt(uniform(sp.d, 2), 1), Pt(uniform(sp.d, 1), 2)} {
			if found, err := tr.Delete(p); err != nil || found {
				t.Fatalf("delete of absent %v: found=%v err=%v", p, found, err)
			}
		}
	})
}

func TestDuplicatePoints(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, st := newTree(t, 256, sp.d)
		same := uniform(sp.d, 3)
		for i := 0; i < 500; i++ {
			if err := tr.Insert(Pt(same, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		// x0 <= 3 holds them all; x0 <= 2 none.
		if got := len(search(t, tr, sp.region(geom.HalfSpace{Coef: geom.Vec{1}, C: 3}))); got != 500 {
			t.Fatalf("found %d duplicates", got)
		}
		if got := len(search(t, tr, sp.region(geom.HalfSpace{Coef: geom.Vec{1}, C: 2}))); got != 0 {
			t.Fatalf("found %d duplicates below them", got)
		}
		for i := 0; i < 500; i++ {
			found, err := tr.Delete(Pt(same, uint64(i)))
			if err != nil || !found {
				t.Fatalf("delete dup %d: %v %v", i, found, err)
			}
		}
		if tr.Len() != 0 || st.PagesInUse() != 0 {
			t.Fatalf("Len = %d, %d pages after deleting every duplicate", tr.Len(), st.PagesInUse())
		}
	})
}

func TestEarlyStop(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, _ := newTree(t, 512, sp.d)
		for i := 0; i < 400; i++ {
			if err := tr.Insert(Pt(geom.Vec{float64(i)}, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		if err := tr.SearchRegion(sp.region(), func(Point) bool { n++; return n < 6 }); err != nil {
			t.Fatal(err)
		}
		if n != 6 {
			t.Fatalf("early stop visited %d", n)
		}
	})
}

// The crossing number of the root partition must be ~O(√r) in the plane:
// the property the whole query bound rests on (Matousek's lemma, checked
// empirically). In four dimensions the bound is O(r^(3/4)), which a
// one-page root of 113 cells cannot tell from r; there the check is only
// that some hyperplane crosses cells and none crosses them all.
func TestCrossingNumberSqrt(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, _ := newTree(t, 4096, sp.d)
		rng := rand.New(rand.NewSource(59))
		if err := tr.BulkLoad(randPoints(rng, sp.d, 200000)); err != nil {
			t.Fatal(err)
		}
		worst := 0
		var cells int
		for trial := 0; trial < 60; trial++ {
			// Random hyperplane through the data.
			var line geom.HalfSpace
			norm := 0.0
			for k := 0; k < sp.d; k++ {
				line.Coef[k] = rng.NormFloat64()
				norm += line.Coef[k] * line.Coef[k]
			}
			for k := 0; k < sp.d; k++ {
				line.Coef[k] /= math.Sqrt(norm)
				line.C += line.Coef[k] * rng.Float64() * 1000
			}
			crossed, n, err := tr.MaxLineCrossings(line)
			if err != nil {
				t.Fatal(err)
			}
			cells = n
			if crossed > worst {
				worst = crossed
			}
		}
		limit := cells - 1
		if sp.d == 2 {
			limit = int(4*math.Sqrt(float64(cells))) + 2
		}
		if worst == 0 || worst > limit {
			t.Fatalf("worst crossing %d of %d cells, want within (0, %d]", worst, cells, limit)
		}
	})
}

// Simplex query I/O must scale ~√n in the plane and ~n^(3/4) in four
// dimensions: measure a thin slab with small output at two sizes, 16x
// apart, and check the growth is far below linear (16x). √16 = 4 and
// 16^(3/4) = 8; both get generous slack.
func TestQueryIOSublinear(t *testing.T) {
	for _, row := range []struct {
		sp    space
		c, w  float64
		reps  int
		limit float64
	}{
		{spaces[0], 1000, 0.5, 5, 9},
		{spaces[1], 2000, 1, 8, 12},
	} {
		t.Run(row.sp.String(), func(t *testing.T) {
			measure := func(n int) float64 {
				tr, st := newTree(t, 4096, row.sp.d)
				rng := rand.New(rand.NewSource(61))
				if err := tr.BulkLoad(randPoints(rng, row.sp.d, n)); err != nil {
					t.Fatal(err)
				}
				total := int64(0)
				for r := 0; r < row.reps; r++ {
					before := st.Stats()
					search(t, tr, row.sp.slab(row.c+float64(r)*10, row.w))
					total += st.Stats().Sub(before).Reads
				}
				return float64(total) / float64(row.reps)
			}
			small := measure(20000)
			big := measure(320000)
			if !(small > 0) || big > small*row.limit {
				t.Fatalf("query I/O grew %.1fx for 16x data (limit %.0fx, linear 16x)", big/small, row.limit)
			}
		})
	}
}
