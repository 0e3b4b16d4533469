package rstar

import (
	"math"
	"math/rand"
	"testing"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

func newTree(t *testing.T, pageSize int) (*Tree, *pager.MemStore) {
	t.Helper()
	st := pager.NewMemStore(pageSize)
	tr, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	return tr, st
}

func rect(x1, y1, x2, y2 float64) geom.Rect {
	return geom.Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

func randRect(rng *rand.Rand, world, maxSide float64) geom.Rect {
	x := rng.Float64() * world
	y := rng.Float64() * world
	return geom.Rect{
		MinX: x, MinY: y,
		MaxX: x + rng.Float64()*maxSide, MaxY: y + rng.Float64()*maxSide,
	}
}

func TestPaperCapacity(t *testing.T) {
	tr, _ := newTree(t, 4096)
	// 20-byte entries: the paper's B = 204.
	if tr.Capacity() != 204 {
		t.Fatalf("capacity = %d, want 204", tr.Capacity())
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr, _ := newTree(t, 512)
	for i := 0; i < 100; i++ {
		r := geom.Rect{MinX: float64(i), MinY: 0, MaxX: float64(i) + 0.5, MaxY: 1}
		if err := tr.Insert(Item{Rect: r, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	_ = tr.SearchRect(geom.Rect{MinX: 10, MinY: 0, MaxX: 12, MaxY: 2}, func(it Item) bool {
		got = append(got, it.Val)
		return true
	})
	if len(got) != 3 { // items 10, 11, 12
		t.Fatalf("got %v", got)
	}
}

func TestValOverflow(t *testing.T) {
	tr, _ := newTree(t, 512)
	err := tr.Insert(Item{Rect: rect(0, 0, 1, 1), Val: 1 << 40})
	if err == nil {
		t.Fatal("expected error for 40-bit value")
	}
}

// Differential test: random inserts/deletes/searches against brute force.
func TestRandomOpsAgainstBruteForce(t *testing.T) {
	for _, pageSize := range []int{256, 512} {
		tr, _ := newTree(t, pageSize)
		rng := rand.New(rand.NewSource(17))
		type rec struct {
			r geom.Rect
			v uint64
		}
		var ref []rec
		nextVal := uint64(0)
		for op := 0; op < 4000; op++ {
			switch {
			case len(ref) == 0 || rng.Float64() < 0.65:
				r := randRect(rng, 1000, 50)
				v := nextVal
				nextVal++
				if err := tr.Insert(Item{Rect: r, Val: v}); err != nil {
					t.Fatal(err)
				}
				// Mirror the float32 rounding the tree applies.
				ref = append(ref, rec{roundRect(r), v})
			default:
				i := rng.Intn(len(ref))
				found, err := tr.Delete(Item{Rect: ref[i].r, Val: ref[i].v})
				if err != nil {
					t.Fatalf("op %d: delete: %v", op, err)
				}
				if !found {
					t.Fatalf("op %d: delete did not find %+v", op, ref[i])
				}
				ref = append(ref[:i], ref[i+1:]...)
			}
			if op%400 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 60; trial++ {
			q := randRect(rng, 1000, 200)
			want := map[uint64]bool{}
			for _, e := range ref {
				if e.r.Intersects(q) {
					want[e.v] = true
				}
			}
			got := map[uint64]bool{}
			_ = tr.SearchRect(q, func(it Item) bool { got[it.Val] = true; return true })
			if len(got) != len(want) {
				t.Fatalf("search: got %d, want %d (page %d)", len(got), len(want), pageSize)
			}
			for v := range want {
				if !got[v] {
					t.Fatalf("search missing %d", v)
				}
			}
		}
	}
}

// A coordinate past the float32 range is stored as ±Inf. Such entries
// must still be found, and must not make a split drop the entries beside
// them.
func TestInfiniteCoordinates(t *testing.T) {
	tr, _ := newTree(t, 256)
	for i := 0; i < 300; i++ {
		x := float64(i)
		r := rect(x, 0, x+1, 1)
		if i%3 == 0 {
			r.MaxX = 1e39
		}
		if err := tr.Insert(Item{Rect: r, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := collectRect(t, tr, rect(-1, -1, math.MaxFloat64, 2))
	if len(got) != 300 {
		t.Fatalf("search found %d of 300 items", len(got))
	}
}

func TestDeleteAbsent(t *testing.T) {
	tr, _ := newTree(t, 512)
	_ = tr.Insert(Item{Rect: rect(0, 0, 1, 1), Val: 1})
	found, err := tr.Delete(Item{Rect: rect(5, 5, 6, 6), Val: 1})
	if err != nil || found {
		t.Fatalf("found=%v err=%v", found, err)
	}
	found, err = tr.Delete(Item{Rect: rect(0, 0, 1, 1), Val: 2})
	if err != nil || found {
		t.Fatalf("same rect wrong val: found=%v err=%v", found, err)
	}
	if tr.Len() != 1 {
		t.Fatal("Len changed by failed delete")
	}
}

func TestDrainToEmpty(t *testing.T) {
	tr, st := newTree(t, 256)
	rng := rand.New(rand.NewSource(31))
	type rec struct {
		r geom.Rect
		v uint64
	}
	var ref []rec
	for i := 0; i < 1500; i++ {
		r := randRect(rng, 500, 20)
		if err := tr.Insert(Item{Rect: r, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, rec{roundRect(r), uint64(i)})
	}
	for i, e := range ref {
		found, err := tr.Delete(Item{Rect: e.r, Val: e.v})
		if err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
		if !found {
			t.Fatalf("delete %d: not found", i)
		}
		if i%250 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after delete %d: %v", i, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after drain", tr.Len())
	}
	if st.PagesInUse() != 1 {
		t.Fatalf("pages after drain = %d, want 1 (root)", st.PagesInUse())
	}
}

func TestDuplicateItems(t *testing.T) {
	tr, _ := newTree(t, 256)
	r := rect(10, 10, 20, 20)
	for i := 0; i < 50; i++ {
		if err := tr.Insert(Item{Rect: r, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	_ = tr.SearchRect(r, func(Item) bool { n++; return true })
	if n != 50 {
		t.Fatalf("found %d duplicates, want 50", n)
	}
	for i := 0; i < 50; i++ {
		found, err := tr.Delete(Item{Rect: r, Val: uint64(i)})
		if err != nil || !found {
			t.Fatalf("delete dup %d: found=%v err=%v", i, found, err)
		}
	}
}

// Search must honor early termination.
func TestSearchEarlyStop(t *testing.T) {
	tr, _ := newTree(t, 256)
	for i := 0; i < 500; i++ {
		_ = tr.Insert(Item{Rect: rect(0, 0, 1, 1), Val: uint64(i)})
	}
	n := 0
	_ = tr.SearchRect(rect(0, 0, 1, 1), func(Item) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Point (degenerate) rectangles must work: the dual indexes store points.
func TestPointItems(t *testing.T) {
	tr, _ := newTree(t, 512)
	rng := rand.New(rand.NewSource(41))
	pts := make([]geom.Point, 2000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		r := geom.Rect{MinX: pts[i].X, MinY: pts[i].Y, MaxX: pts[i].X, MaxY: pts[i].Y}
		if err := tr.Insert(Item{Rect: r, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	q := geom.Rect{MinX: 25, MinY: 25, MaxX: 75, MaxY: 75}
	want := 0
	for _, p := range pts {
		rp := geom.Point{X: float64(float32(p.X)), Y: float64(float32(p.Y))}
		if q.Contains(rp) {
			want++
		}
	}
	got := 0
	_ = tr.SearchRect(q, func(Item) bool { got++; return true })
	if got != want {
		t.Fatalf("point query: got %d, want %d", got, want)
	}
}

// The R*-tree must cluster well enough that query I/O is far below a scan.
func TestQueryIOBetterThanScan(t *testing.T) {
	st := pager.NewMemStore(4096)
	tr, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	const N = 50000
	for i := 0; i < N; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		r := geom.Rect{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1}
		if err := tr.Insert(Item{Rect: r, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	totalPages := st.PagesInUse()
	before := st.Stats()
	found := 0
	_ = tr.SearchRect(geom.Rect{MinX: 100, MinY: 100, MaxX: 130, MaxY: 130}, func(Item) bool {
		found++
		return true
	})
	reads := st.Stats().Sub(before).Reads
	if reads > int64(totalPages/4) {
		t.Fatalf("query read %d of %d pages — no pruning?", reads, totalPages)
	}
	if found == 0 {
		t.Fatal("query found nothing")
	}
}

// CheckInvariants reads each page of the tree exactly once, checking a
// node against its parent's entry from the page it reads, and still finds
// a parent rect that does not cover its child.
func TestCheckInvariantsReadsEachPageOnce(t *testing.T) {
	tr, st := newTree(t, 1024)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		if err := tr.Insert(Item{Rect: randRect(rng, 1000, 5), Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("height %d: the tree needs internal levels below the root", tr.Height())
	}
	before := st.Stats().Reads
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if reads, pages := st.Stats().Reads-before, int64(st.PagesInUse()); reads != pages {
		t.Fatalf("CheckInvariants read %d pages of a %d-page tree, want each once", reads, pages)
	}

	root, err := st.Read(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // entry 0's rect shrinks to a point far outside the world
		putf32(root.Data[headerSize+4*i:], -1e6)
	}
	if err := st.Write(root); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err == nil {
		t.Fatal("CheckInvariants accepted a parent rect that does not cover its child")
	}
}
