package kdtree

import (
	"fmt"
	"math/rand"
	"testing"
)

// Bulk load must return exactly the incremental build's answers for region
// queries and leave a structurally valid tree.
func TestBulkLoadDifferential(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		rng := rand.New(rand.NewSource(21))
		for _, n := range []int{0, 1, 500, 8000} {
			pts := make([]Point, n)
			for i := range pts {
				pts[i] = randPoint(rng, sp.d, uint64(i))
			}
			inc, _ := newTree(t, 512, sp.d)
			for _, p := range pts {
				if err := inc.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			bulk, _ := newTree(t, 512, sp.d)
			if err := bulk.BulkLoad(pts); err != nil {
				t.Fatal(err)
			}
			if bulk.Len() != n {
				t.Fatalf("n=%d: Len=%d", n, bulk.Len())
			}
			if err := bulk.CheckInvariants(); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for q := 0; q < 40; q++ {
				reg := sp.randRegion(rng)
				sameSet(t, fmt.Sprintf("n=%d query %d", n, q), search(t, bulk, reg), search(t, inc, reg))
			}
		}
	})
}

// Duplicate-heavy input exercises the overflow-chain path of the bulk
// build; the chained tree must answer queries and verify.
func TestBulkLoadDuplicates(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		var pts []Point
		for i := 0; i < 300; i++ {
			pts = append(pts, Pt(uniform(sp.d, 7), uint64(i)))
		}
		for i := 0; i < 100; i++ {
			pts = append(pts, Pt(uniform(sp.d, float64(i)), uint64(1000+i)))
		}
		tr, _ := newTree(t, 256, sp.d)
		if err := tr.BulkLoad(pts); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The 300 duplicates plus (7, …, 7) from the diagonal.
		if got := len(search(t, tr, sp.box(uniform(sp.d, 7), uniform(sp.d, 7)))); got != 300+1 {
			t.Fatalf("duplicate point query returned %d points", got)
		}
	})
}

// A bulk-loaded tree must accept subsequent inserts and deletes.
func TestBulkLoadThenMutate(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		rng := rand.New(rand.NewSource(22))
		pts := make([]Point, 4000)
		for i := range pts {
			pts[i] = randPoint(rng, sp.d, uint64(i))
		}
		tr, _ := newTree(t, 512, sp.d)
		if err := tr.BulkLoad(pts); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if err := tr.Insert(randPoint(rng, sp.d, uint64(10000+i))); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 500; i++ {
			ok, err := tr.Delete(pts[i])
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("bulk-loaded point %d not found for delete", i)
			}
		}
		if tr.Len() != 4000 {
			t.Fatalf("Len=%d", tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// BulkLoad replaces previous contents and reclaims their pages.
func TestBulkLoadReplaces(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, st := newTree(t, 512, sp.d)
		rng := rand.New(rand.NewSource(23))
		for i := 0; i < 3000; i++ {
			if err := tr.Insert(randPoint(rng, sp.d, uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.BulkLoad([]Point{Pt(uniform(sp.d, 1), 1)}); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 1 || st.PagesInUse() > 2 {
			t.Fatalf("Len=%d, %d pages in use", tr.Len(), st.PagesInUse())
		}
	})
}

// Bulk construction must cost far fewer page writes than incremental, and
// leave every bucket with the slack bulkFill promises.
func TestBulkLoadIOAdvantage(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		rng := rand.New(rand.NewSource(24))
		pts := make([]Point, 20000)
		for i := range pts {
			pts[i] = randPoint(rng, sp.d, uint64(i))
		}
		inc, incStore := newTree(t, 4096, sp.d)
		for _, p := range pts {
			if err := inc.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		bulk, bulkStore := newTree(t, 4096, sp.d)
		if err := bulk.BulkLoad(pts); err != nil {
			t.Fatal(err)
		}
		incIOs := incStore.Stats().IOs()
		bulkIOs := bulkStore.Stats().IOs()
		if bulkIOs*5 > incIOs {
			t.Fatalf("bulk load cost %d I/Os, incremental %d — want >= 5x reduction", bulkIOs, incIOs)
		}
		// No bucket is packed past bulkFill: the next Inserts do not split
		// the tree bucket by bucket.
		if min := len(pts) / int(bulkFill*float64(bulk.BucketCap())); bulkStore.PagesInUse() < min {
			t.Fatalf("%d pages hold %d points: buckets packed past the fill factor", bulkStore.PagesInUse(), len(pts))
		}
	})
}
