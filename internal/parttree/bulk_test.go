package parttree

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The quickselect-partitioned bulk build must return exactly the
// incremental build's answers for simplex queries.
func TestBulkLoadDifferential(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		rng := rand.New(rand.NewSource(31))
		for _, n := range []int{0, 1, 300, 6000} {
			pts := randPoints(rng, sp.d, n)
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
			for q := 0; q < 40; q++ {
				reg := sp.randRegion(rng, 3)
				sameSet(t, fmt.Sprintf("n=%d query %d", n, q), search(t, bulk, reg), search(t, inc, reg))
			}
		}
	})
}

// A bulk load is one static block holding everything, replaces what was
// there, leaves the caller's slice alone, and Destroy returns every page.
func TestBulkLoadAndDestroy(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		tr, st := newTree(t, 4096, sp.d)
		rng := rand.New(rand.NewSource(137))
		for i := 0; i < 500; i++ {
			if err := tr.Insert(randPoint(rng, sp.d, uint64(900000+i))); err != nil {
				t.Fatal(err)
			}
		}
		pts := randPoints(rng, sp.d, 30000)
		orig := append([]Point(nil), pts...)
		if err := tr.BulkLoad(pts); err != nil {
			t.Fatal(err)
		}
		for i := range pts {
			if pts[i] != orig[i] {
				t.Fatalf("BulkLoad reordered its input at %d", i)
			}
		}
		if tr.Len() != 30000 || tr.Blocks() != 1 {
			t.Fatalf("Len=%d blocks=%d", tr.Len(), tr.Blocks())
		}
		sameSet(t, "full scan", search(t, tr, sp.region()), brute(pts, sp.region()))
		if err := tr.Destroy(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != 0 || st.PagesInUse() != 0 {
			t.Fatalf("Len=%d, %d pages leaked", tr.Len(), st.PagesInUse())
		}
	})
}

// nthElement must place the k-th order statistic at k with <= / >= fencing,
// matching a full sort, including on duplicate-heavy input, in whichever
// dimension it is asked for.
func TestNthElement(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(400)
		dim := trial % 4
		pts := randPoints(rng, 4, n)
		if trial%2 == 1 { // heavy duplication
			for i := range pts {
				pts[i].C[dim] = float32(rng.Intn(20))
			}
		}
		sorted := append([]Point(nil), pts...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].C[dim] < sorted[b].C[dim] })
		k := rng.Intn(n)
		nthElement(pts, k, dim)
		if pts[k].C[dim] != sorted[k].C[dim] {
			t.Fatalf("trial %d: c[%d]=%v, want order statistic %v", trial, k, pts[k].C[dim], sorted[k].C[dim])
		}
		for i := 0; i < k; i++ {
			if pts[i].C[dim] > pts[k].C[dim] {
				t.Fatalf("trial %d: c[%d] > c[k]", trial, i)
			}
		}
		for i := k + 1; i < n; i++ {
			if pts[i].C[dim] < pts[k].C[dim] {
				t.Fatalf("trial %d: c[%d] < c[k]", trial, i)
			}
		}
	}
}

// Bulk construction must cost far fewer page I/Os than the dynamized
// insert path, which rebuilds each point O(log n) times.
func TestBulkLoadIOAdvantage(t *testing.T) {
	eachSpace(t, func(t *testing.T, sp space) {
		pts := randPoints(rand.New(rand.NewSource(33)), sp.d, 20000)
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
			t.Fatalf("bulk load cost %d I/Os, dynamic inserts %d — want >= 5x reduction", bulkIOs, incIOs)
		}
	})
}
