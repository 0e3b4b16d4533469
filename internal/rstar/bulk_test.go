package rstar

import (
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

// collectRect returns the sorted values matching a rectangle query.
func collectRect(t *testing.T, tr *Tree, q geom.Rect) []uint64 {
	t.Helper()
	var got []uint64
	if err := tr.SearchRect(q, func(it Item) bool { got = append(got, it.Val); return true }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

// STR bulk load must return exactly the incremental build's answers for
// rectangle queries and leave a structurally valid, mutable tree.
func TestBulkLoadDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 100, 5000} {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{Rect: randRect(rng, 100, 3), Val: uint64(i)}
		}
		inc, _ := newTree(t, 1024)
		for _, it := range items {
			if err := inc.Insert(it); err != nil {
				t.Fatal(err)
			}
		}
		bulk, _ := newTree(t, 1024)
		if err := bulk.BulkLoad(items); err != nil {
			t.Fatal(err)
		}
		if bulk.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, bulk.Len())
		}
		if err := bulk.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for q := 0; q < 50; q++ {
			query := randRect(rng, 100, 15)
			want := collectRect(t, inc, query)
			got := collectRect(t, bulk, query)
			if len(want) != len(got) {
				t.Fatalf("n=%d: rect query %d answers, incremental %d", n, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("n=%d: rect answers diverge at %d", n, i)
				}
			}
		}
	}
}

// A bulk-loaded tree must accept subsequent inserts and deletes.
func TestBulkLoadThenMutate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	items := make([]Item, 3000)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 100, 2), Val: uint64(i)}
	}
	tr, _ := newTree(t, 1024)
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := tr.Insert(Item{Rect: randRect(rng, 100, 2), Val: uint64(10000 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		ok, err := tr.Delete(items[i])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("bulk-loaded item %d not found for delete", i)
		}
	}
	if tr.Len() != 3000 {
		t.Fatalf("Len=%d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BulkLoad replaces previous contents and reclaims their pages.
func TestBulkLoadReplaces(t *testing.T) {
	st := pager.NewMemStore(1024)
	tr, err := New(st)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		if err := tr.Insert(Item{Rect: randRect(rng, 100, 2), Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.BulkLoad([]Item{{Rect: rect(0, 0, 1, 1), Val: 1}}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || st.PagesInUse() > 2 {
		t.Fatalf("Len=%d, %d pages in use", tr.Len(), st.PagesInUse())
	}
}

// Bulk construction must cost far fewer page writes than incremental.
func TestBulkLoadIOAdvantage(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	items := make([]Item, 20000)
	for i := range items {
		items[i] = Item{Rect: randRect(rng, 1000, 3), Val: uint64(i)}
	}
	incStore := pager.NewMemStore(4096)
	inc, _ := New(incStore)
	for _, it := range items {
		if err := inc.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	bulkStore := pager.NewMemStore(4096)
	bulk, _ := New(bulkStore)
	if err := bulk.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	incIOs := incStore.Stats().IOs()
	bulkIOs := bulkStore.Stats().IOs()
	if bulkIOs*5 > incIOs {
		t.Fatalf("bulk load cost %d I/Os, incremental %d — want >= 5x reduction", bulkIOs, incIOs)
	}
}
