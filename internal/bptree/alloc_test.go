package bptree

import (
	"math/rand"
	"runtime"
	"testing"

	"mobidx/internal/pager"
)

// allocTree builds a Compact tree of n entries behind a buffer pool large
// enough to hold it whole, then warms the pool, so the measured loops run
// against the steady-state serving configuration: every descent is a pool
// hit served through the zero-copy view path.
func allocTree(t testing.TB, n int) (*Tree, []Entry) {
	t.Helper()
	rng := rand.New(rand.NewSource(1999))
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: Compact.roundKey(rng.Float64() * 1000), Val: uint64(i), Aux: Compact.roundKey(rng.Float64())}
	}
	es = SortEntries(es, new(SortScratch))
	tr, err := New(pager.NewBuffered(pager.NewMemStore(4096), 4096), Config{Codec: Compact})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoadSorted(es, 0); err != nil {
		t.Fatal(err)
	}
	for _, e := range es[:64] {
		if _, _, err := tr.Get(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	return tr, es
}

// The regression gate for the tentpole claim: a steady-state point query
// performs zero heap allocations above the buffer pool.
func TestPointQueryZeroAlloc(t *testing.T) {
	tr, es := allocTree(t, 50000)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		e := es[i%len(es)]
		i++
		if _, _, err := tr.Get(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("point query allocates %.1f objects/op, want 0", allocs)
	}
}

// A range scan with a callback that captures nothing decodes its entries
// straight from the pool's page images and allocates nothing.
func TestRangeZeroAlloc(t *testing.T) {
	tr, es := allocTree(t, 50000)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		lo := es[(i*37)%len(es)].Key
		i++
		if err := tr.Range(lo, lo+0.5, func(Entry) bool { return true }); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Range allocates %.1f objects/op, want 0", allocs)
	}
}

// steadyUpdate returns a closure that deletes one entry of allocTree and
// inserts it back: leaves stand at 90 % fill and above minLeaf, so both
// halves are non-structural — one descent, one leaf image written — and
// the tree ends each call as it began.
func steadyUpdate(t testing.TB, tr *Tree, es []Entry) func() {
	i := 0
	return func() {
		e := es[(i*7919)%len(es)]
		i++
		if err := tr.Delete(e.Key, e.Val); err != nil {
			t.Fatal(err)
		}
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
}

// The gate for the write path: a steady-state non-structural Insert or
// Delete decodes nothing — it edits the leaf's image into a fresh page —
// so all it allocates is the one page it writes, which the stores below
// keep. Under allocTree that is the image put allocates, handed to the
// pool as its frame and to the MemStore under it as its page, beside two
// small objects: the pager.Page handed to Write and the frame header.
// Three per operation, one of them page-sized. Decoding a node into
// entries costs more than that, and a copy of the image anywhere below
// the tree costs a page, so the ceilings fail if either appears.
func TestUpdateZeroAllocAboveStores(t *testing.T) {
	tr, es := allocTree(t, 50000)
	update := steadyUpdate(t, tr, es)
	if allocs := testing.AllocsPerRun(200, update); allocs > 2*3 {
		t.Fatalf("delete+insert allocates %.1f objects, want <= 6 (3 per write: image, Page, frame header)", allocs)
	}
	const rounds = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		update()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / (2 * rounds)
	if budget := float64(4096 + 256); perOp > budget {
		t.Fatalf("a non-structural update allocates %.0f B, want <= %.0f (one page image and change)", perOp, budget)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdateSteady(b *testing.B) {
	tr, es := allocTree(b, 100000)
	update := steadyUpdate(b, tr, es)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update()
	}
}

func BenchmarkPointQuery(b *testing.B) {
	tr, es := allocTree(b, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := es[i%len(es)]
		if _, _, err := tr.Get(e.Key, e.Val); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEntries(n int) []Entry {
	rng := rand.New(rand.NewSource(7))
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: rng.Float64() * 1000, Val: uint64(i), Aux: rng.Float64()}
	}
	return es
}

func BenchmarkBuildIncremental(b *testing.B) {
	es := benchEntries(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := New(pager.NewBuffered(pager.NewMemStore(4096), 64), Config{Codec: Compact})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range es {
			if err := tr.Insert(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBuildBulk(b *testing.B) {
	es := benchEntries(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := New(pager.NewBuffered(pager.NewMemStore(4096), 64), Config{Codec: Compact})
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.BulkLoad(es, 0); err != nil {
			b.Fatal(err)
		}
	}
}
