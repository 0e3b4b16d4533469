package bptree

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/pager"
)

func newTree(t *testing.T, pageSize int, codec Codec) (*Tree, *pager.MemStore) {
	t.Helper()
	st := pager.NewMemStore(pageSize)
	tr, err := New(st, Config{Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	return tr, st
}

func TestCapacities(t *testing.T) {
	tr, _ := newTree(t, 4096, Compact)
	// (4096-12)/12 = 340: the paper's B=341 modulo the page header.
	if tr.LeafCap() != 340 {
		t.Fatalf("compact leaf cap = %d, want 340", tr.LeafCap())
	}
	tw, _ := newTree(t, 4096, Wide)
	if tw.LeafCap() != 170 {
		t.Fatalf("wide leaf cap = %d, want 170", tw.LeafCap())
	}
}

func TestInsertSearchSmall(t *testing.T) {
	tr, _ := newTree(t, 256, Wide)
	for i := 0; i < 100; i++ {
		if err := tr.Insert(Entry{Key: float64(i), Val: uint64(i), Aux: float64(i) / 2}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 100 {
		t.Fatalf("Len = %d", tr.Len())
	}
	var got []Entry
	if err := tr.Range(10, 19, func(e Entry) bool { got = append(got, e); return true }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("range returned %d entries, want 10", len(got))
	}
	for i, e := range got {
		if e.Key != float64(10+i) || e.Val != uint64(10+i) || e.Aux != float64(10+i)/2 {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeEarlyStop(t *testing.T) {
	tr, _ := newTree(t, 256, Wide)
	for i := 0; i < 50; i++ {
		_ = tr.Insert(Entry{Key: float64(i), Val: uint64(i)})
	}
	n := 0
	_ = tr.Range(0, 49, func(Entry) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr, _ := newTree(t, 256, Wide)
	// Many duplicates, enough to span multiple leaves.
	for i := 0; i < 200; i++ {
		if err := tr.Insert(Entry{Key: 7, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		_ = tr.Insert(Entry{Key: float64(i), Val: 1000 + uint64(i)})
	}
	seen := map[uint64]bool{}
	_ = tr.Range(7, 7, func(e Entry) bool { seen[e.Val] = true; return true })
	if len(seen) != 201 { // 200 dups + the i=7 single
		t.Fatalf("found %d entries with key 7, want 201", len(seen))
	}
	// Delete each duplicate by value, including ones deep among equals.
	for i := 0; i < 200; i++ {
		if err := tr.Delete(7, uint64(i)); err != nil {
			t.Fatalf("delete dup %d: %v", i, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("after deleting dup %d: %v", i, err)
		}
	}
	count := 0
	_ = tr.Range(7, 7, func(Entry) bool { count++; return true })
	if count != 1 {
		t.Fatalf("after deleting dups, %d entries with key 7 remain", count)
	}
}

// TestDeleteDuplicateRunAcrossSplit cuts a run of exact duplicate (key,
// val) composites with a leaf split: the separator equals the composite,
// equal composites descend right of it, and the right leaf keeps enough
// other entries not to rebalance once its copy is gone. Every copy must
// still be deletable — the left ones by backing up to the separator — and
// a further Delete must miss.
func TestDeleteDuplicateRunAcrossSplit(t *testing.T) {
	for _, codec := range []Codec{Wide, Compact} {
		tr, st := newTree(t, 256, codec)
		for i := 0; i < 3*tr.LeafCap(); i++ {
			if err := tr.Insert(Entry{Key: 100 + float64(i), Val: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		dup := Entry{Key: 50, Val: 7, Aux: 1}
		copies := 0
		cut := func() bool {
			root := goldenParse(t, st, codec, tr.Meta().Root)
			for i := range root.keys {
				if root.keys[i] == dup.Key && root.vals[i] == dup.Val {
					return true
				}
			}
			return false
		}
		for ; !cut(); copies++ {
			if copies > tr.LeafCap() {
				t.Fatalf("codec %d: %d copies never produced a separator equal to them", codec, copies)
			}
			if err := tr.Insert(dup); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < copies; i++ {
			if err := tr.Delete(dup.Key, dup.Val); err != nil {
				t.Fatalf("codec %d: delete copy %d of %d: %v", codec, i+1, copies, err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Delete(dup.Key, dup.Val); !errors.Is(err, ErrNotFound) {
			t.Fatalf("codec %d: delete past the last copy: %v, want ErrNotFound", codec, err)
		}
		if tr.Len() != 3*tr.LeafCap() {
			t.Fatalf("codec %d: Len %d, want %d", codec, tr.Len(), 3*tr.LeafCap())
		}
	}
}

func TestDeleteNotFound(t *testing.T) {
	tr, _ := newTree(t, 256, Wide)
	_ = tr.Insert(Entry{Key: 1, Val: 1})
	if err := tr.Delete(2, 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if err := tr.Delete(1, 99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("matching key wrong val: err = %v, want ErrNotFound", err)
	}
	if tr.Len() != 1 {
		t.Fatal("failed delete changed Len")
	}
}

// Randomized differential test against a sorted reference slice.
func TestRandomOpsAgainstReference(t *testing.T) {
	type kv struct {
		k float64
		v uint64
	}
	for _, pageSize := range []int{256, 512} {
		tr, st := newTree(t, pageSize, Wide)
		rng := rand.New(rand.NewSource(99))
		var ref []kv
		nextVal := uint64(0)
		for op := 0; op < 6000; op++ {
			switch {
			case len(ref) == 0 || rng.Float64() < 0.6:
				k := math.Floor(rng.Float64()*500) / 2 // coarse keys force duplicates
				v := nextVal
				nextVal++
				if err := tr.Insert(Entry{Key: k, Val: v}); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, kv{k, v})
			default:
				i := rng.Intn(len(ref))
				if err := tr.Delete(ref[i].k, ref[i].v); err != nil {
					t.Fatalf("op %d: delete (%v,%d): %v", op, ref[i].k, ref[i].v, err)
				}
				ref = append(ref[:i], ref[i+1:]...)
			}
			if op%500 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len = %d, ref = %d", tr.Len(), len(ref))
		}
		// Compare several random ranges.
		for trial := 0; trial < 50; trial++ {
			lo := rng.Float64() * 250
			hi := lo + rng.Float64()*100
			want := map[uint64]bool{}
			for _, e := range ref {
				if e.k >= lo && e.k <= hi {
					want[e.v] = true
				}
			}
			got := map[uint64]bool{}
			keysSorted := true
			prev := math.Inf(-1)
			_ = tr.Range(lo, hi, func(e Entry) bool {
				got[e.Val] = true
				if e.Key < prev {
					keysSorted = false
				}
				prev = e.Key
				return true
			})
			if !keysSorted {
				t.Fatal("range not sorted")
			}
			if len(got) != len(want) {
				t.Fatalf("range [%v,%v]: got %d, want %d", lo, hi, len(got), len(want))
			}
			for v := range want {
				if !got[v] {
					t.Fatalf("range missing val %d", v)
				}
			}
		}
		_ = st
	}
}

func TestDrainToEmpty(t *testing.T) {
	tr, st := newTree(t, 256, Wide)
	const N = 2000
	for i := 0; i < N; i++ {
		_ = tr.Insert(Entry{Key: float64(i % 37), Val: uint64(i)})
	}
	pagesFull := st.PagesInUse()
	for i := 0; i < N; i++ {
		if err := tr.Delete(float64(i%37), uint64(i)); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after drain", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All but the root page must have been reclaimed.
	if st.PagesInUse() != 1 {
		t.Fatalf("pages in use after drain = %d (was %d), want 1", st.PagesInUse(), pagesFull)
	}
	// The tree must still work.
	_ = tr.Insert(Entry{Key: 5, Val: 5})
	n := 0
	_ = tr.Range(0, 10, func(Entry) bool { n++; return true })
	if n != 1 {
		t.Fatal("tree unusable after drain")
	}
}

// The smallest entry is Ceil(-Inf).
func TestMin(t *testing.T) {
	tr, _ := newTree(t, 256, Wide)
	if _, ok, _ := tr.Ceil(math.Inf(-1)); ok {
		t.Fatal("Ceil(-Inf) on empty tree returned ok")
	}
	for _, k := range []float64{5, 3, 9, 1, 7} {
		_ = tr.Insert(Entry{Key: k, Val: uint64(k)})
	}
	e, ok, err := tr.Ceil(math.Inf(-1))
	if err != nil || !ok || e.Key != 1 {
		t.Fatalf("Ceil(-Inf) = %+v ok=%v err=%v", e, ok, err)
	}
}

func TestDestroyFreesAllPages(t *testing.T) {
	tr, st := newTree(t, 256, Wide)
	for i := 0; i < 3000; i++ {
		_ = tr.Insert(Entry{Key: rand.Float64() * 1000, Val: uint64(i)})
	}
	if st.PagesInUse() < 10 {
		t.Fatalf("expected a multi-page tree, got %d pages", st.PagesInUse())
	}
	if err := tr.Destroy(); err != nil {
		t.Fatal(err)
	}
	if st.PagesInUse() != 0 {
		t.Fatalf("pages in use after Destroy = %d", st.PagesInUse())
	}
}

func TestCompactCodecRounding(t *testing.T) {
	tr, _ := newTree(t, 4096, Compact)
	k := 1234.5678901 // not representable in float32
	if err := tr.Insert(Entry{Key: k, Val: 1}); err != nil {
		t.Fatal(err)
	}
	// Delete with the same unrounded key must still find the entry.
	if err := tr.Delete(k, 1); err != nil {
		t.Fatalf("delete with unrounded key: %v", err)
	}
	if tr.Len() != 0 {
		t.Fatal("entry not deleted")
	}
}

// Query cost must stay logarithmic: O(log_B n + output/B) page reads.
func TestRangeIOCost(t *testing.T) {
	st := pager.NewMemStore(4096)
	tr, err := New(st, Config{Codec: Compact})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const N = 200000
	for i := 0; i < N; i++ {
		_ = tr.Insert(Entry{Key: rng.Float64() * 1e6, Val: uint64(i)})
	}
	if tr.Height() > 3 {
		t.Fatalf("height %d for N=%d, B=%d", tr.Height(), N, tr.LeafCap())
	}
	before := st.Stats()
	n := 0
	_ = tr.Range(500000, 501000, func(Entry) bool { n++; return true })
	reads := st.Stats().Sub(before).Reads
	// Output is ~200 entries -> ~1-3 leaves, plus height-1 internal reads.
	if reads > int64(tr.Height()+4) {
		t.Fatalf("range cost %d reads for %d results (height %d)", reads, n, tr.Height())
	}
}

// Entries inserted in sorted order (the common pattern for b-coordinates
// drifting forward in time) must keep space linear.
func TestSortedInsertSpace(t *testing.T) {
	st := pager.NewMemStore(4096)
	tr, _ := New(st, Config{Codec: Compact})
	const N = 100000
	for i := 0; i < N; i++ {
		_ = tr.Insert(Entry{Key: float64(i), Val: uint64(i)})
	}
	// Worst case for sorted inserts is ~2x minimum pages (half-full leaves).
	minPages := N / tr.LeafCap()
	if got := st.PagesInUse(); got > 3*minPages {
		t.Fatalf("space %d pages, want <= %d", got, 3*minPages)
	}
}

// Fuzz the key distribution: adversarially clustered keys.
func TestClusteredKeys(t *testing.T) {
	tr, _ := newTree(t, 512, Wide)
	rng := rand.New(rand.NewSource(3))
	var keys []float64
	for i := 0; i < 3000; i++ {
		base := float64(rng.Intn(5)) * 1000
		k := base + rng.Float64()*0.001
		keys = append(keys, k)
		if err := tr.Insert(Entry{Key: k, Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(keys)
	count := 0
	_ = tr.Range(math.Inf(-1), math.Inf(1), func(Entry) bool { count++; return true })
	if count != len(keys) {
		t.Fatalf("full scan found %d, want %d", count, len(keys))
	}
}
