package bptree

import (
	"math"
	"math/rand"
	"testing"

	"mobidx/internal/pager"
)

// scan collects the full contents of a tree in (key, val) order.
func scan(t *testing.T, tr *Tree) []Entry {
	t.Helper()
	var out []Entry
	if err := tr.Range(math.Inf(-1), math.Inf(1), func(e Entry) bool { out = append(out, e); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BulkLoadSorted must build exactly the tree BulkLoad builds, without the
// internal sort, for both codecs.
func TestBulkLoadSortedMatchesBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, codec := range []Codec{Wide, Compact} {
		for _, n := range []int{0, 1, 339, 5000} {
			es := make([]Entry, n)
			for i := range es {
				es[i] = Entry{Key: rng.Float64() * 100, Val: uint64(rng.Intn(1 << 20)), Aux: rng.Float64()}
			}
			ref, err := New(pager.NewMemStore(4096), Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			if err := ref.BulkLoad(es, 0); err != nil {
				t.Fatal(err)
			}
			// Pre-round and pre-sort, as a dataset generator would.
			sorted := make([]Entry, n)
			for i, e := range es {
				sorted[i] = Entry{Key: codec.roundKey(e.Key), Val: e.Val, Aux: codec.roundKey(e.Aux)}
			}
			sorted = SortEntries(sorted, new(SortScratch))
			tr, err := New(pager.NewMemStore(4096), Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoadSorted(sorted, 0); err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("codec=%v n=%d: %v", codec, n, err)
			}
			if !sameEntries(scan(t, ref), scan(t, tr)) {
				t.Fatalf("codec=%v n=%d: sorted bulk load diverges from BulkLoad", codec, n)
			}
			if ref.Height() != tr.Height() {
				t.Fatalf("codec=%v n=%d: height %d vs %d", codec, n, ref.Height(), tr.Height())
			}
		}
	}
}

func TestBulkLoadSortedRejectsBadInput(t *testing.T) {
	tr, _ := New(pager.NewMemStore(4096), Config{Codec: Wide})
	if err := tr.Insert(Entry{Key: 7, Val: 7}); err != nil {
		t.Fatal(err)
	}
	unsorted := []Entry{{Key: 2, Val: 0}, {Key: 1, Val: 0}}
	if err := tr.BulkLoadSorted(unsorted, 0); err == nil {
		t.Fatal("unsorted input accepted")
	}
	// The failed call must not have touched the tree.
	if got := scan(t, tr); len(got) != 1 || got[0].Key != 7 {
		t.Fatalf("tree modified by rejected BulkLoadSorted: %v", got)
	}

	ctr, _ := New(pager.NewMemStore(4096), Config{Codec: Compact})
	offPrecision := []Entry{{Key: 1.0000000001, Val: 0}}
	if err := ctr.BulkLoadSorted(offPrecision, 0); err == nil {
		t.Fatal("key off codec precision accepted")
	}
}

// Fill-factor sweep: at 0.7, 0.9 and 1.0 fill the bulk-loaded tree stays
// balanced (its height matches the packing arithmetic), keeps every
// entry, and accepts subsequent inserts without violating invariants.
func TestBulkLoadFillFactorSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 20000
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: rng.Float64() * 1000, Val: uint64(i), Aux: rng.Float64()}
	}
	for _, codec := range []Codec{Wide, Compact} {
		for _, fill := range []float64{0.7, 0.9, 1.0} {
			tr, err := New(pager.NewMemStore(4096), Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.BulkLoad(es, fill); err != nil {
				t.Fatal(err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("codec=%v fill=%v: %v", codec, fill, err)
			}
			if tr.Len() != n {
				t.Fatalf("codec=%v fill=%v: Len=%d", codec, fill, tr.Len())
			}
			// Balance: a packed tree's height is the packing arithmetic's
			// height, within one level.
			perLeaf := int(fill * float64(tr.leafCap))
			wantLeaves := (n + perLeaf - 1) / perLeaf
			wantHeight := 1
			perInt := int(fill * float64(tr.intCap))
			for level := wantLeaves; level > 1; level = (level + perInt - 1) / perInt {
				wantHeight++
			}
			if tr.Height() != wantHeight {
				t.Fatalf("codec=%v fill=%v: height %d, packing predicts %d", codec, fill, tr.Height(), wantHeight)
			}
			// The tree stays fully mutable, even at fill 1.0 where every
			// leaf is one insert away from splitting.
			for i := 0; i < 500; i++ {
				e := Entry{Key: rng.Float64() * 1000, Val: uint64(n + i)}
				if err := tr.Insert(e); err != nil {
					t.Fatalf("codec=%v fill=%v: insert %d: %v", codec, fill, i, err)
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("codec=%v fill=%v after inserts: %v", codec, fill, err)
			}
			if tr.Len() != n+500 {
				t.Fatalf("codec=%v fill=%v: Len=%d after inserts", codec, fill, tr.Len())
			}
		}
	}
}

// Get must find every inserted entry and miss absent composites, for
// both codecs, on bulk-loaded and incrementally built trees.
func TestGetDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 3000
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{Key: rng.Float64() * 50, Val: uint64(i), Aux: rng.Float64()}
	}
	for _, codec := range []Codec{Wide, Compact} {
		inc, _ := New(pager.NewMemStore(4096), Config{Codec: codec})
		for _, e := range es {
			if err := inc.Insert(e); err != nil {
				t.Fatal(err)
			}
		}
		bulk, _ := New(pager.NewBuffered(pager.NewMemStore(4096), 64), Config{Codec: codec})
		if err := bulk.BulkLoad(es, 0); err != nil {
			t.Fatal(err)
		}
		for _, tr := range []*Tree{inc, bulk} {
			for i := 0; i < 500; i++ {
				e := es[rng.Intn(n)]
				want := Entry{Key: codec.roundKey(e.Key), Val: e.Val, Aux: codec.roundKey(e.Aux)}
				got, ok, err := tr.Get(e.Key, e.Val)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || got != want {
					t.Fatalf("codec=%v: Get(%v,%d) = %+v,%v, want %+v", codec, e.Key, e.Val, got, ok, want)
				}
				if _, ok, _ := tr.Get(e.Key, uint64(n)+uint64(i)+1); ok {
					t.Fatalf("codec=%v: Get hit an absent composite", codec)
				}
			}
		}
	}
}

// Range must return exactly the model's entries in the range.
func TestRangeAppendMatchesRange(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, codec := range []Codec{Wide, Compact} {
		tr, _ := New(pager.NewMemStore(4096), Config{Codec: codec})
		var m model
		for i := 0; i < 4000; i++ {
			e := Entry{Key: rng.Float64() * 100, Val: uint64(i), Aux: rng.Float64()}
			if err := tr.Insert(e); err != nil {
				t.Fatal(err)
			}
			m.insert(Entry{Key: codec.roundKey(e.Key), Val: e.Val, Aux: codec.roundKey(e.Aux)})
		}
		for i := 0; i < 100; i++ {
			lo := rng.Float64() * 100
			hi := lo + rng.Float64()*20
			want := m.between(codec.roundKey(lo), codec.roundKey(hi))
			var got []Entry
			if err := tr.Range(lo, hi, func(e Entry) bool { got = append(got, e); return true }); err != nil {
				t.Fatal(err)
			}
			if !sameEntries(want, got) {
				t.Fatalf("codec=%v [%v,%v]: Range %d entries, model %d", codec, lo, hi, len(got), len(want))
			}
		}
	}
}

// Ceil and Floor must agree with the model on random probes, including
// probes below the minimum, above the maximum, and after a deletion wave
// that empties leaf tails — the cases that exercise Ceil's next-leaf hop
// and Floor's step back to the left subtree.
func TestCeilPredDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, codec := range []Codec{Wide, Compact} {
		tr, _ := New(pager.NewMemStore(512), Config{Codec: codec})
		var m model
		live := make([]Entry, 0, 3000)
		for i := 0; i < 3000; i++ {
			e := Entry{Key: rng.Float64()*200 - 50, Val: uint64(i), Aux: rng.Float64()}
			if err := tr.Insert(e); err != nil {
				t.Fatal(err)
			}
			live = append(live, e)
			m.insert(Entry{Key: codec.roundKey(e.Key), Val: e.Val, Aux: codec.roundKey(e.Aux)})
		}
		check := func(stage string) {
			for i := 0; i < 400; i++ {
				key := rng.Float64()*320 - 110 // well past both ends
				wantC, wantCok := m.ceil(codec.roundKey(key))
				gotC, okC, err := tr.Ceil(key)
				if err != nil {
					t.Fatal(err)
				}
				if okC != wantCok || gotC != wantC {
					t.Fatalf("codec=%v %s: Ceil(%v) = %+v,%v; model %+v,%v",
						codec, stage, key, gotC, okC, wantC, wantCok)
				}
				wantF, wantFok := m.floor(codec.roundKey(key))
				gotF, okF, err := tr.Floor(key)
				if err != nil {
					t.Fatal(err)
				}
				if okF != wantFok || gotF != wantF {
					t.Fatalf("codec=%v %s: Floor(%v) = %+v,%v; model %+v,%v",
						codec, stage, key, gotF, okF, wantF, wantFok)
				}
			}
		}
		check("full")
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		for _, e := range live[:2400] {
			if err := tr.Delete(e.Key, e.Val); err != nil {
				t.Fatal(err)
			}
			m.delete(codec.roundKey(e.Key), e.Val)
		}
		check("after deletes")
	}
}
