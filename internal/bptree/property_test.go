package bptree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mobidx/internal/pager"
)

// Property: after inserting any batch of keys, a full-range scan returns
// exactly the sorted batch.
func TestQuickFullScanIsSortedBatch(t *testing.T) {
	f := func(keys []float64) bool {
		// Sanitize: drop NaN/Inf, bound magnitude.
		var ks []float64
		for _, k := range keys {
			if math.IsNaN(k) || math.IsInf(k, 0) {
				continue
			}
			ks = append(ks, math.Mod(k, 1e9))
		}
		tr, err := New(pager.NewMemStore(256), Config{Codec: Wide})
		if err != nil {
			return false
		}
		for i, k := range ks {
			if err := tr.Insert(Entry{Key: k, Val: uint64(i)}); err != nil {
				return false
			}
		}
		var got []float64
		_ = tr.Range(math.Inf(-1), math.Inf(1), func(e Entry) bool {
			got = append(got, e.Key)
			return true
		})
		want := append([]float64(nil), ks...)
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(8))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Floor(k) returns the maximum key <= k, or nothing when all
// keys exceed k.
func TestQuickFloor(t *testing.T) {
	f := func(keys []float64, probes []float64) bool {
		tr, err := New(pager.NewMemStore(256), Config{Codec: Wide})
		if err != nil {
			return false
		}
		var ks []float64
		for i, k := range keys {
			if math.IsNaN(k) || math.IsInf(k, 0) {
				continue
			}
			k = math.Mod(k, 1e6)
			ks = append(ks, k)
			if err := tr.Insert(Entry{Key: k, Val: uint64(i)}); err != nil {
				return false
			}
		}
		sort.Float64s(ks)
		for _, p := range probes {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				continue
			}
			p = math.Mod(p, 1e6)
			e, ok, err := tr.Floor(p)
			if err != nil {
				return false
			}
			i := sort.SearchFloat64s(ks, p)
			// ks[i-1] <= p < ks[i] (SearchFloat64s finds first >= p; step
			// back over equal keys is unnecessary since equality counts).
			var want float64
			haveWant := false
			if i < len(ks) && ks[i] == p {
				want, haveWant = p, true
			} else if i > 0 {
				want, haveWant = ks[i-1], true
			}
			if ok != haveWant {
				return false
			}
			if ok && e.Key != want {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFloorBasics(t *testing.T) {
	tr, _ := New(pager.NewMemStore(256), Config{Codec: Wide})
	if _, ok, _ := tr.Floor(5); ok {
		t.Fatal("Floor on empty tree returned ok")
	}
	for _, k := range []float64{10, 20, 30} {
		_ = tr.Insert(Entry{Key: k, Val: uint64(k)})
	}
	cases := []struct {
		probe float64
		want  float64
		ok    bool
	}{
		{5, 0, false},
		{10, 10, true},
		{15, 10, true},
		{30, 30, true},
		{99, 30, true},
	}
	for _, c := range cases {
		e, ok, err := tr.Floor(c.probe)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || (ok && e.Key != c.want) {
			t.Fatalf("Floor(%v) = (%v, %v), want (%v, %v)", c.probe, e.Key, ok, c.want, c.ok)
		}
	}
	// The largest entry is Floor(+Inf).
	e, ok, err := tr.Floor(math.Inf(1))
	if err != nil || !ok || e.Key != 30 {
		t.Fatalf("Floor(+Inf) = %v %v %v", e, ok, err)
	}
	// Floor across many leaves.
	big, _ := New(pager.NewMemStore(256), Config{Codec: Wide})
	for i := 0; i < 5000; i++ {
		_ = big.Insert(Entry{Key: float64(i * 2), Val: uint64(i)})
	}
	e, ok, _ = big.Floor(4001)
	if !ok || e.Key != 4000 {
		t.Fatalf("Floor(4001) = %v %v", e.Key, ok)
	}
	e, ok, _ = big.Floor(4000)
	if !ok || e.Key != 4000 {
		t.Fatalf("Floor(4000) = %v %v", e.Key, ok)
	}
}

// Property: delete of a previously inserted (key,val) always succeeds and
// removes exactly one entry.
func TestQuickInsertDelete(t *testing.T) {
	f := func(seed int64, nOps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(pager.NewMemStore(256), Config{Codec: Wide})
		if err != nil {
			return false
		}
		type kv struct {
			k float64
			v uint64
		}
		var live []kv
		for op := 0; op < int(nOps)+20; op++ {
			if len(live) == 0 || rng.Float64() < 0.55 {
				e := kv{k: math.Floor(rng.Float64() * 40), v: uint64(op)}
				if err := tr.Insert(Entry{Key: e.k, Val: e.v}); err != nil {
					return false
				}
				live = append(live, e)
			} else {
				i := rng.Intn(len(live))
				if err := tr.Delete(live[i].k, live[i].v); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if tr.Len() != len(live) {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(10))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// BulkLoad must agree with incremental insertion on content and ordering,
// and support subsequent mutation.
func TestBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{0, 1, 5, 340, 341, 10000} {
		tr, err := New(pager.NewMemStore(4096), Config{Codec: Wide})
		if err != nil {
			t.Fatal(err)
		}
		es := make([]Entry, n)
		for i := range es {
			es[i] = Entry{Key: rng.Float64() * 1000, Val: uint64(i), Aux: rng.Float64()}
		}
		if err := tr.BulkLoad(es, 0); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var got []Entry
		_ = tr.Range(math.Inf(-1), math.Inf(1), func(e Entry) bool { got = append(got, e); return true })
		if len(got) != n {
			t.Fatalf("n=%d: scan found %d", n, len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i].less(got[i-1].Key, got[i-1].Val) {
				t.Fatalf("n=%d: scan out of order at %d", n, i)
			}
		}
		// The tree remains fully mutable.
		if n > 0 {
			if err := tr.Delete(es[0].Key, es[0].Val); err != nil {
				t.Fatalf("n=%d: delete after bulk load: %v", n, err)
			}
			if err := tr.Insert(Entry{Key: -5, Val: 999999}); err != nil {
				t.Fatalf("n=%d: insert after bulk load: %v", n, err)
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("n=%d after mutation: %v", n, err)
			}
		}
	}
}

// BulkLoad replaces previous contents and reclaims their pages.
func TestBulkLoadReplaces(t *testing.T) {
	st := pager.NewMemStore(512)
	tr, _ := New(st, Config{Codec: Wide})
	for i := 0; i < 2000; i++ {
		_ = tr.Insert(Entry{Key: float64(i), Val: uint64(i)})
	}
	if err := tr.BulkLoad([]Entry{{Key: 1, Val: 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len=%d", tr.Len())
	}
	if st.PagesInUse() > 2 {
		t.Fatalf("old pages not reclaimed: %d in use", st.PagesInUse())
	}
}

func TestBulkLoadBadFill(t *testing.T) {
	tr, _ := New(pager.NewMemStore(512), Config{Codec: Wide})
	if err := tr.BulkLoad(nil, 1.5); err == nil {
		t.Fatal("fill > 1 accepted")
	}
	if err := tr.BulkLoad(nil, -0.1); err == nil {
		t.Fatal("negative fill accepted")
	}
}
