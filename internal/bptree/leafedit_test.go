package bptree

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/pager"
)

// livePages returns the image of every allocated page of s by id.
func livePages(t *testing.T, s *pager.MemStore) map[pager.PageID][]byte {
	t.Helper()
	out := make(map[pager.PageID][]byte)
	for id := pager.PageID(0); len(out) < s.PagesInUse(); id++ {
		if id > 1<<20 {
			t.Fatalf("found %d of %d live pages below id %d", len(out), s.PagesInUse(), id)
		}
		if d, err := s.View(id); err == nil {
			out[id] = d
		}
	}
	return out
}

// diffModel is the multiset the differential trees must equal: sorted by
// (Key, Val), a new exact duplicate placed after the existing ones and the
// first of them deleted — the order Insert and Delete define.
type diffModel []Entry

func (m *diffModel) insert(e Entry) {
	i := upperBound(*m, e.Key, e.Val)
	*m = append(*m, Entry{})
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = e
}

func (m *diffModel) delete(k float64, v uint64) bool {
	i := lowerBound(*m, k, v)
	if i >= len(*m) || (*m)[i].Key != k || (*m)[i].Val != v {
		return false
	}
	*m = append((*m)[:i], (*m)[i+1:]...)
	return true
}

// leafEditCases records which boundary shapes the seeded stream reached,
// so the test proves it drove each one rather than hoping it did.
type leafEditCases struct {
	insRoom, insLastRoom, insFull         bool // leaf below leafCap-1, at leafCap-1, at leafCap
	insFirst, insLast                     bool // slot 0, slot count
	delAtMin, delAboveMin                 bool // non-root leaf at minLeaf, at minLeaf+1
	delFirst, delLast, delAbsent          bool
	rootLeafToEmpty, delOnEmpty, dupComps bool
}

func (c *leafEditCases) observe(t *testing.T, tr *Tree, ins bool, k float64, v uint64) {
	t.Helper()
	k = tr.codec.roundKey(k)
	_, d, count, err := tr.viewLeaf(k, v)
	if err != nil {
		t.Fatal(err)
	}
	if ins {
		pos := tr.imageUpperBound(d, count, k, v)
		c.insRoom = c.insRoom || count < tr.leafCap-1
		c.insLastRoom = c.insLastRoom || count == tr.leafCap-1
		c.insFull = c.insFull || count == tr.leafCap
		c.insFirst = c.insFirst || (pos == 0 && count > 0)
		c.insLast = c.insLast || (pos == count && count > 0)
		if pos > 0 {
			if ek, ev := tr.leafKV(d, pos-1); ek == k && ev == v {
				c.dupComps = true
			}
		}
		return
	}
	i := tr.imageLowerBound(d, count, k, v)
	found := false
	if i < count {
		ek, ev := tr.leafKV(d, i)
		found = ek == k && ev == v
	}
	if !found {
		c.delAbsent = true
		c.delOnEmpty = c.delOnEmpty || tr.Len() == 0
		return
	}
	c.delFirst = c.delFirst || i == 0
	c.delLast = c.delLast || i == count-1
	if tr.height > 1 {
		c.delAtMin = c.delAtMin || count == tr.minLeaf()
		c.delAboveMin = c.delAboveMin || count == tr.minLeaf()+1
	} else if count == 1 {
		c.rootLeafToEmpty = true
	}
}

// refInsert is Tree.Insert without the leaf-local path.
func refInsert(tr *Tree, e Entry) error {
	e.Key, e.Aux = tr.codec.roundKey(e.Key), tr.codec.roundKey(e.Aux)
	return pager.RunBatch(tr.store, func() error { return tr.insertRef(e) })
}

// refDelete is Tree.Delete without the leaf-local path.
func refDelete(tr *Tree, key float64, val uint64) error {
	key = tr.codec.roundKey(key)
	return pager.RunBatch(tr.store, func() error { return tr.deleteRef(key, val) })
}

// TestLeafEditDifferentialRawPages drives one seeded stream of inserts and
// deletes into two trees on two MemStores — one taking the leaf-local path
// whenever it applies, one driven through insertRef/deleteRef — and after
// every operation demands the same result, the same Meta, the same set of
// allocated pages holding the same bytes, the same Range output (checked
// against a model too) and clean invariants. Byte-identical stores are
// what makes the WAL contents, and so crash behaviour, identical.
func TestLeafEditDifferentialRawPages(t *testing.T) {
	for _, codec := range []Codec{Wide, Compact} {
		codec := codec
		name := "wide"
		if codec == Compact {
			name = "compact"
		}
		t.Run(name, func(t *testing.T) {
			fastStore, refStore := pager.NewMemStore(fuzzPageSize), pager.NewMemStore(fuzzPageSize)
			fast, err := New(fastStore, Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(refStore, Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}

			var (
				model diffModel
				// Composites that were ever held twice. When a split cuts a run
				// of exact duplicates in two, the separator equals the composite
				// and equal composites descend right, so Delete stops finding the
				// left part once the right part is gone. The reference path has
				// always done so (every user of the package puts an id it stores
				// once in Val); the leaf-local path must do the same, and
				// only for such composites may a Delete miss what the model holds.
				duped = map[[2]uint64]bool{}
				cases leafEditCases
				rng   = rand.New(rand.NewSource(1999))
				step  int
			)
			check := func(op string, errFast, errRef error) {
				t.Helper()
				if !errors.Is(errFast, errRef) || !errors.Is(errRef, errFast) {
					t.Fatalf("step %d %s: fast path returned %v, reference %v", step, op, errFast, errRef)
				}
				if fast.Meta() != ref.Meta() {
					t.Fatalf("step %d %s: meta %+v, reference %+v", step, op, fast.Meta(), ref.Meta())
				}
				got, want := livePages(t, fastStore), livePages(t, refStore)
				if len(got) != len(want) {
					t.Fatalf("step %d %s: %d live pages, reference %d", step, op, len(got), len(want))
				}
				for id, w := range want {
					g, ok := got[id]
					if !ok {
						t.Fatalf("step %d %s: page %d live only in the reference store", step, op, id)
					}
					if !bytes.Equal(g, w) {
						t.Fatalf("step %d %s: page %d differs\nfast %x\nref  %x", step, op, id, g, w)
					}
				}
				var a, b []Entry
				if err := fast.Range(math.Inf(-1), math.Inf(1), func(e Entry) bool { a = append(a, e); return true }); err != nil {
					t.Fatal(err)
				}
				if err := ref.Range(math.Inf(-1), math.Inf(1), func(e Entry) bool { b = append(b, e); return true }); err != nil {
					t.Fatal(err)
				}
				if len(a) != len(model) || len(b) != len(model) {
					t.Fatalf("step %d %s: %d entries, reference %d, model %d", step, op, len(a), len(b), len(model))
				}
				for i := range model {
					if a[i] != model[i] || b[i] != model[i] {
						t.Fatalf("step %d %s: entry %d is %+v, reference %+v, model %+v", step, op, i, a[i], b[i], model[i])
					}
				}
				if err := fast.CheckInvariants(); err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
				if err := ref.CheckInvariants(); err != nil {
					t.Fatalf("step %d %s: reference: %v", step, op, err)
				}
			}
			insert := func(e Entry) {
				step++
				cases.observe(t, fast, true, e.Key, e.Val)
				errFast, errRef := fast.Insert(e), refInsert(ref, e)
				e.Key, e.Aux = codec.roundKey(e.Key), codec.roundKey(e.Aux)
				if i := lowerBound(model, e.Key, e.Val); i < len(model) && model[i].Key == e.Key && model[i].Val == e.Val {
					duped[[2]uint64{math.Float64bits(e.Key), e.Val}] = true
				}
				model.insert(e)
				check("insert", errFast, errRef)
			}
			remove := func(k float64, v uint64) {
				step++
				cases.observe(t, fast, false, k, v)
				errFast, errRef := fast.Delete(k, v), refDelete(ref, k, v)
				k = codec.roundKey(k)
				switch i := lowerBound(model, k, v); {
				case errFast == nil:
					if !model.delete(k, v) {
						t.Fatalf("step %d: deleted (%v,%d), which the model does not hold", step, k, v)
					}
				case i < len(model) && model[i].Key == k && model[i].Val == v && !duped[[2]uint64{math.Float64bits(k), v}]:
					t.Fatalf("step %d delete (%v,%d): %v, but the model holds it", step, k, v, errFast)
				}
				check("delete", errFast, errRef)
			}
			// Keys on a coarse grid (0.7 is not a float32, so Compact rounds)
			// and vals from a small domain: long duplicate-key runs and
			// exact (key, val) duplicates. Aux follows from (key, val), so
			// exact duplicates are indistinguishable: which of a run that
			// straddles two leaves a Delete removes is the descent's choice,
			// not the model's.
			randEntry := func() Entry {
				k, v := rng.Intn(60), rng.Intn(12)
				return Entry{Key: float64(k) * 0.7, Val: uint64(v), Aux: float64(k*12+v) / 7}
			}
			randLive := func() (float64, uint64) {
				e := model[rng.Intn(len(model))]
				return e.Key, e.Val
			}

			remove(1, 1) // absent, on the empty root leaf
			for len(model) < 400 {
				insert(randEntry())
			}
			if fast.Height() < 3 {
				t.Fatalf("height %d after the build, want >= 3", fast.Height())
			}
			for i := 0; i < 1500; i++ {
				switch r := rng.Intn(10); {
				case r < 4:
					insert(randEntry())
				case r < 9 && len(model) > 0:
					remove(randLive())
				default:
					remove(float64(rng.Intn(60))*0.7+0.35, uint64(rng.Intn(12)))
				}
			}
			// The extremes of the key space: first slot of the first leaf,
			// last slot of the last.
			insert(Entry{Key: -1, Val: 0})
			insert(Entry{Key: 1e6, Val: math.MaxUint32})
			remove(-1, 0)
			remove(1e6, math.MaxUint32)
			// Drain to the empty root leaf, alternating ends and middle.
			for pick := 0; len(model) > 0; pick++ {
				if pick > 10000 {
					t.Fatalf("drain stuck with %d entries left", len(model))
				}
				e := model[[]int{0, len(model) - 1, len(model) / 2}[pick%3]]
				remove(e.Key, e.Val)
			}
			if fast.Height() != 1 {
				t.Fatalf("height %d after the drain, want 1", fast.Height())
			}
			remove(1, 1)
			for len(model) < 50 {
				insert(randEntry())
			}

			for name, hit := range map[string]bool{
				"insert with room": cases.insRoom, "insert at leafCap-1": cases.insLastRoom,
				"insert at leafCap": cases.insFull, "insert first slot": cases.insFirst,
				"insert last slot": cases.insLast, "delete at minLeaf": cases.delAtMin,
				"delete at minLeaf+1": cases.delAboveMin, "delete first slot": cases.delFirst,
				"delete last slot": cases.delLast, "delete absent": cases.delAbsent,
				"root leaf to empty": cases.rootLeafToEmpty, "delete on empty tree": cases.delOnEmpty,
				"duplicate composite": cases.dupComps,
			} {
				if !hit {
					t.Errorf("the stream never reached: %s", name)
				}
			}
		})
	}
}

// TestLeafEditWriteFault fails the leaf Write of a non-structural Insert
// and Delete: the error surfaces, Len() has not moved, and the store —
// never touched, since the edit lives in a scratch copy until Write — still
// attaches and checks clean. (That the scratch buffer is released on this
// path too is what mobidxlint's pagebufrelease pass proves.)
func TestLeafEditWriteFault(t *testing.T) {
	mem := pager.NewMemStore(fuzzPageSize)
	fs := pager.NewFaultStore(mem, pager.FaultConfig{})
	tr, err := New(fs, Config{Codec: Compact})
	if err != nil {
		t.Fatal(err)
	}
	var es []Entry
	for i := 0; i < 300; i++ {
		es = append(es, Entry{Key: float64(i), Val: uint64(i)})
	}
	if err := tr.BulkLoad(es, 0.75); err != nil {
		t.Fatal(err)
	}
	meta := tr.Meta()
	writes := fs.Counters().Writes
	fs.SetConfig(pager.FaultConfig{Write: pager.OpFaults{FailEvery: 1}})

	var injected *pager.InjectedError
	if err := tr.Insert(Entry{Key: 150.5, Val: 1}); !errors.As(err, &injected) {
		t.Fatalf("insert with a failing leaf write: %v", err)
	}
	if err := tr.Delete(150, 150); !errors.As(err, &injected) {
		t.Fatalf("delete with a failing leaf write: %v", err)
	}
	if got := fs.Counters().Writes - writes; got != 2 {
		t.Fatalf("%d writes attempted, want 2 (one leaf each)", got)
	}
	if tr.Len() != len(es) || tr.Meta() != meta {
		t.Fatalf("meta %+v after two failed mutations, want %+v", tr.Meta(), meta)
	}

	re, err := Attach(mem, Config{Codec: Compact}, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var got []Entry
	if err := re.Range(math.Inf(-1), math.Inf(1), func(e Entry) bool { got = append(got, e); return true }); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].less(got[j].Key, got[j].Val) }) || len(got) != len(es) {
		t.Fatalf("reattached tree holds %d entries, want %d in order", len(got), len(es))
	}
}
