package bptree

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/pager"
)

// model is the multiset a tree must equal: codec-rounded entries sorted by
// (Key, Val), a new exact duplicate placed after the existing ones and the
// first of them deleted — the order Insert and Delete define.
type model []Entry

// lower is the first index whose entry is >= (k, v).
func (m model) lower(k float64, v uint64) int {
	return sort.Search(len(m), func(i int) bool { return !m[i].less(k, v) })
}

// upper is the first index whose entry is > (k, v).
func (m model) upper(k float64, v uint64) int {
	return sort.Search(len(m), func(i int) bool { return m[i].Key > k || (m[i].Key == k && m[i].Val > v) })
}

func (m *model) insert(e Entry) {
	i := m.upper(e.Key, e.Val)
	*m = append(*m, Entry{})
	copy((*m)[i+1:], (*m)[i:])
	(*m)[i] = e
}

func (m *model) delete(k float64, v uint64) bool {
	i := m.lower(k, v)
	if i >= len(*m) || (*m)[i].Key != k || (*m)[i].Val != v {
		return false
	}
	*m = append((*m)[:i], (*m)[i+1:]...)
	return true
}

// between is every entry with lo <= Key <= hi, in order.
func (m model) between(lo, hi float64) []Entry {
	return m[m.lower(lo, 0):m.upper(hi, math.MaxUint64)]
}

// ceil is the smallest entry whose key is >= k.
func (m model) ceil(k float64) (Entry, bool) {
	if i := m.lower(k, 0); i < len(m) {
		return m[i], true
	}
	return Entry{}, false
}

// floor is the largest entry whose key is <= k.
func (m model) floor(k float64) (Entry, bool) {
	if i := m.upper(k, math.MaxUint64); i > 0 {
		return m[i-1], true
	}
	return Entry{}, false
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
	_, leaf, err := tr.descend(nil, tr.root, tr.height, k, v)
	if err != nil {
		t.Fatal(err)
	}
	count := leaf.n
	if ins {
		pos := tr.search(leaf, k, v, true)
		c.insRoom = c.insRoom || count < tr.leafCap-1
		c.insLastRoom = c.insLastRoom || count == tr.leafCap-1
		c.insFull = c.insFull || count == tr.leafCap
		c.insFirst = c.insFirst || (pos == 0 && count > 0)
		c.insLast = c.insLast || (pos == count && count > 0)
		if pos > 0 {
			if ek, ev := tr.kv(leaf, pos-1); ek == k && ev == v {
				c.dupComps = true
			}
		}
		return
	}
	i := tr.search(leaf, k, v, false)
	found := false
	if i < count {
		ek, ev := tr.kv(leaf, i)
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

// TestLeafEditDifferentialRawPages drives one seeded stream of inserts and
// deletes, rich in duplicate keys and exact duplicate composites, into a
// tree on a MemStore and after every operation demands the result, Len()
// and the full Range output of a sorted-slice model, and clean invariants.
// A Delete of a composite the model holds must succeed, exact duplicates
// included. The byte-level reference is TestGoldenBPTreeImages.
func TestLeafEditDifferentialRawPages(t *testing.T) {
	for _, codec := range []Codec{Wide, Compact} {
		codec := codec
		t.Run(codecName(codec), func(t *testing.T) {
			tr, err := New(pager.NewMemStore(fuzzPageSize), Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			var (
				m     model
				cases leafEditCases
				rng   = rand.New(rand.NewSource(1999))
				step  int
			)
			check := func(op string) {
				t.Helper()
				if tr.Len() != len(m) {
					t.Fatalf("step %d %s: Len %d, model %d", step, op, tr.Len(), len(m))
				}
				got := scan(t, tr)
				if !sameEntries(got, m) {
					t.Fatalf("step %d %s: %d entries, model %d", step, op, len(got), len(m))
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("step %d %s: %v", step, op, err)
				}
			}
			insert := func(e Entry) {
				step++
				cases.observe(t, tr, true, e.Key, e.Val)
				if err := tr.Insert(e); err != nil {
					t.Fatalf("step %d insert: %v", step, err)
				}
				m.insert(Entry{Key: codec.roundKey(e.Key), Val: e.Val, Aux: codec.roundKey(e.Aux)})
				check("insert")
			}
			remove := func(k float64, v uint64) {
				step++
				cases.observe(t, tr, false, k, v)
				err := tr.Delete(k, v)
				held := m.delete(codec.roundKey(k), v)
				if (held && err != nil) || (!held && !errors.Is(err, ErrNotFound)) {
					t.Fatalf("step %d delete (%v,%d): %v, model holds it: %v", step, k, v, err, held)
				}
				check("delete")
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
				e := m[rng.Intn(len(m))]
				return e.Key, e.Val
			}

			remove(1, 1) // absent, on the empty root leaf
			for len(m) < 400 {
				insert(randEntry())
			}
			if tr.Height() < 3 {
				t.Fatalf("height %d after the build, want >= 3", tr.Height())
			}
			for i := 0; i < 1500; i++ {
				switch r := rng.Intn(10); {
				case r < 4:
					insert(randEntry())
				case r < 9 && len(m) > 0:
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
			for pick := 0; len(m) > 0; pick++ {
				if pick > 10000 {
					t.Fatalf("drain stuck with %d entries left", len(m))
				}
				e := m[[]int{0, len(m) - 1, len(m) / 2}[pick%3]]
				remove(e.Key, e.Val)
			}
			if tr.Height() != 1 {
				t.Fatalf("height %d after the drain, want 1", tr.Height())
			}
			remove(1, 1)
			for len(m) < 50 {
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
	if got := scan(t, re); !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].less(got[j].Key, got[j].Val) }) || len(got) != len(es) {
		t.Fatalf("reattached tree holds %d entries, want %d in order", len(got), len(es))
	}
}
