package bptree

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mobidx/internal/pager"
)

// fuzzPageSize is small so fuzz inputs stay short while still allowing
// multi-entry nodes.
const fuzzPageSize = 256

// validPages encodes genuine leaf and internal pages for both codecs to
// seed the fuzzer with structurally interesting inputs.
func validPages(t interface{ Fatal(...any) }) [][]byte {
	var out [][]byte
	for _, codec := range []Codec{Wide, Compact} {
		store := pager.NewMemStore(fuzzPageSize)
		tr, err := New(store, Config{Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if err := tr.Insert(Entry{Key: float64(i % 17), Val: uint64(i), Aux: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Walk every live page: the store is small, ids are dense.
		for id := pager.PageID(1); ; id++ {
			p, err := store.Read(id)
			if err != nil {
				break
			}
			out = append(out, p.Data)
		}
	}
	return out
}

// probeImage runs the checks every operation trusts a page through on
// data, read as a leaf and as an internal node of tr: checkImage (one page
// long, the expected node type, a count within capacity), child (no nil
// pointer followed) and Attach (the root's type against the height). Each
// either fails with an error wrapping pager.ErrPageCorrupt or admits only
// slots and children that can be read without a panic.
func probeImage(t *testing.T, tr *Tree, data []byte) {
	t.Helper()
	for _, leaf := range []bool{true, false} {
		n, err := tr.checkImage(data, tr.root, leaf)
		if err != nil {
			if !errors.Is(err, pager.ErrPageCorrupt) {
				t.Fatalf("check error outside the corruption taxonomy: %v", err)
			}
			continue
		}
		m := image{id: tr.root, d: data, n: n}
		for i := 0; i < n; i++ {
			tr.kv(m, i)
			if leaf {
				tr.entry(m, i)
			}
		}
		for ci := 0; !leaf && ci <= n; ci++ {
			if _, err := tr.child(m, ci); err != nil && !errors.Is(err, pager.ErrPageCorrupt) {
				t.Fatalf("child error outside the corruption taxonomy: %v", err)
			}
		}
	}
	s := &imageStore{MemStore: tr.store.(*pager.MemStore), id: tr.root, img: data}
	for height := 1; height <= 2; height++ {
		m := Meta{Root: tr.root, Height: height}
		if _, err := Attach(s, Config{Codec: tr.codec}, m); err != nil && !errors.Is(err, pager.ErrPageCorrupt) {
			t.Fatalf("attach at height %d: error outside the corruption taxonomy: %v", height, err)
		}
	}
}

// FuzzDecodeNode feeds arbitrary (and mutated-valid) page images to the
// checks every read of a node goes through (probeImage). The only
// acceptable outcomes are an admitted image or an ErrPageCorrupt; any
// panic is a bug. Run with:
//
//	go test -fuzz=FuzzDecodeNode ./internal/bptree
func FuzzDecodeNode(f *testing.F) {
	for _, page := range validPages(f) {
		f.Add(page)
		// Mutated variants: flipped type byte, inflated count, truncation.
		for _, mut := range []func([]byte){
			func(b []byte) { b[0] ^= 3 },
			func(b []byte) { b[2], b[3] = 0xFF, 0xFF },
			func(b []byte) { b[len(b)/2] ^= 0x80 },
		} {
			cp := append([]byte(nil), page...)
			mut(cp)
			f.Add(cp)
		}
		f.Add(page[:headerSize])
		f.Add(page[:headerSize/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, codec := range []Codec{Wide, Compact} {
			tr, err := New(pager.NewMemStore(fuzzPageSize), Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			probeImage(t, tr, data)
		}
	})
}

// TestDecodeMutatedPagesNeverPanics is the deterministic slice of the fuzz
// property that runs on every plain `go test`: random single- and
// multi-byte mutations of valid pages must pass the checks or fail them
// with ErrPageCorrupt, never panic.
func TestDecodeMutatedPagesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pages := validPages(t)
	trees := map[Codec]*Tree{}
	for _, codec := range []Codec{Wide, Compact} {
		tr, err := New(pager.NewMemStore(fuzzPageSize), Config{Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		trees[codec] = tr
	}
	for round := 0; round < 5000; round++ {
		page := pages[rng.Intn(len(pages))]
		cp := append([]byte(nil), page...)
		for k := 1 + rng.Intn(4); k > 0; k-- {
			cp[rng.Intn(len(cp))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			cp = cp[:rng.Intn(len(cp)+1)]
		}
		for _, tr := range trees {
			probeImage(t, tr, cp)
		}
	}
}

// TestTreeSurvivesCorruptRoot corrupts the root page in the store and
// checks that tree operations return errors instead of panicking.
func TestTreeSurvivesCorruptRoot(t *testing.T) {
	store := pager.NewMemStore(fuzzPageSize)
	tr, err := New(store, Config{Codec: Wide})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tr.Insert(Entry{Key: float64(i), Val: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	root, err := store.Read(tr.root)
	if err != nil {
		t.Fatal(err)
	}
	root.Data[2], root.Data[3] = 0xFF, 0xFF // absurd entry count
	if err := store.Write(root); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(Entry{Key: 1000, Val: 1000}); !errors.Is(err, pager.ErrPageCorrupt) {
		t.Fatalf("insert on corrupt root: %v", err)
	}
	if err := tr.Range(0, 100, func(Entry) bool { return true }); !errors.Is(err, pager.ErrPageCorrupt) {
		t.Fatalf("range on corrupt root: %v", err)
	}
	if err := tr.Delete(5, 5); !errors.Is(err, pager.ErrPageCorrupt) {
		t.Fatalf("delete on corrupt root: %v", err)
	}
}

// imageStore is a MemStore that serves a planted image for one page until
// that page is next written: what a store hands back when the medium under
// it rotted. The image may be any length — MemStore.Write would refuse one
// that is not a full page.
type imageStore struct {
	*pager.MemStore
	id  pager.PageID
	img []byte
}

func (s *imageStore) Read(id pager.PageID) (*pager.Page, error) {
	if id == s.id && s.img != nil {
		return &pager.Page{ID: id, Data: append([]byte(nil), s.img...)}, nil
	}
	return s.MemStore.Read(id)
}

func (s *imageStore) View(id pager.PageID) ([]byte, error) {
	if id == s.id && s.img != nil {
		return s.img, nil
	}
	return s.MemStore.View(id)
}

func (s *imageStore) Write(p *pager.Page) error {
	if p.ID == s.id {
		s.img = nil
	}
	return s.MemStore.Write(p)
}

// hostileOp is one operation driven through a planted image: the val its
// descent follows beside the probe's key, how many levels from the root
// it reads on that descent, and whether it follows the child pointers of
// the internal pages it reads.
type hostileOp struct {
	name     string
	val      func(probe Entry) uint64
	levels   int
	children bool
	run      func(tr *Tree, s *imageStore, probe Entry) error
}

var hostileOps = func() []hostileOp {
	exact := func(e Entry) uint64 { return e.Val }
	first := func(Entry) uint64 { return 0 }
	last := func(Entry) uint64 { return math.MaxUint64 }
	return []hostileOp{
		{"insert", exact, 3, true, func(tr *Tree, _ *imageStore, e Entry) error { return tr.Insert(e) }},
		{"delete", exact, 3, true, func(tr *Tree, _ *imageStore, e Entry) error { return tr.Delete(e.Key, e.Val) }},
		{"get", exact, 3, true, func(tr *Tree, _ *imageStore, e Entry) error { _, _, err := tr.Get(e.Key, e.Val); return err }},
		{"range", first, 3, true, func(tr *Tree, _ *imageStore, e Entry) error {
			return tr.Range(e.Key, e.Key, func(Entry) bool { return true })
		}},
		{"ceil", first, 3, true, func(tr *Tree, _ *imageStore, e Entry) error { _, _, err := tr.Ceil(e.Key); return err }},
		{"floor", last, 3, true, func(tr *Tree, _ *imageStore, e Entry) error { _, _, err := tr.Floor(e.Key); return err }},
		{"check", exact, 3, true, func(tr *Tree, _ *imageStore, _ Entry) error { return tr.CheckInvariants() }},
		// Destroy frees leaves without reading them.
		{"destroy", exact, 2, true, func(tr *Tree, _ *imageStore, _ Entry) error { return tr.Destroy() }},
		// Attach reads the root and nothing under it.
		{"attach", exact, 1, false, func(tr *Tree, s *imageStore, _ Entry) error {
			_, err := Attach(s, Config{Codec: tr.codec}, tr.Meta())
			return err
		}},
	}
}()

// hostileTree bulk-loads a three-level tree on an imageStore, its leaves
// three-quarters full so that a mutation of a genuine leaf is
// non-structural, and returns the ids of the pages on the root-to-leaf
// descent to (probe's key, val) (path[0] is the root, path[2] the leaf).
func hostileTree(t testing.TB, codec Codec, val func(Entry) uint64) (tr *Tree, s *imageStore, probe Entry, path [3]pager.PageID) {
	t.Helper()
	s = &imageStore{MemStore: pager.NewMemStore(fuzzPageSize)}
	tr, err := New(s, Config{Codec: codec})
	if err != nil {
		t.Fatal(err)
	}
	es := make([]Entry, 400)
	for i := range es {
		es[i] = Entry{Key: float64(i % 97), Val: uint64(i), Aux: float64(i)}
	}
	if err := tr.BulkLoad(es, 0.75); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != len(path) {
		t.Fatalf("height %d, want %d", tr.Height(), len(path))
	}
	probe = es[len(es)/2]
	path[0] = tr.root
	for h := 1; h < len(path); h++ {
		m, err := tr.view(path[h-1], false)
		if err != nil {
			t.Fatal(err)
		}
		if path[h], err = tr.child(m, tr.search(m, probe.Key, val(probe), true)); err != nil {
			t.Fatal(err)
		}
	}
	return tr, s, probe, path
}

// mutateThroughImage plants mut's rewrite of the genuine page at the given
// level of op's descent and runs op once. Whatever the image, op must not
// panic, and if it fails Len() must be where it was.
func mutateThroughImage(t *testing.T, codec Codec, level int, op hostileOp, mut func([]byte) []byte) error {
	t.Helper()
	tr, s, probe, path := hostileTree(t, codec, op.val)
	page, err := s.View(path[level])
	if err != nil {
		t.Fatal(err)
	}
	s.id, s.img = path[level], mut(append([]byte(nil), page...))
	before := tr.Len()
	if err = op.run(tr, s, probe); err != nil && tr.Len() != before {
		t.Fatalf("%s through a level-%d image: failed (%v) but Len() moved %d -> %d", op.name, level, err, before, tr.Len())
	}
	return err
}

// TestMutationSurvivesHostileImages feeds every operation the named
// corruptions of the root, of an internal page and of the leaf on its
// descent: each operation that reads the page yields an error wrapping
// pager.ErrPageCorrupt, never a panic, and Len() stays put.
func TestMutationSurvivesHostileImages(t *testing.T) {
	mutations := []struct {
		name     string
		leaf     bool // applies to the leaf level
		internal bool // applies to the internal levels
		mut      func([]byte) []byte
	}{
		{"wrong node type", true, true, func(b []byte) []byte { b[0] ^= 3; return b }},
		{"unknown node type", true, true, func(b []byte) []byte { b[0] = 9; return b }},
		{"count past capacity", true, true, func(b []byte) []byte { b[2], b[3] = 0xFF, 0xFF; return b }},
		{"truncated to half a header", true, true, func(b []byte) []byte { return b[:headerSize/2] }},
		{"truncated below its entries", true, true, func(b []byte) []byte { return b[:headerSize+4] }},
		{"empty", true, true, func(b []byte) []byte { return b[:0] }},
		{"one byte short", true, true, func(b []byte) []byte { return b[:len(b)-1] }},
		{"nil children", false, true, func(b []byte) []byte {
			for i := headerSize; i < len(b); i++ {
				b[i] = 0
			}
			return b
		}},
	}
	for _, codec := range []Codec{Wide, Compact} {
		for level := 0; level < 3; level++ {
			for _, m := range mutations {
				if (level == 2 && !m.leaf) || (level < 2 && !m.internal) {
					continue
				}
				for _, op := range hostileOps {
					err := mutateThroughImage(t, codec, level, op, m.mut)
					reads := level < op.levels && (op.children || m.name != "nil children")
					if reads && !errors.Is(err, pager.ErrPageCorrupt) {
						t.Errorf("codec %d, %s at level %d, %s: %v, want ErrPageCorrupt", codec, m.name, level, op.name, err)
					}
				}
			}
		}
	}
}

// FuzzMutateHostileImage plants arbitrary bytes as the root, an internal
// page or the leaf on an operation's descent. An image that happens to
// parse may send the operation anywhere — it may even succeed — but it
// must not panic or hang, and a failed operation must not have moved
// Len(). Run with:
//
//	go test -fuzz=FuzzMutateHostileImage ./internal/bptree
func FuzzMutateHostileImage(f *testing.F) {
	for _, page := range validPages(f) {
		for level := uint8(0); level < 3; level++ {
			f.Add(page, level)
			cp := append([]byte(nil), page...)
			cp[2], cp[3] = 0xFF, 0xFF
			f.Add(cp, level)
			f.Add(page[:headerSize+4], level)
		}
	}
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, level uint8) {
		for _, codec := range []Codec{Wide, Compact} {
			for _, op := range hostileOps {
				//mobidxlint:allow errdrop -- any outcome but a panic or a moved Len() is acceptable here; the helper checks both
				_ = mutateThroughImage(t, codec, int(level%3), op, func([]byte) []byte { return data })
			}
		}
	})
}
