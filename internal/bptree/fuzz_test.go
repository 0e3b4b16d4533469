package bptree

import (
	"errors"
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

// FuzzDecodeNode feeds arbitrary (and mutated-valid) page images to the
// node decoder. The only acceptable outcomes are a decoded node or an
// error; any panic is a bug. Run with:
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
			store := pager.NewMemStore(fuzzPageSize)
			tr, err := New(store, Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			n, err := tr.decode(&pager.Page{ID: 1, Data: data})
			if err != nil {
				if !errors.Is(err, pager.ErrPageCorrupt) {
					t.Fatalf("decode error outside the corruption taxonomy: %v", err)
				}
				continue
			}
			// A node that decodes must be structurally sane enough for the
			// read paths that follow it.
			if !n.leaf && len(n.kids) != len(n.keys)+1 {
				t.Fatalf("decoded internal node with %d kids, %d keys", len(n.kids), len(n.keys))
			}
		}
	})
}

// TestDecodeMutatedPagesNeverPanics is the deterministic slice of the fuzz
// property that runs on every plain `go test`: random single- and
// multi-byte mutations of valid pages must decode or error, never panic.
func TestDecodeMutatedPagesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pages := validPages(t)
	store := pager.NewMemStore(fuzzPageSize)
	trees := map[Codec]*Tree{}
	for _, codec := range []Codec{Wide, Compact} {
		tr, err := New(store, Config{Codec: codec})
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
			if _, err := tr.decode(&pager.Page{ID: 1, Data: cp}); err != nil &&
				!errors.Is(err, pager.ErrPageCorrupt) {
				t.Fatalf("round %d: error outside taxonomy: %v", round, err)
			}
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
// it rotted. The image may be any length — MemStore.Write would pad a short
// one back to a full page.
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

// hostileTree bulk-loads a three-level tree on an imageStore, its leaves
// three-quarters full so that a mutation of a genuine leaf is
// non-structural, and returns the ids of the pages on the root-to-leaf
// path of probe (path[0] is the root, path[2] the leaf).
func hostileTree(t testing.TB, codec Codec) (tr *Tree, s *imageStore, probe Entry, path [3]pager.PageID) {
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
		d, err := s.View(path[h-1])
		if err != nil {
			t.Fatal(err)
		}
		count, err := tr.checkImage(d, path[h-1], false)
		if err != nil {
			t.Fatal(err)
		}
		path[h] = tr.childAt(d, tr.imageChildIndex(d, count, probe.Key, probe.Val))
	}
	return tr, s, probe, path
}

// mutateThroughImage plants mut's rewrite of the genuine page at the given
// level of the probe's path and runs one Insert or one Delete down that
// path. Whatever the image, the operation must not panic, and if it fails
// Len() must be where it was.
func mutateThroughImage(t *testing.T, codec Codec, level int, insert bool, mut func([]byte) []byte) error {
	t.Helper()
	tr, s, probe, path := hostileTree(t, codec)
	page, err := s.View(path[level])
	if err != nil {
		t.Fatal(err)
	}
	s.id, s.img = path[level], mut(append([]byte(nil), page...))
	before := tr.Len()
	if insert {
		err = tr.Insert(probe)
	} else {
		err = tr.Delete(probe.Key, probe.Val)
	}
	if err != nil && tr.Len() != before {
		t.Fatalf("level-%d image: operation failed (%v) but Len() moved %d -> %d", level, err, before, tr.Len())
	}
	return err
}

// TestMutationSurvivesHostileImages feeds Insert and Delete the named
// corruptions of the root, of an internal page and of the leaf on their
// descent: each yields an error wrapping pager.ErrPageCorrupt, never a
// panic, and Len() stays put.
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
		{"one byte short", true, false, func(b []byte) []byte { return b[:len(b)-1] }},
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
				for _, insert := range []bool{true, false} {
					err := mutateThroughImage(t, codec, level, insert, m.mut)
					if !errors.Is(err, pager.ErrPageCorrupt) {
						t.Errorf("codec %d, %s at level %d, insert=%v: %v, want ErrPageCorrupt",
							codec, m.name, level, insert, err)
					}
				}
			}
		}
	}
}

// FuzzMutateHostileImage plants arbitrary bytes as the root, an internal
// page or the leaf on a mutation's descent. An image that happens to parse
// may send the operation anywhere — it may even succeed — but it must not
// panic, and a failed operation must not have moved Len(). Run with:
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
			for _, insert := range []bool{true, false} {
				//mobidxlint:allow errdrop -- any outcome but a panic or a moved Len() is acceptable here; the helper checks both
				_ = mutateThroughImage(t, codec, int(level%3), insert, func([]byte) []byte { return data })
			}
		}
	})
}
