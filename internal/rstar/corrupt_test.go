package rstar

import (
	"errors"
	"testing"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

const hostilePageSize = 256

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

func (s *imageStore) Write(p *pager.Page) error {
	if p.ID == s.id {
		s.img = nil
	}
	return s.MemStore.Write(p)
}

// hostileTree bulk-loads a three-level tree of grid points on an imageStore
// and returns a stored probe together with the pages on its way down:
// path[0] is the root, path[1] the internal node under it, path[2] the
// probe's leaf. The probe is one whose Delete (findLeaf) and Insert
// (ChooseSubtree) descents both take that path, so every operation of
// throughImage reads each of its pages.
func hostileTree(t testing.TB) (tr *Tree, s *imageStore, probe Item, path [3]pager.PageID) {
	t.Helper()
	s = &imageStore{MemStore: pager.NewMemStore(hostilePageSize)}
	tr, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]Item, 600)
	for i := range items {
		x, y := float64(i%30), float64(i/30)
		items[i] = Item{Rect: geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}, Val: uint64(i)}
	}
	if err := tr.BulkLoad(items); err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 3 {
		t.Fatalf("height %d, want 3", tr.Height())
	}
	for _, it := range items[len(items)/2:] {
		found, _, err := tr.findLeaf(tr.root, tr.height-1, nil, it.Rect, uint32(it.Val))
		if err != nil {
			t.Fatal(err)
		}
		chosen, err := tr.choosePath(it.Rect, 0)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := range path {
			path[i] = found[i].n.id
			same = same && chosen[i].n.id == path[i]
		}
		if same {
			return tr, s, it, path
		}
	}
	t.Fatal("no item whose Delete and Insert descents agree")
	return nil, nil, Item{}, path
}

// throughImage plants mut's rewrite of the genuine page at the given depth
// of the probe's path and runs a search around the probe, a Delete of it
// and an Insert beside it down that path, each on a fresh tree. Whatever
// the image, no operation may panic or hang, a search may fail only with
// ErrPageCorrupt or ErrPageNotFound, and a mutation that fails must leave
// Len() where it was. It returns the three errors.
func throughImage(t *testing.T, depth int, mut func(tr *Tree, page []byte, id pager.PageID) []byte) (errs [3]error) {
	t.Helper()
	for op := range errs {
		tr, s, probe, path := hostileTree(t)
		page, err := s.MemStore.Read(path[depth])
		if err != nil {
			t.Fatal(err)
		}
		s.id, s.img = path[depth], mut(tr, page.Data, path[depth])
		before := tr.Len()
		switch op {
		case 0:
			errs[op] = tr.SearchRect(probe.Rect, func(Item) bool { return true })
			if err := errs[op]; err != nil && !errors.Is(err, pager.ErrPageCorrupt) && !errors.Is(err, pager.ErrPageNotFound) {
				t.Fatalf("depth-%d image: search failed outside the taxonomy: %v", depth, err)
			}
		case 1:
			_, errs[op] = tr.Delete(probe)
		case 2:
			beside := probe
			beside.Val = 1 << 20
			errs[op] = tr.Insert(beside)
		}
		if errs[op] != nil && tr.Len() != before {
			t.Fatalf("depth-%d image: operation %d failed (%v) but Len() moved %d -> %d", depth, op, errs[op], before, tr.Len())
		}
	}
	return errs
}

// TestHostileImages feeds a search, a Delete and an Insert the named
// corruptions of the root, of the internal node under it and of the leaf
// on their descent: each yields an error wrapping pager.ErrPageCorrupt,
// never a panic, and Len() stays put.
func TestHostileImages(t *testing.T) {
	le16 := func(b []byte, v int) { b[2], b[3] = byte(v), byte(v>>8) }
	mutations := []struct {
		name     string
		internal bool // applies only to the internal nodes
		mut      func(tr *Tree, b []byte, id pager.PageID) []byte
	}{
		{"count past capacity", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { le16(b, 0xffff); return b }},
		{"count one past capacity", false, func(tr *Tree, b []byte, _ pager.PageID) []byte { le16(b, tr.maxCap+1); return b }},
		{"level raised", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { b[0]++; return b }},
		{"level lowered", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { b[0]--; return b }},
		{"truncated to one entry", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:headerSize+entrySize] }},
		{"one byte short", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:len(b)-1] }},
		{"empty", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:0] }},

		{"no entries", true, func(_ *Tree, b []byte, _ pager.PageID) []byte { le16(b, 0); return b }},
		{"every child is the node itself", true, func(_ *Tree, b []byte, id pager.PageID) []byte {
			for i := 0; i < int(b[2])|int(b[3])<<8; i++ {
				put32(b[headerSize+i*entrySize+16:], uint32(id))
			}
			return b
		}},
	}
	for depth := 0; depth < 3; depth++ {
		for _, m := range mutations {
			if m.internal && depth == 2 {
				continue
			}
			for op, err := range throughImage(t, depth, m.mut) {
				if !errors.Is(err, pager.ErrPageCorrupt) {
					t.Errorf("%s at depth %d, operation %d: %v, want ErrPageCorrupt", m.name, depth, op, err)
				}
			}
		}
	}
}

// FuzzHostileImage plants arbitrary bytes as the root, the internal node
// under it or the leaf on an operation's descent. An image that happens to
// parse may send the operation anywhere — it may even succeed — but it
// must not panic or loop, and a failed mutation must not have moved Len().
// Run with:
//
//	go test -fuzz=FuzzHostileImage ./internal/rstar
func FuzzHostileImage(f *testing.F) {
	_, s, _, path := hostileTree(f)
	for depth, id := range path {
		page, err := s.MemStore.Read(id)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(page.Data, uint8(depth))
		cp := append([]byte(nil), page.Data...)
		cp[2], cp[3] = 0xFF, 0xFF
		f.Add(cp, uint8(depth))
		f.Add(page.Data[:headerSize+entrySize], uint8(depth))
	}
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, depth uint8) {
		throughImage(t, int(depth%3), func(*Tree, []byte, pager.PageID) []byte { return data })
	})
}
