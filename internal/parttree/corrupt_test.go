package parttree

import (
	"errors"
	"math/rand"
	"testing"

	"mobidx/internal/pager"
)

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

// hostileTree bulk-loads one static block at least three levels high on an
// imageStore and returns the pages on the way down to probe, a stored
// point: path[0] is the block's root, path[1] the internal node under it,
// path[2] the probe's leaf.
func hostileTree(t testing.TB, sp space) (tr *Tree, s *imageStore, probe Point, path [3]pager.PageID) {
	t.Helper()
	s = &imageStore{MemStore: pager.NewMemStore(256)}
	tr, err := New(s, sp.d)
	if err != nil {
		t.Fatal(err)
	}
	pts := randPoints(rand.New(rand.NewSource(97)), sp.d, 1000)
	if err := tr.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	probe = pts[len(pts)/2]
	b := tr.blocks[0]
	var ids []pager.PageID
	var descend func(id pager.PageID, h int) bool
	descend = func(id pager.PageID, h int) bool {
		leaf, cells, err := tr.readNode(id, h)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		for _, q := range leaf {
			if q == probe {
				return true
			}
		}
		for _, c := range cells {
			if c.box.Contains(probe.Vec(), sp.d) && descend(c.child, h-1) {
				return true
			}
		}
		ids = ids[:len(ids)-1]
		return false
	}
	if !descend(b.root, b.height) || len(ids) < 3 {
		t.Fatalf("probe's path is %d pages deep, want >= 3", len(ids))
	}
	return tr, s, probe, [3]pager.PageID{ids[0], ids[1], ids[len(ids)-1]}
}

// throughImage plants mut's rewrite of the genuine page at the given level
// of the probe's path and runs a search around the probe, a Delete of it
// and an Insert that merges the block, each on a fresh tree. Whatever the
// image, no operation may panic or hang, a search may fail only with
// ErrPageCorrupt or ErrPageNotFound, and a mutation that fails must leave
// Len() where it was. It returns the three errors.
func throughImage(t *testing.T, sp space, level int, mut func(tr *Tree, page []byte, id pager.PageID) []byte) (errs [3]error) {
	t.Helper()
	for op := range errs {
		tr, s, probe, path := hostileTree(t, sp)
		page, err := s.MemStore.Read(path[level])
		if err != nil {
			t.Fatal(err)
		}
		s.id, s.img = path[level], mut(tr, page.Data, path[level])
		before := tr.Len()
		switch op {
		case 0:
			errs[op] = tr.SearchRegion(sp.slab(probe.Vec()[0]*float64(sp.d), 2000), func(Point) bool { return true })
			if err := errs[op]; err != nil && !errors.Is(err, pager.ErrPageCorrupt) && !errors.Is(err, pager.ErrPageNotFound) {
				t.Fatalf("level-%d image: search failed outside the taxonomy: %v", level, err)
			}
		case 1:
			_, errs[op] = tr.Delete(probe)
		case 2:
			// The block is no larger than the running total only once it
			// has shrunk to one point, so shrink its recorded size: the
			// insert then collects and rebuilds it, reading every page.
			tr.blocks[0].size = 1
			beside := probe
			beside.Val = 1 << 20
			errs[op] = tr.Insert(beside)
		}
		if errs[op] != nil && tr.Len() != before {
			t.Fatalf("level-%d image: operation %d failed (%v) but Len() moved %d -> %d", level, op, errs[op], before, tr.Len())
		}
	}
	return errs
}

// TestHostileImages feeds a search, a Delete and a merging Insert the named
// corruptions of a block's root, of an internal node and of a leaf on their
// descent: each yields an error wrapping pager.ErrPageCorrupt, never a
// panic, and Len() stays put.
func TestHostileImages(t *testing.T) {
	le16 := func(b []byte, v int) { b[0], b[1] = byte(v), byte(v>>8) }
	mutations := []struct {
		name           string
		leaf, internal bool // the levels it applies to
		mut            func(tr *Tree, b []byte, id pager.PageID) []byte
	}{
		{"count past capacity", true, true, func(_ *Tree, b []byte, _ pager.PageID) []byte { le16(b[2:], 0xffff); return b }},
		{"point count one past capacity", true, false, func(tr *Tree, b []byte, _ pager.PageID) []byte { le16(b[2:], tr.leafCap+1); return b }},
		{"cell count one past fanout", false, true, func(tr *Tree, b []byte, _ pager.PageID) []byte { le16(b[2:], tr.fanout+1); return b }},
		{"unknown type", true, true, func(_ *Tree, b []byte, _ pager.PageID) []byte { b[0] = 3; return b }},
		{"an internal node where a leaf must be", true, false, func(tr *Tree, b []byte, id pager.PageID) []byte {
			// One cell that holds everything and points back at the page.
			clear(b)
			b[0] = typeInternal
			le16(b[2:], 1)
			for k := 0; k < tr.dims; k++ {
				putf32(b[headerSize+4*k:], -1e9)
				putf32(b[headerSize+4*(tr.dims+k):], 1e9)
			}
			put32(b[headerSize+8*tr.dims:], uint32(id))
			return b
		}},
		{"every child the page itself", false, true, func(tr *Tree, b []byte, id pager.PageID) []byte {
			for i := 0; i < get16(b[2:]); i++ {
				put32(b[headerSize+i*tr.cellSize+8*tr.dims:], uint32(id))
			}
			return b
		}},
		{"truncated below its entries", true, true, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:headerSize+4] }},
		{"one byte short", true, true, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:len(b)-1] }},
		{"empty", true, true, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:0] }},
	}
	eachSpace(t, func(t *testing.T, sp space) {
		for level := 0; level < 3; level++ {
			for _, m := range mutations {
				if (level == 2 && !m.leaf) || (level < 2 && !m.internal) {
					continue
				}
				for op, err := range throughImage(t, sp, level, m.mut) {
					if !errors.Is(err, pager.ErrPageCorrupt) {
						t.Errorf("%s at level %d, operation %d: %v, want ErrPageCorrupt", m.name, level, op, err)
					}
				}
			}
		}
	})
}

// FuzzHostileImage plants arbitrary bytes as a block's root, an internal
// node or a leaf on an operation's descent. An image that happens to parse
// may send the operation anywhere — it may even succeed — but it must not
// panic or loop, and a failed mutation must not have moved Len(). Run with:
//
//	go test -fuzz=FuzzHostileImage ./internal/parttree
func FuzzHostileImage(f *testing.F) {
	for _, sp := range spaces {
		_, s, _, path := hostileTree(f, sp)
		for level, id := range path {
			page, err := s.MemStore.Read(id)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(page.Data, uint8(level))
			cp := append([]byte(nil), page.Data...)
			cp[2], cp[3] = 0xFF, 0xFF
			f.Add(cp, uint8(level))
			f.Add(page.Data[:headerSize+4], uint8(level))
		}
	}
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, level uint8) {
		for _, sp := range spaces {
			throughImage(t, sp, int(level%3), func(*Tree, []byte, pager.PageID) []byte { return data })
		}
	})
}
