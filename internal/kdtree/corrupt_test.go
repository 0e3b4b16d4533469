package kdtree

import (
	"errors"
	"math/rand"
	"testing"

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

// hostileTree bulk-loads a tree whose directory is several pages deep on an
// imageStore and returns the pages on the way down to probe, a stored
// point: path[0] is the root directory page, path[1] the directory page
// under it, path[2] the probe's bucket.
func hostileTree(t testing.TB, sp space) (tr *Tree, s *imageStore, probe Point, path [3]pager.PageID) {
	t.Helper()
	s = &imageStore{MemStore: pager.NewMemStore(hostilePageSize)}
	tr, err := New(s, sp.d, world(sp.d))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(97))
	pts := make([]Point, 1000)
	for i := range pts {
		pts[i] = randPoint(rng, sp.d, uint64(i))
	}
	if err := tr.BulkLoad(pts); err != nil {
		t.Fatal(err)
	}
	probe = pts[len(pts)/2]
	steps, bucket, err := tr.descend(nil, probe)
	if err != nil {
		t.Fatal(err)
	}
	var dirs []pager.PageID
	for _, st := range steps {
		if len(dirs) == 0 || dirs[len(dirs)-1] != st.page.id {
			dirs = append(dirs, st.page.id)
		}
	}
	if len(dirs) < 2 {
		t.Fatalf("directory is %d pages deep on the probe's path, want >= 2", len(dirs))
	}
	return tr, s, probe, [3]pager.PageID{dirs[0], dirs[1], bucket}
}

// throughImage plants mut's rewrite of the genuine page at the given level
// of the probe's path and runs a search around the probe, a Delete of it
// and an Insert beside it down that path, each on a fresh tree. Whatever
// the image, no operation may panic or hang, a search may fail only with
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
			errs[op] = tr.SearchRegion(sp.box(probe.Vec(), probe.Vec()), func(Point) bool { return true })
			if err := errs[op]; err != nil && !errors.Is(err, pager.ErrPageCorrupt) && !errors.Is(err, pager.ErrPageNotFound) {
				t.Fatalf("level-%d image: search failed outside the taxonomy: %v", level, err)
			}
		case 1:
			_, errs[op] = tr.Delete(probe)
		case 2:
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

// TestHostileImages feeds a search, a Delete and an Insert the named
// corruptions of the root directory page, of an inner directory page and
// of the bucket on their descent: each yields an error wrapping
// pager.ErrPageCorrupt, never a panic, and Len() stays put.
func TestHostileImages(t *testing.T) {
	le16 := func(b []byte, v int) { b[0], b[1] = byte(v), byte(v>>8) }
	rootSlot := func(b []byte) []byte { return b[dirHeader+slotSize*get16(b[4:]):] }
	mutations := []struct {
		name   string
		bucket bool // applies to the bucket; otherwise to the directory pages
		mut    func(tr *Tree, b []byte, id pager.PageID) []byte
	}{
		{"count past capacity", true, func(_ *Tree, b []byte, _ pager.PageID) []byte { le16(b[2:], 0xffff); return b }},
		{"count one past capacity", true, func(tr *Tree, b []byte, _ pager.PageID) []byte {
			le16(b[2:], tr.bucketCap+1)
			return b
		}},
		{"a directory page's type", true, func(_ *Tree, b []byte, _ pager.PageID) []byte { b[0] = typeDir; return b }},
		{"unknown type", true, func(_ *Tree, b []byte, _ pager.PageID) []byte { b[0] = 99; return b }},
		{"chains to itself", true, func(_ *Tree, b []byte, id pager.PageID) []byte { put32(b[4:], uint32(id)); return b }},
		{"truncated below its points", true, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:bucketHeader+4] }},
		{"empty", true, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:0] }},

		{"high past capacity", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { le16(b[8:], 0xffff); return b }},
		{"root at high", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { copy(b[4:6], b[8:10]); return b }},
		{"count past high", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { le16(b[2:], get16(b[8:])+1); return b }},
		{"count below the nodes under the root", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { le16(b[2:], get16(b[2:])-1); return b }},
		{"free index past high", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { copy(b[6:8], b[8:10]); return b }},
		{"free chain without a free slot", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { le16(b[6:], 0); return b }},
		{"split dimension past d", false, func(tr *Tree, b []byte, _ pager.PageID) []byte { rootSlot(b)[0] = byte(tr.dims); return b }},
		{"in-page link past high", false, func(_ *Tree, b []byte, _ pager.PageID) []byte {
			put32(rootSlot(b)[8:], uint32(mkRef(tagNode, uint32(get16(b[8:])))))
			return b
		}},
		{"link of no known kind", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { put32(rootSlot(b)[12:], 3<<30|1); return b }},
		{"in-page link cycle", false, func(_ *Tree, b []byte, _ pager.PageID) []byte {
			put32(rootSlot(b)[8:], uint32(mkRef(tagNode, uint32(get16(b[4:])))))
			return b
		}},
		{"directory page linking to itself", false, func(_ *Tree, b []byte, id pager.PageID) []byte {
			// A well-formed page of one node, both children the page itself.
			clear(b)
			b[0] = typeDir
			le16(b[2:], 1)
			le16(b[6:], noSlot)
			le16(b[8:], 1)
			put32(b[dirHeader+8:], uint32(mkRef(tagDir, uint32(id))))
			put32(b[dirHeader+12:], uint32(mkRef(tagDir, uint32(id))))
			return b
		}},
		{"a bucket's type", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { b[0] = typeBucket; return b }},
		{"unknown type", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { b[0] = 0; return b }},
		{"truncated to half a header", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:dirHeader/2] }},
		{"one byte short", false, func(_ *Tree, b []byte, _ pager.PageID) []byte { return b[:len(b)-1] }},
	}
	eachSpace(t, func(t *testing.T, sp space) {
		for level := 0; level < 3; level++ {
			for _, m := range mutations {
				if m.bucket != (level == 2) {
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

// FuzzHostileImage plants arbitrary bytes as the root directory page, an
// inner directory page or the bucket on an operation's descent. An image
// that happens to parse may send the operation anywhere — it may even
// succeed — but it must not panic or loop, and a failed mutation must not
// have moved Len(). Run with:
//
//	go test -fuzz=FuzzHostileImage ./internal/kdtree
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
			f.Add(page.Data[:bucketHeader+4], uint8(level))
		}
	}
	f.Add([]byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, level uint8) {
		for _, sp := range spaces {
			throughImage(t, sp, int(level%3), func(*Tree, []byte, pager.PageID) []byte { return data })
		}
	})
}
