package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"
)

// Record-chain tests run 256-byte pages: a page of 33-byte records with no
// magic holds 7 of them (231 bytes), a blob page behind an 8-byte magic
// 236 bytes, so a few dozen records span several pages.
const (
	chainTestPage   = 256
	chainTestStride = 33
	chainTestMagic  = "TESTBLOB"
)

// chainRecs returns n distinguishable stride-sized records.
func chainRecs(first, n int) []byte {
	out := make([]byte, 0, n*chainTestStride)
	for i := first; i < first+n; i++ {
		out = append(out, bytes.Repeat([]byte{byte(i + 1)}, chainTestStride)...)
	}
	return out
}

// mustChain wraps a constructor call: mustChain(t)(InitRecordChain(...)).
func mustChain(t *testing.T) func(*RecordChain, error) *RecordChain {
	return func(c *RecordChain, err error) *RecordChain {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
}

func chainBytes(t *testing.T, c *RecordChain) []byte {
	t.Helper()
	b, err := c.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// shortReadStore hands out page images cut to n bytes.
type shortReadStore struct {
	Store
	n int
}

func (s shortReadStore) Read(id PageID) (*Page, error) {
	p, err := s.Store.Read(id)
	if err == nil {
		p.Data = p.Data[:s.n]
	}
	return p, err
}

// TestRecordChainRejectsCorruption damages one page of a three-page chain
// in every way a page can be wrong. Both a fresh attach and a read through
// the handle that wrote the chain must return an error wrapping
// ErrPageCorrupt, and neither may panic or spin.
func TestRecordChainRejectsCorruption(t *testing.T) {
	type shape struct {
		magic  string
		stride int
		fill   []byte
	}
	records := shape{"", chainTestStride, chainRecs(0, 20)}
	blob := shape{chainTestMagic, 1, make([]byte, 2*236+10)}
	cases := []struct {
		name   string
		shape  shape
		page   int  // which of the three pages to damage
		reseal bool // recompute the trailer, so the check behind it is reached
		edit   func(c *RecordChain, d []byte)
	}{
		{"records/flipped CRC byte", records, 1, false, func(_ *RecordChain, d []byte) { d[len(d)-1] ^= 0x40 }},
		{"records/flipped record byte", records, 0, false, func(c *RecordChain, d []byte) { d[c.hdr+3] ^= 1 }},
		{"records/used over capacity", records, 0, true, func(c *RecordChain, d []byte) {
			binary.LittleEndian.PutUint32(d[c.hdr-4:], uint32(c.cap+c.stride))
		}},
		{"records/used off stride", records, 2, true, func(c *RecordChain, d []byte) {
			binary.LittleEndian.PutUint32(d[c.hdr-4:], uint32(c.stride+1))
		}},
		{"records/next cycles to head", records, 2, true, func(c *RecordChain, d []byte) {
			binary.LittleEndian.PutUint32(d[c.hdr-8:], uint32(c.Head()))
		}},
		{"blob/flipped CRC byte", blob, 0, false, func(_ *RecordChain, d []byte) { d[len(d)-2] ^= 1 }},
		{"blob/bad magic on overflow page", blob, 1, true, func(_ *RecordChain, d []byte) { copy(d, "MOBIDXCA") }},
		{"blob/length over capacity", blob, 2, true, func(c *RecordChain, d []byte) {
			binary.LittleEndian.PutUint32(d[c.hdr-4:], uint32(c.cap+1))
		}},
		{"blob/next cycles to head", blob, 2, true, func(c *RecordChain, d []byte) {
			binary.LittleEndian.PutUint32(d[c.hdr-8:], uint32(c.Head()))
		}},
		{"blob/next cycles to itself", blob, 1, true, func(c *RecordChain, d []byte) {
			binary.LittleEndian.PutUint32(d[c.hdr-8:], uint32(c.pages[1]))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := NewMemStore(chainTestPage)
			c := mustChain(t)(InitRecordChain(st, tc.shape.magic, tc.shape.stride))
			if err := c.Rewrite(tc.shape.fill); err != nil {
				t.Fatal(err)
			}
			if len(c.pages) != 3 {
				t.Fatalf("chain spans %d pages, want 3", len(c.pages))
			}
			p, err := st.Read(c.pages[tc.page])
			if err != nil {
				t.Fatal(err)
			}
			tc.edit(c, p.Data)
			if tc.reseal {
				stampTrailer(p.Data)
			}
			if err := st.Write(p); err != nil {
				t.Fatal(err)
			}
			if _, err := AttachRecordChain(st, tc.shape.magic, tc.shape.stride, c.Head(), nil); !errors.Is(err, ErrPageCorrupt) {
				t.Errorf("attach: got %v, want an error wrapping ErrPageCorrupt", err)
			}
			if _, err := c.Bytes(); !errors.Is(err, ErrPageCorrupt) {
				t.Errorf("read: got %v, want an error wrapping ErrPageCorrupt", err)
			}
		})
	}

	t.Run("truncated page image", func(t *testing.T) {
		st := NewMemStore(chainTestPage)
		c := mustChain(t)(InitRecordChain(st, "", chainTestStride))
		if err := c.Append(chainRecs(0, 3)); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 3, 8, chainTestPage - 1} {
			_, err := AttachRecordChain(shortReadStore{st, n}, "", chainTestStride, c.Head(), nil)
			if !errors.Is(err, ErrPageCorrupt) {
				t.Errorf("%d-byte image: got %v, want an error wrapping ErrPageCorrupt", n, err)
			}
		}
	})
	t.Run("nil head", func(t *testing.T) {
		_, err := AttachRecordChain(NewMemStore(chainTestPage), "", chainTestStride, NilPage, nil)
		if !errors.Is(err, ErrPageCorrupt) {
			t.Errorf("got %v, want an error wrapping ErrPageCorrupt", err)
		}
	})
}

// TestRecordChainAttachWrongShape reads a well-formed chain with the wrong
// stride or the wrong magic.
func TestRecordChainAttachWrongShape(t *testing.T) {
	st := NewMemStore(chainTestPage)
	recs := mustChain(t)(InitRecordChain(st, "", chainTestStride))
	if err := recs.Append(chainRecs(0, 10)); err != nil {
		t.Fatal(err)
	}
	blob := mustChain(t)(InitRecordChain(st, chainTestMagic, 1))
	if err := blob.Rewrite(make([]byte, 300)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		magic  string
		stride int
		head   PageID
	}{
		{"records at stride 32", "", 32, recs.Head()},
		{"records behind a magic", chainTestMagic, chainTestStride, recs.Head()},
		{"blob under another magic", "OTHERMAG", 1, blob.Head()},
		{"blob without its magic", "", 1, blob.Head()},
		{"blob at stride 7", chainTestMagic, 7, blob.Head()},
	} {
		if _, err := AttachRecordChain(st, tc.magic, tc.stride, tc.head, nil); !errors.Is(err, ErrPageCorrupt) {
			t.Errorf("%s: got %v, want an error wrapping ErrPageCorrupt", tc.name, err)
		}
	}
	if _, err := FindRecordChain(st, "OTHERMAG", 1); !errors.Is(err, ErrChainNotFound) {
		t.Errorf("find under another magic: got %v, want ErrChainNotFound", err)
	}
	found := mustChain(t)(FindRecordChain(st, chainTestMagic, 1))
	if found.Head() != blob.Head() || len(chainBytes(t, found)) != 300 {
		t.Errorf("found head %d with %d bytes, want %d with 300", found.Head(), len(chainBytes(t, found)), blob.Head())
	}
}

// TestRecordChainGeometry asks for chains no page can hold. Each must be
// refused with the geometry error before anything is allocated — in
// particular a zero stride must not reach the capacity division.
func TestRecordChainGeometry(t *testing.T) {
	for _, tc := range []struct {
		name     string
		pageSize int
		magic    string
		stride   int
	}{
		{"page too small for one record", 44, "", chainTestStride},
		{"page too small behind a magic", 52, chainTestMagic, chainTestStride},
		{"page smaller than the header", 8, chainTestMagic, 1},
		{"zero stride", chainTestPage, "", 0},
		{"negative stride", chainTestPage, "", -3},
		{"seven-byte magic", chainTestPage, "SEVENBY", 1},
	} {
		st := NewMemStore(tc.pageSize)
		if _, err := InitRecordChain(st, tc.magic, tc.stride); !errors.Is(err, errChainGeometry) {
			t.Errorf("%s: init: got %v, want the geometry error", tc.name, err)
		}
		if _, err := AttachRecordChain(st, tc.magic, tc.stride, 1, nil); !errors.Is(err, errChainGeometry) {
			t.Errorf("%s: attach: got %v, want the geometry error", tc.name, err)
		}
		if _, err := FindRecordChain(st, tc.magic, tc.stride); !errors.Is(err, errChainGeometry) {
			t.Errorf("%s: find: got %v, want the geometry error", tc.name, err)
		}
		if n := st.PagesInUse(); n != 0 {
			t.Errorf("%s: %d pages allocated", tc.name, n)
		}
	}
	// 45 bytes is the least that holds one 33-byte record.
	c := mustChain(t)(InitRecordChain(NewMemStore(45), "", chainTestStride))
	if err := c.Append(chainRecs(0, 3)); err != nil {
		t.Fatal(err)
	}
	if len(c.pages) != 3 || !bytes.Equal(chainBytes(t, c), chainRecs(0, 3)) {
		t.Errorf("one-record pages: %d pages", len(c.pages))
	}
	if err := c.Append(make([]byte, chainTestStride+1)); err == nil {
		t.Error("appending a fraction of a record succeeded")
	}
}

// TestRecordChainAppendSealsFullPage fills the head page exactly — which
// allocates nothing — and then appends one more record: the successor is
// allocated, the full page is rewritten with its next link set, and a
// reattach reads both.
func TestRecordChainAppendSealsFullPage(t *testing.T) {
	st := NewMemStore(chainTestPage)
	c := mustChain(t)(InitRecordChain(st, "", chainTestStride))
	if err := c.Append(chainRecs(0, 7)); err != nil {
		t.Fatal(err)
	}
	head, err := st.Read(c.Head())
	if err != nil {
		t.Fatal(err)
	}
	if n := st.PagesInUse(); n != 1 || binary.LittleEndian.Uint32(head.Data[0:4]) != 0 ||
		binary.LittleEndian.Uint32(head.Data[4:8]) != 7*chainTestStride {
		t.Fatalf("after filling the head: %d pages, header % x", n, head.Data[:8])
	}
	before := st.Stats()
	if err := c.Append(chainRecs(7, 1)); err != nil {
		t.Fatal(err)
	}
	if d := st.Stats().Sub(before); d != (Stats{Reads: 1, Writes: 2, Allocs: 1}) {
		t.Errorf("spilling append cost %+v, want 1 read, 2 writes, 1 alloc", d)
	}
	if head, err = st.Read(c.Head()); err != nil {
		t.Fatal(err)
	}
	if len(c.pages) != 2 || PageID(binary.LittleEndian.Uint32(head.Data[0:4])) != c.pages[1] ||
		binary.LittleEndian.Uint32(head.Data[4:8]) != 7*chainTestStride {
		t.Fatalf("sealed head: pages %v, header % x", c.pages, head.Data[:8])
	}
	var perPage []int
	c2 := mustChain(t)(AttachRecordChain(st, "", chainTestStride, c.Head(), func(recs []byte) error {
		perPage = append(perPage, len(recs)/chainTestStride)
		return nil
	}))
	if !slices.Equal(c2.pages, c.pages) || !slices.Equal(perPage, []int{7, 1}) ||
		!bytes.Equal(chainBytes(t, c2), chainRecs(0, 8)) {
		t.Errorf("reattached pages %v with %v records, want %v with [7 1]", c2.pages, perPage, c.pages)
	}
	// The reattached handle appends where the first one stopped.
	if err := c2.Append(chainRecs(8, 14)); err != nil {
		t.Fatal(err)
	}
	if len(c2.pages) != 4 || !bytes.Equal(chainBytes(t, c2), chainRecs(0, 22)) {
		t.Errorf("after a three-page append: %d pages", len(c2.pages))
	}
}

// TestRecordChainRewritePolicy pins the one overflow policy: a rewrite
// keeps the head, reuses the pages it still needs in place, allocates only
// the deficit and frees only the surplus — so growing to three pages and
// shrinking back to one returns PagesInUse to where it started.
func TestRecordChainRewritePolicy(t *testing.T) {
	st := NewMemStore(chainTestPage)
	c := mustChain(t)(InitRecordChain(st, chainTestMagic, 1))
	start := st.PagesInUse()
	payload := func(n int, b byte) []byte { return bytes.Repeat([]byte{b}, n) }

	if err := c.Rewrite(payload(2*236+1, 'a')); err != nil {
		t.Fatal(err)
	}
	three := slices.Clone(c.pages)
	if len(three) != 3 || st.PagesInUse() != start+2 {
		t.Fatalf("three-page rewrite: pages %v, %d in use", three, st.PagesInUse())
	}
	before := st.Stats()
	if err := c.Rewrite(payload(3*236, 'b')); err != nil {
		t.Fatal(err)
	}
	if d := st.Stats().Sub(before); !slices.Equal(c.pages, three) || d != (Stats{Writes: 3}) {
		t.Errorf("same-size rewrite: pages %v (were %v), cost %+v, want 3 writes in place", c.pages, three, d)
	}
	if err := c.Rewrite(payload(10, 'c')); err != nil {
		t.Fatal(err)
	}
	if len(c.pages) != 1 || c.Head() != three[0] || st.PagesInUse() != start {
		t.Errorf("one-page rewrite: pages %v, %d in use, want [%d] and %d", c.pages, st.PagesInUse(), three[0], start)
	}
	for _, id := range three[1:] {
		if _, err := st.Read(id); !errors.Is(err, ErrPageNotFound) {
			t.Errorf("surplus page %d still readable: %v", id, err)
		}
	}
	c2 := mustChain(t)(FindRecordChain(st, chainTestMagic, 1))
	if !bytes.Equal(chainBytes(t, c2), payload(10, 'c')) {
		t.Error("reattached payload differs")
	}
	if err := c.Rewrite(nil); err != nil {
		t.Fatal(err)
	}
	if len(chainBytes(t, c)) != 0 || st.PagesInUse() != start {
		t.Errorf("empty rewrite left %d bytes, %d pages", len(chainBytes(t, c)), st.PagesInUse())
	}
}

// TestRecordChainAppendWriteFaults fails the k-th page write of a
// three-page append, for every k: each is an error, never a panic, and the
// append that meets no fault lands whole.
func TestRecordChainAppendWriteFaults(t *testing.T) {
	for k := int64(1); k <= 4; k++ {
		st := NewMemStore(chainTestPage)
		c := mustChain(t)(InitRecordChain(st, "", chainTestStride))
		if err := c.Append(chainRecs(0, 5)); err != nil {
			t.Fatal(err)
		}
		fs := NewFaultStore(st, FaultConfig{Write: OpFaults{FailEvery: k}, MaxFaults: 1})
		fc := mustChain(t)(AttachRecordChain(fs, "", chainTestStride, c.Head(), nil))
		err := fc.Append(chainRecs(5, 12)) // 17 records: the tail and two new pages
		switch {
		case k <= 3 && !errors.Is(err, ErrInjected):
			t.Errorf("write %d failed but Append returned %v", k, err)
		case k > 3 && err != nil:
			t.Errorf("no write failed but Append returned %v", err)
		case k > 3 && !bytes.Equal(chainBytes(t, fc), chainRecs(0, 17)):
			t.Error("clean append reads back differently")
		}
	}
}
