package pager

import (
	"bytes"
	"errors"
	"path/filepath"
	"slices"
	"testing"
)

func testStoreBasics(t *testing.T, s Store) {
	t.Helper()
	p1, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if p1.ID == p2.ID {
		t.Fatal("duplicate page ids")
	}
	if p1.ID == NilPage || p2.ID == NilPage {
		t.Fatal("allocated the nil page id")
	}
	copy(p1.Data, []byte("hello"))
	if err := s.Write(p1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(p1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data[:5]) != "hello" {
		t.Fatalf("read back %q", got.Data[:5])
	}
	// The other page must be independent and zeroed.
	got2, err := s.Read(p2.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got2.Data {
		if b != 0 {
			t.Fatalf("fresh page dirty at byte %d", i)
		}
	}
	if s.PagesInUse() != 2 {
		t.Fatalf("PagesInUse = %d, want 2", s.PagesInUse())
	}
	if err := s.Free(p2.ID); err != nil {
		t.Fatal(err)
	}
	if s.PagesInUse() != 1 {
		t.Fatalf("PagesInUse after free = %d, want 1", s.PagesInUse())
	}
	if _, err := s.Read(p2.ID); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("read of freed page: err = %v, want ErrPageNotFound", err)
	}
	// Freed ids are recycled.
	p3, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if p3.ID != p2.ID {
		t.Fatalf("free list not recycled: got %d, want %d", p3.ID, p2.ID)
	}
}

func TestMemStore(t *testing.T) {
	testStoreBasics(t, NewMemStore(256))
}

func TestFileStore(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "pages.db"), 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	testStoreBasics(t, fs)
}

// Store.Write takes ownership of a whole page: every store refuses an
// image one byte short or long, with the same error, and keeps the page
// it had. A MemStore that padded or cut it would let an encoder that
// overran a page pass every test off real media.
func TestWriteRefusesWrongLength(t *testing.T) {
	const size = 256
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "pages.db"), size)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var msgs [2][]string
	for si, s := range []Store{NewMemStore(size), fs} {
		p, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		old := bytes.Repeat([]byte{0x5A}, size)
		if err := s.Write(&Page{ID: p.ID, Data: old}); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{size - 1, size + 1} {
			err := s.Write(&Page{ID: p.ID, Data: bytes.Repeat([]byte{0xA5}, n)})
			if err == nil {
				t.Fatalf("%T: a %d-byte write of a %d-byte page was accepted", s, n, size)
			}
			msgs[si] = append(msgs[si], err.Error())
			got, err := s.Read(p.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Data, bytes.Repeat([]byte{0x5A}, size)) {
				t.Fatalf("%T: a refused %d-byte write changed the page", s, n)
			}
		}
	}
	if !slices.Equal(msgs[0], msgs[1]) {
		t.Fatalf("MemStore refuses with %q, FileStore with %q", msgs[0], msgs[1])
	}
}

func TestMemStoreStats(t *testing.T) {
	s := NewMemStore(128)
	p, _ := s.Allocate()
	_ = s.Write(p)
	_, _ = s.Read(p.ID)
	_, _ = s.Read(p.ID)
	st := s.Stats()
	if st.Reads != 2 || st.Writes != 1 || st.Allocs != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.IOs() != 3 {
		t.Fatalf("IOs = %d, want 3", st.IOs())
	}
	before := st
	_, _ = s.Read(p.ID)
	d := s.Stats().Sub(before)
	if d.Reads != 1 || d.Writes != 0 {
		t.Fatalf("Sub = %+v", d)
	}
}

func TestMemStoreReadIsolation(t *testing.T) {
	s := NewMemStore(64)
	p, _ := s.Allocate()
	copy(p.Data, []byte("aaaa"))
	_ = s.Write(p)
	r1, _ := s.Read(p.ID)
	r1.Data[0] = 'z' // mutating a read copy must not affect the store
	r2, _ := s.Read(p.ID)
	if r2.Data[0] != 'a' {
		t.Fatal("read copies share backing memory with the store")
	}
}

func TestBufferedHitsAreFree(t *testing.T) {
	under := NewMemStore(128)
	b := NewBuffered(under, 4)
	p, _ := b.Allocate()
	copy(p.Data, []byte("x"))
	if err := b.Write(p); err != nil {
		t.Fatal(err)
	}
	base := b.Stats()
	for i := 0; i < 10; i++ {
		got, err := b.Read(p.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.Data[0] != 'x' {
			t.Fatal("buffered read returned wrong data")
		}
	}
	if d := b.Stats().Sub(base); d.Reads != 0 {
		t.Fatalf("buffer hits cost %d reads, want 0", d.Reads)
	}
	b.Clear()
	if _, err := b.Read(p.ID); err != nil {
		t.Fatal(err)
	}
	if d := b.Stats().Sub(base); d.Reads != 1 {
		t.Fatalf("after Clear, reads = %d, want 1", d.Reads)
	}
}

func TestBufferedEviction(t *testing.T) {
	under := NewMemStore(128)
	b := NewBuffered(under, 2)
	var ids []PageID
	for i := 0; i < 3; i++ {
		p, _ := b.Allocate()
		p.Data[0] = byte(i + 1)
		_ = b.Write(p)
		ids = append(ids, p.ID)
	}
	base := b.Stats()
	// Page 0 was evicted (cap 2, wrote 3): reading it must miss.
	if _, err := b.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if d := b.Stats().Sub(base); d.Reads != 1 {
		t.Fatalf("expected miss for evicted page, reads = %d", d.Reads)
	}
	// Most-recently-written page still cached.
	base = b.Stats()
	if _, err := b.Read(ids[2]); err != nil {
		t.Fatal(err)
	}
	if d := b.Stats().Sub(base); d.Reads != 0 {
		t.Fatalf("expected hit for recent page, reads = %d", d.Reads)
	}
}

// TestBufferedExactLRU fills a 256-page pool with 256 pages whose ids are
// all multiples of 16 — ids a pool split by id hash would crowd into one
// part of it — and checks the pool keeps every one, then that the 257th
// page evicts the least recently used page and no other.
func TestBufferedExactLRU(t *testing.T) {
	const capacity = 256
	under := NewMemStore(128)
	b := NewBuffered(under, capacity)
	var ids []PageID
	for len(ids) <= capacity {
		p, err := under.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if p.ID%16 == 0 {
			ids = append(ids, p.ID)
		}
	}
	pool, extra := ids[:capacity], ids[capacity]
	for _, id := range pool {
		if _, err := b.View(id); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the pool again from the middle on, so the least recently used
	// page is pool[capacity/2], neither the first installed nor the last.
	reads := func() int64 { return b.Stats().Reads }
	base := reads()
	for i := range pool {
		if _, err := b.View(pool[(i+capacity/2)%capacity]); err != nil {
			t.Fatal(err)
		}
	}
	if d := reads() - base; d != 0 {
		t.Fatalf("a full %d-page pool re-served its own pages with %d store reads, want 0", capacity, d)
	}
	if _, err := b.View(extra); err != nil {
		t.Fatal(err)
	}
	victim := pool[capacity/2]
	base = reads()
	for i := 1; i < capacity; i++ { // every pool page but the victim
		if _, err := b.Read(pool[(capacity/2+i)%capacity]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Read(extra); err != nil {
		t.Fatal(err)
	}
	if d := reads() - base; d != 0 {
		t.Fatalf("page %d evicted %d pages besides the least recently used one", extra, d)
	}
	if _, err := b.Read(victim); err != nil {
		t.Fatal(err)
	}
	if d := reads() - base; d != 1 {
		t.Fatalf("the least recently used page %d stayed in the pool (%d reads, want 1)", victim, d)
	}
}

func TestBufferedWriteThrough(t *testing.T) {
	under := NewMemStore(128)
	b := NewBuffered(under, 2)
	p, _ := b.Allocate()
	p.Data[0] = 7
	_ = b.Write(p)
	// Bypass the buffer: the underlying store must already have the data.
	got, err := under.Read(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 7 {
		t.Fatal("write did not reach underlying store")
	}
}

func TestBufferedFreeDropsCache(t *testing.T) {
	under := NewMemStore(128)
	b := NewBuffered(under, 4)
	p, _ := b.Allocate()
	_ = b.Write(p)
	if err := b.Free(p.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Read(p.ID); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("read after free: err = %v, want ErrPageNotFound", err)
	}
}

func TestZeroCapacityBuffer(t *testing.T) {
	under := NewMemStore(128)
	b := NewBuffered(under, 0)
	p, _ := b.Allocate()
	_ = b.Write(p)
	base := b.Stats()
	_, _ = b.Read(p.ID)
	_, _ = b.Read(p.ID)
	if d := b.Stats().Sub(base); d.Reads != 2 {
		t.Fatalf("zero-cap buffer should never hit; reads = %d", d.Reads)
	}
}

func TestFileStorePersistsAcrossPages(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "p.db"), 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ids []PageID
	for i := 0; i < 20; i++ {
		p, _ := fs.Allocate()
		for j := range p.Data {
			p.Data[j] = byte(i)
		}
		if err := fs.Write(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	for i, id := range ids {
		p, err := fs.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] != byte(i) || p.Data[127] != byte(i) {
			t.Fatalf("page %d corrupted", id)
		}
	}
}

// Concurrent readers and writers on distinct pages must be safe (run with
// -race); the stores guard their maps with a mutex.
func TestConcurrentAccess(t *testing.T) {
	s := NewBuffered(NewMemStore(128), 4)
	var ids []PageID
	for i := 0; i < 16; i++ {
		p, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		if err := s.Write(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		w := w
		go func() {
			for k := 0; k < 200; k++ {
				id := ids[(w*7+k)%len(ids)]
				p, err := s.Read(id)
				if err != nil {
					done <- err
					return
				}
				p.Data[1] = byte(k)
				if err := s.Write(p); err != nil {
					done <- err
					return
				}
				if k%50 == 0 {
					s.Clear()
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
