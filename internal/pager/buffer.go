package pager

import "sync"

// Buffered wraps a Store with an LRU buffer pool. Reads that hit the pool
// cost nothing against the underlying store; this mirrors the paper's
// buffering scheme (§5), which keeps only the current root-to-leaf path
// (3-4 pages) and clears the pool before every query.
//
// Writes go through to the underlying store immediately (write-through) and
// refresh the cached frame, so the pool never holds stale data. A frame is
// the image the store below gave (a View miss) or was given (a Write), not
// a copy of it: the pool and a WALStore under it hold one slice per page.
//
// The pool is one exact LRU at every capacity: one latch over a map from
// page id to frame and a recency ring through the frames. A hit moves its
// frame to the front of the ring; an install past capacity drops the
// frame at the back, the least recently used page of the whole pool. The
// latch covers only the lookup and the relinking: a hit hands out the
// frame's image (Read copies it after the latch drops), and a miss fetches
// the page from the store below with the latch released. A miss first
// maps an empty, unlinked placeholder frame and fills it after the fetch
// only if the placeholder is still mapped and still empty: a Write that
// lands meanwhile fills it, a Free or Clear unmaps it, and either way the
// fetched image, possibly older, is returned without being cached.
type Buffered struct {
	under Store
	cap   int

	mu     sync.Mutex
	frames map[PageID]*bufFrame // linked frames and the placeholders of misses in flight
	linked int                  // frames in the ring; only they count against cap
	ring   bufFrame             // sentinel: ring.next is the most recently used frame, ring.prev the least
}

// bufFrame is one cached page and its place in the recency ring, or, with
// no image and no place, a miss's placeholder. Its image is never
// modified: a write installs the new slice, so a reader that took data
// under the latch keeps a consistent (if stale) page.
type bufFrame struct {
	id         PageID
	data       []byte
	prev, next *bufFrame
}

// NewBuffered wraps under with an LRU pool holding capacity pages. A
// capacity of zero disables caching entirely.
func NewBuffered(under Store, capacity int) *Buffered {
	b := &Buffered{under: under, cap: capacity, frames: make(map[PageID]*bufFrame)}
	b.ring.prev, b.ring.next = &b.ring, &b.ring
	return b
}

// unlink takes f out of the recency ring.
func (f *bufFrame) unlink() {
	f.prev.next, f.next.prev = f.next, f.prev
}

// toFront links f in as the most recently used frame.
func (b *Buffered) toFront(f *bufFrame) {
	f.prev, f.next = &b.ring, b.ring.next
	f.next.prev = f
	b.ring.next = f
}

// Clear empties the pool; the paper clears buffers before timing a query.
func (b *Buffered) Clear() {
	b.mu.Lock()
	clear(b.frames)
	b.linked = 0
	b.ring.prev, b.ring.next = &b.ring, &b.ring
	b.mu.Unlock()
}

// PageSize implements Store.
func (b *Buffered) PageSize() int { return b.under.PageSize() }

// Allocate implements Store.
func (b *Buffered) Allocate() (*Page, error) { return b.under.Allocate() }

// View implements Viewer. A hit returns the cached frame's image with no
// copy and no store I/O. A miss takes the underlying store's image of the
// page — its own slice when it is a Viewer (a WALStore's staged or
// page-table image, a MemStore's), a fresh Read otherwise; read-only and
// stable either way — and fills the miss's placeholder with that slice,
// not a copy, unless a Write, Free or Clear of the page came first.
func (b *Buffered) View(id PageID) ([]byte, error) {
	if b.cap <= 0 {
		return ViewBytes(b.under, id)
	}
	b.mu.Lock()
	f, ok := b.frames[id]
	if ok && f.data != nil {
		f.unlink()
		b.toFront(f)
		data := f.data
		b.mu.Unlock()
		return data, nil
	}
	if !ok {
		f = &bufFrame{id: id}
		b.frames[id] = f
	}
	b.mu.Unlock()
	data, err := ViewBytes(b.under, id)
	b.mu.Lock()
	if b.frames[id] == f && f.data == nil {
		if err != nil {
			delete(b.frames, id)
		} else {
			b.link(f, data)
		}
	}
	b.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Read implements Store: View, then a copy the caller owns.
func (b *Buffered) Read(id PageID) (*Page, error) {
	src, err := b.View(id)
	if err != nil {
		return nil, err
	}
	data := make([]byte, len(src))
	copy(data, src)
	return &Page{ID: id, Data: data}, nil
}

// Write implements Store (write-through). The caller's slice, which the
// store below may keep as well (WALStore, MemStore), becomes the pool
// frame once the write below succeeds.
func (b *Buffered) Write(p *Page) error {
	if err := b.under.Write(p); err != nil {
		return err
	}
	b.install(p.ID, p.Data)
	return nil
}

// install caches data — an image nobody will modify again — as the page's
// most recently used frame, filling a miss's placeholder if one is mapped.
func (b *Buffered) install(id PageID, data []byte) {
	if b.cap <= 0 {
		return
	}
	b.mu.Lock()
	f, ok := b.frames[id]
	if !ok {
		f = &bufFrame{id: id}
		b.frames[id] = f
	}
	if f.data == nil {
		b.link(f, data)
	} else {
		f.data = data
		f.unlink()
		b.toFront(f)
	}
	b.mu.Unlock()
}

// link fills the mapped, unlinked frame f with data and makes it the most
// recently used frame, dropping the least recently used one when the pool
// is over capacity. Caller holds mu.
func (b *Buffered) link(f *bufFrame, data []byte) {
	f.data = data
	b.toFront(f)
	if b.linked++; b.linked > b.cap {
		victim := b.ring.prev
		victim.unlink()
		delete(b.frames, victim.id)
		b.linked--
	}
}

// Free implements Store, dropping any cached copy or placeholder.
func (b *Buffered) Free(id PageID) error {
	b.mu.Lock()
	if f, ok := b.frames[id]; ok {
		if f.data != nil {
			f.unlink()
			b.linked--
		}
		delete(b.frames, id)
	}
	b.mu.Unlock()
	return b.under.Free(id)
}

// Stats implements Store, reporting the underlying store's traffic: a
// buffer hit is free, exactly as in the paper's accounting.
func (b *Buffered) Stats() Stats { return b.under.Stats() }

// PagesInUse implements Store.
func (b *Buffered) PagesInUse() int { return b.under.PagesInUse() }

// Begin forwards Batcher so batched indexes work through a buffer pool
// (Buffered is write-through, so the pool never hides a staged write from
// the store below).
func (b *Buffered) Begin() error {
	if t, ok := b.under.(Batcher); ok {
		return t.Begin()
	}
	return nil
}

// Commit forwards Batcher.
func (b *Buffered) Commit() error {
	if t, ok := b.under.(Batcher); ok {
		return t.Commit()
	}
	return nil
}

// Rollback forwards Batcher, dropping the pool: cached copies of the
// batch's pages are stale once the store below undoes them.
func (b *Buffered) Rollback() error {
	b.Clear()
	if t, ok := b.under.(Batcher); ok {
		return t.Rollback()
	}
	return nil
}
