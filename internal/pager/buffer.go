package pager

import (
	"sync"
	"sync/atomic"
)

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
// The pool is sharded by page-id hash: each shard has its own latch, its
// own capacity slice, and its own LRU clock, so concurrent readers of
// different pages contend only within a shard and never on a global mutex.
// Small pools (the paper's 3-4 page root-to-leaf buffer) collapse to a
// single shard, which makes the eviction sequence exactly the classic
// global LRU — the paper's I/O counts are reproduced bit-for-bit.
//
// Read hits are latch-light: a hit takes only the shard's read-latch
// (shared, so hits on the same shard proceed in parallel), bumps the
// frame's LRU position with a single atomic store, and copies the page
// image outside the latch — frames are immutable once installed, so no
// exclusive latch is ever taken on the read path.
type Buffered struct {
	under  Store
	shards []bufShard
	mask   uint32
	cap    int
}

// bufShard is one independently latched slice of the pool.
type bufShard struct {
	mu     sync.RWMutex
	cap    int
	clock  atomic.Int64
	frames map[PageID]*bufFrame
}

// bufFrame is one cached page. data is immutable after installation — a
// write installs a fresh frame rather than mutating in place, so a reader
// that grabbed the frame under the read-latch can safely copy the bytes
// after releasing it. tick is the frame's LRU position (larger = more
// recently used), updated atomically on every hit.
type bufFrame struct {
	data []byte
	tick atomic.Int64
}

// bufferShardCount picks the shard count for a pool of the given
// capacity: one shard per 16 pages of capacity, capped at 16 shards, and
// always a power of two so page ids map with a mask. Pools of fewer than
// 32 pages use a single shard and behave exactly like an unsharded LRU.
func bufferShardCount(capacity int) int {
	n := 1
	for n < 16 && n*32 <= capacity {
		n <<= 1
	}
	return n
}

// NewBuffered wraps under with an LRU pool holding capacity pages in
// total. A capacity of zero disables caching entirely.
func NewBuffered(under Store, capacity int) *Buffered {
	n := bufferShardCount(capacity)
	b := &Buffered{
		under:  under,
		shards: make([]bufShard, n),
		mask:   uint32(n - 1),
		cap:    capacity,
	}
	base, rem := capacity/n, capacity%n
	for i := range b.shards {
		c := base
		if i < rem {
			c++
		}
		b.shards[i].cap = c
		b.shards[i].frames = make(map[PageID]*bufFrame)
	}
	return b
}

// shard maps a page id to its shard. The multiplicative hash spreads
// sequentially allocated ids across shards.
func (b *Buffered) shard(id PageID) *bufShard {
	return &b.shards[(uint32(id)*2654435761)&b.mask]
}

// Clear empties the pool; the paper clears buffers before timing a query.
func (b *Buffered) Clear() {
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.Lock()
		sh.frames = make(map[PageID]*bufFrame)
		sh.mu.Unlock()
	}
}

// PageSize implements Store.
func (b *Buffered) PageSize() int { return b.under.PageSize() }

// Allocate implements Store.
func (b *Buffered) Allocate() (*Page, error) { return b.under.Allocate() }

// Read implements Store, serving from the pool when possible. Hit or
// miss, the caller gets the one copy it owns.
func (b *Buffered) Read(id PageID) (*Page, error) {
	sh := b.shard(id)
	sh.mu.RLock()
	if f, ok := sh.frames[id]; ok {
		// LRU touch is one atomic store; the image is copied after the
		// latch drops (frames are immutable, see bufFrame).
		f.tick.Store(sh.clock.Add(1))
		src := f.data
		sh.mu.RUnlock()
		data := make([]byte, len(src))
		copy(data, src)
		return &Page{ID: id, Data: data}, nil
	}
	sh.mu.RUnlock()
	src, err := b.fill(id)
	if err != nil {
		return nil, err
	}
	data := make([]byte, len(src))
	copy(data, src)
	return &Page{ID: id, Data: data}, nil
}

// fill serves a pool miss: it takes the underlying store's image of the
// page — its own slice when it is a Viewer (a WALStore's staged or
// page-table image, a MemStore's), a fresh Read otherwise; read-only and
// stable either way — and installs that slice, not a copy, as the frame.
func (b *Buffered) fill(id PageID) ([]byte, error) {
	data, err := ViewBytes(b.under, id)
	if err != nil {
		return nil, err
	}
	b.install(id, data)
	return data, nil
}

// Write implements Store (write-through). The caller's slice, which the
// store below may keep as well (WALStore, MemStore), becomes the pool
// frame once the write below succeeds.
func (b *Buffered) Write(p *Page) error {
	if b.cap <= 0 {
		return b.under.Write(p)
	}
	if err := b.under.Write(p); err != nil {
		return err
	}
	b.install(p.ID, p.Data)
	return nil
}

// install caches data — an image nobody will modify again — as the page's
// frame, evicting the shard's least-recently-used frames when over
// capacity.
func (b *Buffered) install(id PageID, data []byte) {
	if b.cap <= 0 {
		return
	}
	sh := b.shard(id)
	f := &bufFrame{data: data}
	sh.mu.Lock()
	f.tick.Store(sh.clock.Add(1))
	sh.frames[id] = f
	for len(sh.frames) > sh.cap {
		var victim PageID
		min := int64(1<<63 - 1)
		for vid, vf := range sh.frames {
			if t := vf.tick.Load(); t < min {
				min, victim = t, vid
			}
		}
		delete(sh.frames, victim)
	}
	sh.mu.Unlock()
}

// Free implements Store, dropping any cached copy.
func (b *Buffered) Free(id PageID) error {
	sh := b.shard(id)
	sh.mu.Lock()
	delete(sh.frames, id)
	sh.mu.Unlock()
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
