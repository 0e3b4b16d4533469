// Package pager implements the external memory model of Aggarwal and
// Vitter used throughout the paper: storage is a sequence of fixed-size
// pages, each disk access transfers one page, and the cost of an algorithm
// is the number of page I/Os it performs.
//
// Every index in this repository stores its nodes in pages obtained from a
// Store and is measured exclusively through the Store's I/O statistics. A
// small buffer pool mirrors the paper's buffering scheme (§5): "for each
// tree we buffer the path from the root to a leaf node", i.e. only a
// handful of pages, and the pool is cleared before each query.
//
// Above the Store interface the package also owns the one page-chained
// record log (RecordChain), which the serving layer's durable bookkeeping
// — a shard's motion catalog and superblock, the cluster manifest — is
// stored in, beside the index pages and inside the same WAL batches.
package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used in the paper's experiments (§5).
const DefaultPageSize = 4096

// PageID identifies a page within a Store. Zero is never a valid page, so
// it can be used as a nil pointer in on-page structures.
type PageID uint32

// NilPage is the invalid page id used to represent absent children.
const NilPage PageID = 0

// Page is one fixed-size block of storage.
type Page struct {
	ID PageID
	// Frozen is set by the caller of Store.Write to promise that nobody
	// will ever modify Data again: the store may then keep the slice as
	// its image of the page instead of copying it, and must itself never
	// write through it. The mark travels with the *Page, so a wrapper that
	// builds a page of its own (a checksum trailer, a torn prefix) drops
	// it and the store below copies as for any other caller. (Declared
	// here it sits in ID's padding: a Page is still 32 bytes.)
	Frozen bool
	Data   []byte
}

// stableImage returns an image of p the store may keep: p.Data itself
// when the caller froze it at the store's page size, else a private copy
// (padded or cut to the page size, as Write always did).
func stableImage(p *Page, pageSize int) []byte {
	if p.Frozen && len(p.Data) == pageSize {
		return p.Data
	}
	img := make([]byte, pageSize)
	copy(img, p.Data)
	return img
}

// Stats counts the I/O traffic of a Store.
type Stats struct {
	Reads  int64 // page reads that reached the store (buffer misses)
	Writes int64 // page writes that reached the store
	Allocs int64 // pages allocated over the store's lifetime
	Frees  int64 // pages returned to the free list
}

// IOs returns the total I/O count, the metric reported in the paper's
// figures.
func (s Stats) IOs() int64 { return s.Reads + s.Writes }

// Sub returns the difference s - t, for measuring an interval of work.
func (s Stats) Sub(t Stats) Stats {
	return Stats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes,
		Allocs: s.Allocs - t.Allocs, Frees: s.Frees - t.Frees}
}

// counters is the internal, atomically updated form of Stats. Stores bump
// the counters with atomic adds so Stats() never needs a store's lock —
// concurrent readers measuring I/O intervals don't contend with (or race
// against) the operations they are measuring.
type counters struct {
	reads, writes, allocs, frees atomic.Int64
}

// snapshot returns the current values as a Stats. Each counter is read
// atomically; the four reads together are not one atomic snapshot, which
// is fine for a monotone set of counters (any interleaving yields values
// that occurred, each at most the true current count).
func (c *counters) snapshot() Stats {
	return Stats{
		Reads:  c.reads.Load(),
		Writes: c.writes.Load(),
		Allocs: c.allocs.Load(),
		Frees:  c.frees.Load(),
	}
}

// Store is the storage abstraction: allocate, read, write and free pages,
// and report statistics.
type Store interface {
	// PageSize returns the fixed size in bytes of every page.
	PageSize() int
	// Allocate returns a new zeroed page.
	Allocate() (*Page, error)
	// Read fetches the page with the given id.
	Read(id PageID) (*Page, error)
	// Write persists the page. Implementations copy p.Data before
	// returning — a store never retains the caller's slice, so callers
	// may recycle their encode buffers (see PageBuf) — unless the caller
	// set p.Frozen, which hands the store an image it may keep and share
	// but never modify.
	Write(p *Page) error
	// Free returns the page to the allocator.
	Free(id PageID) error
	// Stats returns the cumulative I/O statistics.
	Stats() Stats
	// PagesInUse returns the number of live (allocated, not freed) pages:
	// the space consumption of whatever is stored.
	PagesInUse() int
}

// ErrPageNotFound is returned when reading an unallocated or freed page.
var ErrPageNotFound = errors.New("pager: page not found")

// ErrDoubleFree is returned by Free of a page that is already on the free
// list. Silently accepting it would list the id twice and hand the same
// page to two future allocations.
var ErrDoubleFree = errors.New("pager: page already free")

// ErrReservedPage is returned by operations targeting a page the store
// reserves for its own bookkeeping: page 0 (FileStore's meta slot and the
// universal nil id), a free-list overflow chain page, or a WALStore's
// watermark page.
var ErrReservedPage = errors.New("pager: reserved page")

// MemStore is an in-memory Store. It is the default substrate for
// experiments: I/Os are counted, not performed, exactly as needed to
// reproduce the paper's I/O-count metrics at modern speeds.
//
// MemStore is safe for concurrent use. Reads take only a read-latch, so
// parallel queries against disjoint (or shared, unmodified) pages scale
// with cores; mutations take the exclusive latch. Statistics are atomic
// counters — Stats() never blocks and never races.
type MemStore struct {
	mu       sync.RWMutex
	pageSize int
	pages    map[PageID][]byte
	free     []PageID
	next     PageID
	stats    counters
}

// NewMemStore returns an empty in-memory store with the given page size.
func NewMemStore(pageSize int) *MemStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemStore{
		pageSize: pageSize,
		pages:    make(map[PageID][]byte),
		next:     1,
	}
}

// PageSize implements Store.
func (m *MemStore) PageSize() int { return m.pageSize }

// Allocate implements Store.
func (m *MemStore) Allocate() (*Page, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var id PageID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		id = m.next
		m.next++
	}
	buf := make([]byte, m.pageSize)
	m.pages[id] = buf
	m.stats.allocs.Add(1)
	// An allocation materializes the page in memory; the caller writes it
	// out explicitly, so allocation itself costs no I/O.
	data := make([]byte, m.pageSize)
	return &Page{ID: id, Data: data}, nil
}

// Read implements Store. Concurrent reads share the read-latch.
func (m *MemStore) Read(id PageID) (*Page, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	buf, ok := m.pages[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	m.stats.reads.Add(1)
	data := make([]byte, m.pageSize)
	copy(data, buf)
	return &Page{ID: id, Data: data}, nil
}

// Write implements Store. A fresh image — a copy, or the caller's own
// slice when it is frozen — is installed rather than mutating the stored
// slice in place, so slices handed out by View stay stable snapshots (see
// Viewer).
func (m *MemStore) Write(p *Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[p.ID]; !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, p.ID)
	}
	m.stats.writes.Add(1)
	m.pages[p.ID] = stableImage(p, m.pageSize)
	return nil
}

// Free implements Store. Freeing page 0 returns ErrReservedPage; freeing
// a page already on the free list returns ErrDoubleFree.
func (m *MemStore) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == 0 {
		return fmt.Errorf("%w: free page 0", ErrReservedPage)
	}
	if _, ok := m.pages[id]; !ok {
		for _, f := range m.free {
			if f == id {
				return fmt.Errorf("%w: %d", ErrDoubleFree, id)
			}
		}
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	delete(m.pages, id)
	m.free = append(m.free, id)
	m.stats.frees.Add(1)
	return nil
}

// Adopt implements Adopter: it forces page id live, whether it is
// currently free, never allocated (id must be the next unallocated id), or
// already live (a no-op). WAL recovery uses it to replay logged
// allocations idempotently; page contents are unspecified until written.
func (m *MemStore) Adopt(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == 0 {
		return fmt.Errorf("%w: adopt page 0", ErrReservedPage)
	}
	if _, live := m.pages[id]; live {
		return nil
	}
	if id < m.next {
		for i, f := range m.free {
			if f == id {
				m.free = append(m.free[:i], m.free[i+1:]...)
				m.pages[id] = make([]byte, m.pageSize)
				return nil
			}
		}
		return fmt.Errorf("pager: adopt page %d: neither live nor free", id)
	}
	if id != m.next {
		return fmt.Errorf("pager: adopt page %d skips ids (next is %d)", id, m.next)
	}
	m.next++
	m.pages[id] = make([]byte, m.pageSize)
	return nil
}

// Disown implements Adopter: it forces page id onto the free list; a page
// already free is a no-op. WAL recovery uses it to replay logged frees
// idempotently.
func (m *MemStore) Disown(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id == 0 {
		return fmt.Errorf("%w: disown page 0", ErrReservedPage)
	}
	if _, live := m.pages[id]; !live {
		for _, f := range m.free {
			if f == id {
				return nil
			}
		}
		return fmt.Errorf("%w: disown %d", ErrPageNotFound, id)
	}
	delete(m.pages, id)
	m.free = append(m.free, id)
	return nil
}

// Stats implements Store. It is lock-free: counters are read atomically,
// so hammering Stats() during a build neither blocks the build nor races
// with it.
func (m *MemStore) Stats() Stats { return m.stats.snapshot() }

// PagesInUse implements Store.
func (m *MemStore) PagesInUse() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// FileStore durability. Slot 0 of the backing file is a meta page that
// makes the store reopenable after a clean Close or a crash-after-Sync:
//
//	off  0: magic "MOBIDXF1" (8 bytes)
//	off  8: format version (uint32, = 1)
//	off 12: page size (uint32)
//	off 16: next never-allocated page id (uint32)
//	off 20: free page count (uint32)
//	off 24: free-list overflow chain head page id (uint32, 0 = none)
//	off 28: user metadata length (uint32, <= UserMetaSize)
//	off 32: user metadata (UserMetaSize bytes)
//	off 64: inline free page ids (uint32 each)
//	last 4: CRC-32C of everything before it
//
// When the free list outgrows the meta page, the tail spills into a chain
// of overflow pages (layout: next id, count, ids, CRC trailer) repurposed
// from the free list itself. Chain pages are kept out of circulation until
// the next Sync rewrites the meta page, so the last synced snapshot is
// always internally consistent: a crash between Syncs loses at most the
// allocator changes since the previous Sync, never the meta's integrity.
const (
	fileMagic = "MOBIDXF1"
	fileVer   = 1
	// UserMetaSize is the number of user bytes persisted in the meta page;
	// enough for an index to stash its root pointer and shape (see
	// SetUserMeta).
	UserMetaSize = 16

	metaIDsOff = 48 // first inline free id
)

// ErrStoreClosed is returned by operations on a closed FileStore.
var ErrStoreClosed = errors.New("pager: store closed")

// ErrBadMeta is returned by OpenFileStore when the meta page is missing,
// unrecognized, or fails its checksum.
var ErrBadMeta = errors.New("pager: bad meta page")

// FileStore is a Store backed by a single file, one page per slot, with a
// checksummed meta page (slot 0) holding the allocator state. Sync
// persists that state; OpenFileStore recovers it, so an index built on a
// FileStore survives process restarts. Experiments normally use MemStore
// for speed.
//
// FileStore is safe for concurrent use. Reads take only a read-latch (the
// underlying ReadAt is positional and thread-safe), so concurrent readers
// proceed in parallel; every mutation takes the exclusive latch. Stats()
// is lock-free.
type FileStore struct {
	mu       sync.RWMutex
	f        *os.File
	pageSize int
	free     []PageID
	next     PageID
	live     map[PageID]struct{}
	user     []byte
	ovPages  []PageID // overflow-chain pages referenced by the on-disk meta
	closed   bool
	stats    counters
}

// NewFileStore creates (truncating) a file-backed store at path and writes
// an initial meta page, so the file is valid from the first moment.
func NewFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if pageSize < metaIDsOff+4 {
		return nil, fmt.Errorf("pager: page size %d too small for meta page", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	fs := &FileStore{f: f, pageSize: pageSize, next: 1, live: make(map[PageID]struct{})}
	if err := fs.Sync(); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return fs, nil
}

// OpenFileStore opens an existing store file without truncating it,
// recovering the page size, allocator state and user metadata from the
// meta page written by the last Sync (or Close).
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	fs, err := recoverFileStore(f)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("pager: open %s: %w", path, err), f.Close())
	}
	return fs, nil
}

func recoverFileStore(f *os.File) (*FileStore, error) {
	head := make([]byte, 16)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, 16), head); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	if string(head[:8]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadMeta, head[:8])
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != fileVer {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadMeta, v)
	}
	pageSize := int(binary.LittleEndian.Uint32(head[12:16]))
	if pageSize < metaIDsOff+4 || pageSize > 1<<26 {
		return nil, fmt.Errorf("%w: implausible page size %d", ErrBadMeta, pageSize)
	}
	meta := make([]byte, pageSize)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(pageSize)), meta); err != nil {
		return nil, fmt.Errorf("%w: truncated meta page: %v", ErrBadMeta, err)
	}
	if err := verifyTrailer(meta); err != nil {
		return nil, fmt.Errorf("%w: meta page: %v", ErrBadMeta, err)
	}
	next := PageID(binary.LittleEndian.Uint32(meta[16:20]))
	if next == 0 {
		return nil, fmt.Errorf("%w: next id is zero", ErrBadMeta)
	}
	freeCount := int(binary.LittleEndian.Uint32(meta[20:24]))
	ovHead := PageID(binary.LittleEndian.Uint32(meta[24:28]))
	userLen := int(binary.LittleEndian.Uint32(meta[28:32]))
	if userLen > UserMetaSize {
		return nil, fmt.Errorf("%w: user metadata length %d", ErrBadMeta, userLen)
	}
	user := append([]byte(nil), meta[32:32+userLen]...)

	fs := &FileStore{f: f, pageSize: pageSize, next: next, live: make(map[PageID]struct{}), user: user}
	inlineCap := fs.inlineFreeCap()
	n := freeCount
	if n > inlineCap {
		n = inlineCap
	}
	seen := make(map[PageID]struct{}, freeCount)
	addFree := func(id PageID) error {
		if id == 0 || id >= next {
			return fmt.Errorf("%w: free id %d out of range [1, %d)", ErrBadMeta, id, next)
		}
		if _, dup := seen[id]; dup {
			return fmt.Errorf("%w: free id %d listed twice", ErrBadMeta, id)
		}
		seen[id] = struct{}{}
		fs.free = append(fs.free, id)
		return nil
	}
	for i := 0; i < n; i++ {
		if err := addFree(PageID(binary.LittleEndian.Uint32(meta[metaIDsOff+4*i:]))); err != nil {
			return nil, err
		}
	}
	// Walk the overflow chain. Chain pages stay out of circulation (they
	// are still referenced by the on-disk meta) until the next Sync.
	for id := ovHead; id != 0; {
		if id >= next {
			return nil, fmt.Errorf("%w: overflow page %d out of range", ErrBadMeta, id)
		}
		for _, p := range fs.ovPages {
			if p == id {
				return nil, fmt.Errorf("%w: overflow chain cycle at page %d", ErrBadMeta, id)
			}
		}
		fs.ovPages = append(fs.ovPages, id)
		page := make([]byte, pageSize)
		if _, err := io.ReadFull(io.NewSectionReader(f, fs.offset(id), int64(pageSize)), page); err != nil {
			return nil, fmt.Errorf("%w: overflow page %d: %v", ErrBadMeta, id, err)
		}
		if err := verifyTrailer(page); err != nil {
			return nil, fmt.Errorf("%w: overflow page %d: %v", ErrBadMeta, id, err)
		}
		count := int(binary.LittleEndian.Uint32(page[4:8]))
		if count > fs.overflowCap() {
			return nil, fmt.Errorf("%w: overflow page %d holds %d ids", ErrBadMeta, id, count)
		}
		for i := 0; i < count; i++ {
			if err := addFree(PageID(binary.LittleEndian.Uint32(page[8+4*i:]))); err != nil {
				return nil, err
			}
		}
		id = PageID(binary.LittleEndian.Uint32(page[0:4]))
	}
	if len(fs.free) != freeCount {
		return nil, fmt.Errorf("%w: free count %d but %d ids recovered", ErrBadMeta, freeCount, len(fs.free))
	}
	// Everything allocated, not free, and not a chain page is live data.
	ov := make(map[PageID]struct{}, len(fs.ovPages))
	for _, id := range fs.ovPages {
		ov[id] = struct{}{}
	}
	for id := PageID(1); id < next; id++ {
		if _, isFree := seen[id]; isFree {
			continue
		}
		if _, isOv := ov[id]; isOv {
			continue
		}
		fs.live[id] = struct{}{}
	}
	return fs, nil
}

// inlineFreeCap is the number of free ids the meta page holds inline.
func (fs *FileStore) inlineFreeCap() int { return (fs.pageSize - metaIDsOff - 4) / 4 }

// overflowCap is the number of free ids one overflow chain page holds.
func (fs *FileStore) overflowCap() int { return (fs.pageSize - 8 - 4) / 4 }

// verifyTrailer checks the CRC-32C trailer of a meta or overflow page.
func verifyTrailer(page []byte) error {
	body, trailer := page[:len(page)-4], page[len(page)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := crc32.Checksum(body, castagnoli); got != want {
		return fmt.Errorf("checksum %08x, want %08x", got, want)
	}
	return nil
}

func stampTrailer(page []byte) {
	sum := crc32.Checksum(page[:len(page)-4], castagnoli)
	binary.LittleEndian.PutUint32(page[len(page)-4:], sum)
}

// Sync persists the allocator state (meta page plus free-list overflow
// chain) and flushes the file, establishing a recovery point: a crash any
// time after Sync returns loses nothing written before it.
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	//mobidxlint:allow lockorder -- by design: the store latch serializes meta/free-list writes with their fsync; concurrent writers must observe the completed recovery point
	return fs.syncLocked()
}

func (fs *FileStore) syncLocked() error {
	// Chain pages referenced by the previous meta are superseded by the
	// snapshot we are about to write; they become ordinary free pages.
	fs.free = append(fs.free, fs.ovPages...)
	fs.ovPages = nil

	inlineCap := fs.inlineFreeCap()
	perOv := fs.overflowCap()
	var containers []PageID
	for len(fs.free) > inlineCap+len(containers)*perOv {
		// Repurpose a free page as an overflow container. It leaves the
		// free list (the meta will reference it) until the next Sync.
		c := fs.free[len(fs.free)-1]
		fs.free = fs.free[:len(fs.free)-1]
		containers = append(containers, c)
	}

	inline := fs.free
	var spill []PageID
	if len(inline) > inlineCap {
		inline, spill = fs.free[:inlineCap], fs.free[inlineCap:]
	}
	// Write the chain back to front so each page knows its successor.
	nextID := PageID(0)
	for i := len(containers) - 1; i >= 0; i-- {
		lo := i * perOv
		hi := lo + perOv
		if lo > len(spill) {
			lo = len(spill)
		}
		if hi > len(spill) {
			hi = len(spill)
		}
		page := make([]byte, fs.pageSize)
		binary.LittleEndian.PutUint32(page[0:4], uint32(nextID))
		binary.LittleEndian.PutUint32(page[4:8], uint32(hi-lo))
		for j, id := range spill[lo:hi] {
			binary.LittleEndian.PutUint32(page[8+4*j:], uint32(id))
		}
		stampTrailer(page)
		if _, err := fs.f.WriteAt(page, fs.offset(containers[i])); err != nil {
			return fmt.Errorf("pager: write overflow page %d: %w", containers[i], err)
		}
		nextID = containers[i]
	}

	meta := make([]byte, fs.pageSize)
	copy(meta[0:8], fileMagic)
	binary.LittleEndian.PutUint32(meta[8:12], fileVer)
	binary.LittleEndian.PutUint32(meta[12:16], uint32(fs.pageSize))
	binary.LittleEndian.PutUint32(meta[16:20], uint32(fs.next))
	binary.LittleEndian.PutUint32(meta[20:24], uint32(len(inline)+len(spill)))
	binary.LittleEndian.PutUint32(meta[24:28], uint32(nextID))
	binary.LittleEndian.PutUint32(meta[28:32], uint32(len(fs.user)))
	copy(meta[32:32+UserMetaSize], fs.user)
	for i, id := range inline {
		binary.LittleEndian.PutUint32(meta[metaIDsOff+4*i:], uint32(id))
	}
	stampTrailer(meta)
	if _, err := fs.f.WriteAt(meta, 0); err != nil {
		return fmt.Errorf("pager: write meta page: %w", err)
	}
	fs.ovPages = containers
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("pager: sync: %w", err)
	}
	return nil
}

// SetUserMeta stores up to UserMetaSize bytes of caller data in the meta
// page — typically an index's root pointer and shape — persisted by the
// next Sync (or Close) and recovered by OpenFileStore via UserMeta.
func (fs *FileStore) SetUserMeta(b []byte) error {
	if len(b) > UserMetaSize {
		return fmt.Errorf("pager: user metadata %d bytes exceeds %d", len(b), UserMetaSize)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	fs.user = append([]byte(nil), b...)
	return nil
}

// UserMeta returns a copy of the stored user metadata.
func (fs *FileStore) UserMeta() []byte {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]byte(nil), fs.user...)
}

// Close syncs the meta page and closes the backing file. It is safe to
// call more than once; later calls return nil.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closed = true
	//mobidxlint:allow lockorder -- by design: Close holds the latch across the final sync so no writer can slip in between the meta flush and the file close
	syncErr := fs.syncLocked()
	closeErr := fs.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// PageSize implements Store.
func (fs *FileStore) PageSize() int { return fs.pageSize }

// offset maps a page id to its file position; slot 0 is the meta page.
func (fs *FileStore) offset(id PageID) int64 { return int64(id) * int64(fs.pageSize) }

// Allocate implements Store.
func (fs *FileStore) Allocate() (*Page, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, ErrStoreClosed
	}
	var id PageID
	if n := len(fs.free); n > 0 {
		id = fs.free[n-1]
		fs.free = fs.free[:n-1]
	} else {
		id = fs.next
		fs.next++
	}
	fs.live[id] = struct{}{}
	fs.stats.allocs.Add(1)
	return &Page{ID: id, Data: make([]byte, fs.pageSize)}, nil
}

// Read implements Store. Only a read past EOF of an allocated-but-never-
// written page yields zeroes (the file simply hasn't grown that far); any
// real I/O error propagates wrapped. Concurrent reads share the
// read-latch; a write to the same page is excluded for its duration, so
// readers never observe a torn page.
func (fs *FileStore) Read(id PageID) (*Page, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return nil, ErrStoreClosed
	}
	if _, ok := fs.live[id]; !ok {
		return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	data := make([]byte, fs.pageSize)
	n, err := fs.f.ReadAt(data, fs.offset(id))
	switch {
	case err == nil:
	case errors.Is(err, io.EOF):
		// Allocated beyond the written tail of the file: the unread
		// remainder is zeroes by definition.
		for i := n; i < len(data); i++ {
			data[i] = 0
		}
	default:
		return nil, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	fs.stats.reads.Add(1)
	return &Page{ID: id, Data: data}, nil
}

// Write implements Store.
func (fs *FileStore) Write(p *Page) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if _, ok := fs.live[p.ID]; !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, p.ID)
	}
	if len(p.Data) != fs.pageSize {
		return fmt.Errorf("pager: write page %d: %d bytes, want %d", p.ID, len(p.Data), fs.pageSize)
	}
	if _, err := fs.f.WriteAt(p.Data, fs.offset(p.ID)); err != nil {
		return fmt.Errorf("pager: write page %d: %w", p.ID, err)
	}
	fs.stats.writes.Add(1)
	return nil
}

// Free implements Store. Freeing the meta page (slot 0) or an overflow
// chain page returns ErrReservedPage; freeing a page already on the free
// list returns ErrDoubleFree. Either would corrupt the free list —
// duplicate ids hand one page to two allocations.
func (fs *FileStore) Free(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if id == 0 {
		return fmt.Errorf("%w: free meta page", ErrReservedPage)
	}
	if _, ok := fs.live[id]; !ok {
		for _, f := range fs.free {
			if f == id {
				return fmt.Errorf("%w: %d", ErrDoubleFree, id)
			}
		}
		for _, p := range fs.ovPages {
			if p == id {
				return fmt.Errorf("%w: free overflow chain page %d", ErrReservedPage, id)
			}
		}
		return fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	delete(fs.live, id)
	fs.free = append(fs.free, id)
	fs.stats.frees.Add(1)
	return nil
}

// Adopt implements Adopter (see MemStore.Adopt): WAL recovery forces page
// id live. Adopting an overflow chain page is refused — the on-disk meta
// still references it, so a log asking for it has diverged from this file.
func (fs *FileStore) Adopt(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if id == 0 {
		return fmt.Errorf("%w: adopt meta page", ErrReservedPage)
	}
	if _, live := fs.live[id]; live {
		return nil
	}
	if id < fs.next {
		for i, f := range fs.free {
			if f == id {
				fs.free = append(fs.free[:i], fs.free[i+1:]...)
				fs.live[id] = struct{}{}
				return fs.zeroSlot(id)
			}
		}
		return fmt.Errorf("pager: adopt page %d: neither live nor free", id)
	}
	if id != fs.next {
		return fmt.Errorf("pager: adopt page %d skips ids (next is %d)", id, fs.next)
	}
	fs.next++
	fs.live[id] = struct{}{}
	return fs.zeroSlot(id)
}

// zeroSlot clears a page's file bytes. A newly adopted page must read as
// zeroes (like a fresh allocation), but the file slot may hold bytes from
// the page's previous life.
func (fs *FileStore) zeroSlot(id PageID) error {
	if _, err := fs.f.WriteAt(make([]byte, fs.pageSize), fs.offset(id)); err != nil {
		return fmt.Errorf("pager: zero page %d: %w", id, err)
	}
	return nil
}

// Disown implements Adopter (see MemStore.Disown): WAL recovery forces
// page id free.
func (fs *FileStore) Disown(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if id == 0 {
		return fmt.Errorf("%w: disown meta page", ErrReservedPage)
	}
	if _, live := fs.live[id]; !live {
		for _, f := range fs.free {
			if f == id {
				return nil
			}
		}
		return fmt.Errorf("%w: disown %d", ErrPageNotFound, id)
	}
	delete(fs.live, id)
	fs.free = append(fs.free, id)
	return nil
}

// Stats implements Store. Lock-free: see MemStore.Stats.
func (fs *FileStore) Stats() Stats { return fs.stats.snapshot() }

// PagesInUse implements Store.
func (fs *FileStore) PagesInUse() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return len(fs.live)
}
