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
	"slices"
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
	ID   PageID
	Data []byte
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
	// Write persists the page and takes ownership of p.Data: the caller
	// allocates it at exactly PageSize() bytes and never touches it
	// again, so a store may keep the slice as its image of the page (and
	// share it with readers) but never writes through it. A page of any
	// other length is refused.
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
// universal nil id), a free-list chain page, or a WALStore's watermark
// page.
var ErrReservedPage = errors.New("pager: reserved page")

// allocator is the page-id allocator MemStore and FileStore share: the
// next never-allocated id and a LIFO free list. Liveness is a complement:
// every id in [1, next) that is neither free nor held is live, so the
// allocator's memory grows with its free list, not with the store. A held
// id is one the store keeps for its own bookkeeping (FileStore's free-list
// chain pages): not live, never handed out, and refused as reserved. The
// owning store serializes access.
type allocator struct {
	next PageID
	free []PageID
	out  map[PageID]bool // the ids below next that are not live: true if free, false if held
}

func newAllocator() allocator { return allocator{next: 1, out: make(map[PageID]bool)} }

// live reports whether id is allocated.
func (a *allocator) live(id PageID) bool {
	_, out := a.out[id]
	return id != NilPage && id < a.next && !out
}

// inUse returns the number of live ids.
func (a *allocator) inUse() int { return int(a.next) - 1 - len(a.out) }

// allocate hands out the most recently freed id, else the next fresh one.
func (a *allocator) allocate() PageID {
	n := len(a.free)
	if n == 0 {
		a.next++
		return a.next - 1
	}
	id := a.free[n-1]
	a.free = a.free[:n-1]
	delete(a.out, id)
	return id
}

// release implements Store.Free: a live id goes on the free list. Page 0
// and held ids are ErrReservedPage, a free id ErrDoubleFree, any other
// ErrPageNotFound; either of the first two, accepted, would corrupt the
// free list.
func (a *allocator) release(id PageID) error {
	if a.live(id) {
		a.push(id)
		return nil
	}
	switch free, out := a.out[id]; {
	case id == NilPage || out && !free:
		return fmt.Errorf("%w: free page %d", ErrReservedPage, id)
	case free:
		return fmt.Errorf("%w: %d", ErrDoubleFree, id)
	}
	return fmt.Errorf("%w: %d", ErrPageNotFound, id)
}

// push puts ids on the free list, in order.
func (a *allocator) push(ids ...PageID) {
	for _, id := range ids {
		a.free = append(a.free, id)
		a.out[id] = true
	}
}

// hold takes the id allocate would hand out and holds it.
func (a *allocator) hold() PageID {
	id := a.allocate()
	a.out[id] = false
	return id
}

// adopt implements Adopter.Adopt: it forces id live, whether it is free,
// the next unallocated id, or already live (a no-op), and reports whether
// it was not live before. A held id stays held, as a free one would for
// disown: WAL replay names one only when the store's meta record was
// written after the logged batches — a crash between a checkpoint's base
// sync and its watermark — and those batches leave it free.
func (a *allocator) adopt(id PageID) (bool, error) {
	switch free, out := a.out[id]; {
	case id == NilPage:
		return false, fmt.Errorf("%w: adopt page 0", ErrReservedPage)
	case id > a.next:
		return false, fmt.Errorf("pager: adopt page %d skips ids (next is %d)", id, a.next)
	case id == a.next:
		a.next++
		return true, nil
	case !out || !free:
		return false, nil
	}
	i := slices.Index(a.free, id)
	a.free = slices.Delete(a.free, i, i+1)
	delete(a.out, id)
	return true, nil
}

// disown implements Adopter.Disown: it forces id onto the free list; a
// free or held id is a no-op.
func (a *allocator) disown(id PageID) error {
	switch _, out := a.out[id]; {
	case id == NilPage:
		return fmt.Errorf("%w: disown page 0", ErrReservedPage)
	case out:
		return nil
	case id >= a.next:
		return fmt.Errorf("%w: disown %d", ErrPageNotFound, id)
	}
	a.push(id)
	return nil
}

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
	pages    map[PageID][]byte // the live pages' images
	zero     []byte            // the image of every page allocated but not yet written
	alloc    allocator
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
		zero:     make([]byte, pageSize),
		alloc:    newAllocator(),
	}
}

// PageSize implements Store.
func (m *MemStore) PageSize() int { return m.pageSize }

// Allocate implements Store.
func (m *MemStore) Allocate() (*Page, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	id := m.alloc.allocate()
	// An allocation materializes the page in memory; the caller writes it
	// out explicitly, so allocation itself costs no I/O. Until then the
	// page reads as the store's one shared zero image, and the caller's
	// zeroed image is the only one the allocation makes.
	m.pages[id] = m.zero
	m.stats.allocs.Add(1)
	return &Page{ID: id, Data: make([]byte, m.pageSize)}, nil
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

// Write implements Store. The caller's slice becomes the page's image;
// the old image is replaced, never mutated, so slices handed out by View
// stay stable snapshots (see Viewer).
func (m *MemStore) Write(p *Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[p.ID]; !ok {
		return fmt.Errorf("%w: %d", ErrPageNotFound, p.ID)
	}
	if len(p.Data) != m.pageSize {
		return fmt.Errorf("pager: write page %d: %d bytes, want %d", p.ID, len(p.Data), m.pageSize)
	}
	m.stats.writes.Add(1)
	m.pages[p.ID] = p.Data
	return nil
}

// Free implements Store. Freeing page 0 returns ErrReservedPage; freeing
// a page already on the free list returns ErrDoubleFree.
func (m *MemStore) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.alloc.release(id); err != nil {
		return err
	}
	delete(m.pages, id)
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
	fresh, err := m.alloc.adopt(id)
	if fresh {
		m.pages[id] = m.zero
	}
	return err
}

// Disown implements Adopter: it forces page id onto the free list; a page
// already free is a no-op. WAL recovery uses it to replay logged frees
// idempotently.
func (m *MemStore) Disown(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.alloc.disown(id); err != nil {
		return err
	}
	delete(m.pages, id)
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

// File is the byte device under a FileStore or a FileLog: positional reads
// and writes, truncation, a durability barrier, and a size, which the
// stores take as Seek(0, io.SeekEnd). *os.File implements it.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FileStore layout. The file is a sequence of slots of page size + 4
// bytes; page id i lives in slot i. Every page slot — a data page or a
// free-list chain page — ends in the CRC-32C of the page before it, so a
// torn write or a flipped bit on the media reads back as ErrPageCorrupt
// instead of as a page. A slot that is all zero, trailer included, is a
// page that was never written, and reads as a zeroed page: no write can
// produce it, because the CRC-32C of an all-zero page is nonzero.
//
// Slot 0 holds the allocator state twice, one meta record per half page
// (its last 4 bytes are unused):
//
//	off  0: magic "MOBIDXF1" (8 bytes)
//	off  8: format version (uint32, = 3)
//	off 12: page size (uint32)
//	off 16: sequence number (uint64)
//	off 24: next never-allocated page id (uint32)
//	off 28: free page count (uint32)
//	off 32: free-list chain head page id (uint32, 0 = none)
//	off 36: user metadata length (uint32, <= UserMetaSize)
//	off 40: user metadata (UserMetaSize bytes)
//	off 56: inline free page ids (uint32 each)
//	last 4: CRC-32C of everything before it in the record
//
// The Sync that writes sequence number s writes record s mod 2, so it
// never overwrites the record the last completed Sync wrote, and a reopen
// takes the newest record that verifies and whose free list decodes. The
// first 16 bytes never change, which is what locates the second record
// even when the first is torn. A free list longer than a record's inline
// capacity spills into a chain of pages (next id, count, ids, then the
// slot's CRC trailer) taken off the free list. The chain the newest
// record names stays held — neither live nor free — until the record
// that supersedes it is durable, so a Sync writes no page a durable
// record references, and a crash anywhere inside one leaves the previous
// or the new allocator state. Between Syncs a crash loses the allocator
// changes made since the last one; page data written since may or may
// not survive, which is the WAL's concern.
const (
	fileMagic = "MOBIDXF1"
	fileVer   = 3
	// trailerSize is the CRC-32C that ends every page slot.
	trailerSize = 4
	// UserMetaSize is the number of user bytes persisted in the meta page;
	// enough for an index to stash its root pointer and shape (see
	// SetUserMeta).
	UserMetaSize = 16

	metaIDsOff = 56 // first inline free id of a meta record
	// minFilePageSize is the smallest page whose halves hold a meta record.
	minFilePageSize = 2 * (metaIDsOff + 4)
)

// ErrStoreClosed is returned by operations on a closed FileStore.
var ErrStoreClosed = errors.New("pager: store closed")

// ErrBadMeta is returned by OpenFileStore when slot 0 is missing or
// unrecognized, or neither meta record verifies and decodes.
var ErrBadMeta = errors.New("pager: bad meta page")

// ErrPageCorrupt is returned when a page fails its integrity check: a torn
// write, bit rot, or any other silent corruption detected after the fact
// (a FileStore slot whose trailer does not match, or a page image an index
// cannot decode). It is permanent: reading again returns the same bytes.
var ErrPageCorrupt = errors.New("pager: page corrupt")

// castagnoli is the CRC-32C polynomial table (iSCSI/ext4's checksum; a
// hardware instruction on modern CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FileStore is a Store backed by a single file, one checksummed page per
// slot, with checksummed meta records in slot 0 holding the allocator
// state. It is the one place page integrity is enforced: Read verifies
// every page it returns (see the layout above). Sync
// persists that state; OpenFileStore recovers it, so an index built on a
// FileStore survives process restarts. Experiments normally use MemStore
// for speed.
//
// FileStore is safe for concurrent use. Reads take only a read-latch (the
// underlying ReadAt is positional and thread-safe), so concurrent readers
// proceed in parallel; every mutation takes the exclusive latch, but only
// for its own writes: Sync and Close run the fsync with it released, so a
// read never waits on one. Stats() is lock-free.
type FileStore struct {
	mu       sync.RWMutex
	synced   sync.Cond // on mu: broadcast when a Sync's fsync ends
	syncing  bool      // a Sync is writing its meta record or in its fsync
	f        File
	pageSize int
	alloc    allocator
	chain    []PageID // the free-list chain the newest meta record names; held
	seq      uint64   // that record's sequence number
	user     []byte
	closed   bool
	stats    counters
	slot     []byte    // Write's and writeMeta's slot image, under mu
	reads    sync.Pool // Read's slot images (*[]byte), one per reader
}

// NewFileStore creates (truncating) a file-backed store at path and writes
// its meta records, so the file is valid from the first moment.
func NewFileStore(path string, pageSize int) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	fs, err := OpenFileStoreOn(f, pageSize)
	if err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return fs, nil
}

// OpenFileStore opens an existing store file without truncating it,
// recovering the page size, allocator state and user metadata from the
// meta record written by the last Sync (or Close).
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

// OpenFileStoreOn opens the store f holds, or creates one with the given
// page size when f is shorter than one slot and holds no store: creation
// writes all of slot 0 before its first fsync, so such a file can only be
// a creation that never finished.
func OpenFileStoreOn(f File, pageSize int) (*FileStore, error) {
	fs, err := recoverFileStore(f)
	if err == nil {
		return fs, nil
	}
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	if size, serr := f.Seek(0, io.SeekEnd); serr != nil || size >= int64(pageSize+trailerSize) {
		return nil, errors.Join(err, serr)
	}
	if pageSize < minFilePageSize {
		return nil, fmt.Errorf("pager: page size %d too small for meta page", pageSize)
	}
	fs = newFileStore(f, pageSize)
	fs.alloc, fs.seq = newAllocator(), 1
	slot := fs.slot
	fs.encodeMeta(slot[:fs.metaLen()], 0, NilPage, nil)
	fs.encodeMeta(slot[fs.metaLen():2*fs.metaLen()], 1, NilPage, nil)
	if _, err := f.WriteAt(slot, 0); err != nil {
		return nil, fmt.Errorf("pager: write meta page: %w", err)
	}
	if err := f.Sync(); err != nil {
		return nil, fmt.Errorf("pager: sync: %w", err)
	}
	return fs, nil
}

func newFileStore(f File, pageSize int) *FileStore {
	fs := &FileStore{f: f, pageSize: pageSize, slot: make([]byte, pageSize+trailerSize)}
	fs.synced.L = &fs.mu
	fs.reads.New = func() any {
		b := make([]byte, pageSize+trailerSize)
		return &b
	}
	return fs
}

func recoverFileStore(f File) (*FileStore, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	var head [16]byte
	if _, err := f.ReadAt(head[:], 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	if string(head[:8]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadMeta, head[:8])
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != fileVer {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadMeta, v)
	}
	pageSize := int(binary.LittleEndian.Uint32(head[12:16]))
	if pageSize < minFilePageSize || pageSize > 1<<26 {
		return nil, fmt.Errorf("%w: implausible page size %d", ErrBadMeta, pageSize)
	}
	if size < int64(pageSize+trailerSize) {
		return nil, fmt.Errorf("%w: truncated meta page", ErrBadMeta)
	}
	fs := newFileStore(f, pageSize)
	slot := fs.slot[:pageSize]
	if _, err := f.ReadAt(slot, 0); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	newest, other := slot[:fs.metaLen()], slot[fs.metaLen():2*fs.metaLen()]
	if binary.LittleEndian.Uint64(other[16:24]) > binary.LittleEndian.Uint64(newest[16:24]) {
		newest, other = other, newest
	}
	err = fs.decodeMeta(newest, size)
	if err != nil {
		if err2 := fs.decodeMeta(other, size); err2 != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadMeta, errors.Join(err, err2))
		}
	}
	return fs, nil
}

// decodeMeta installs the allocator state a meta record holds, walking its
// free-list chain. Every id is checked against the record's next id and
// the chain's pages against the file's size, and no id may appear twice,
// so arbitrary bytes yield an error, never a panic or an endless walk.
func (fs *FileStore) decodeMeta(rec []byte, size int64) error {
	u32 := func(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
	if err := verifyTrailer(rec); err != nil {
		return fmt.Errorf("meta record: %v", err)
	}
	if string(rec[:8]) != fileMagic || u32(rec[8:12]) != fileVer || int(u32(rec[12:16])) != fs.pageSize {
		return errors.New("meta record header differs from slot 0's")
	}
	a := allocator{next: PageID(u32(rec[24:28])), out: make(map[PageID]bool)}
	freeCount, userLen := int(u32(rec[28:32])), int(u32(rec[36:40]))
	if a.next == NilPage || userLen > UserMetaSize {
		return fmt.Errorf("next id %d, user metadata length %d", a.next, userLen)
	}
	addFree := func(id PageID) error {
		if id == NilPage || id >= a.next {
			return fmt.Errorf("free id %d out of range [1, %d)", id, a.next)
		}
		if _, dup := a.out[id]; dup {
			return fmt.Errorf("page %d listed twice", id)
		}
		a.push(id)
		return nil
	}
	for i := 0; i < min(freeCount, fs.inlineFreeCap()); i++ {
		if err := addFree(PageID(u32(rec[metaIDsOff+4*i:]))); err != nil {
			return err
		}
	}
	var chain []PageID
	page := make([]byte, fs.pageSize+trailerSize)
	for id := PageID(u32(rec[32:36])); id != NilPage; id = PageID(u32(page[0:4])) {
		if _, dup := a.out[id]; dup || id >= a.next || fs.offset(id)+int64(len(page)) > size {
			return fmt.Errorf("chain page %d listed twice or out of range", id)
		}
		if _, err := fs.f.ReadAt(page, fs.offset(id)); err != nil {
			return fmt.Errorf("chain page %d: %v", id, err)
		}
		if err := verifyTrailer(page); err != nil {
			return fmt.Errorf("chain page %d: %v", id, err)
		}
		count := int(u32(page[4:8]))
		if count > fs.chainCap() {
			return fmt.Errorf("chain page %d holds %d ids", id, count)
		}
		a.out[id] = false
		chain = append(chain, id)
		for i := 0; i < count; i++ {
			if err := addFree(PageID(u32(page[8+4*i:]))); err != nil {
				return err
			}
		}
	}
	if len(a.free) != freeCount {
		return fmt.Errorf("free count %d but %d ids recovered", freeCount, len(a.free))
	}
	fs.alloc, fs.chain = a, chain
	fs.seq = binary.LittleEndian.Uint64(rec[16:24])
	fs.user = append([]byte(nil), rec[40:40+userLen]...)
	return nil
}

// metaLen is the length of one meta record: half a page.
func (fs *FileStore) metaLen() int { return fs.pageSize / 2 }

// inlineFreeCap is the number of free ids a meta record holds inline.
func (fs *FileStore) inlineFreeCap() int { return (fs.metaLen() - metaIDsOff - 4) / 4 }

// chainCap is the number of free ids one chain page holds.
func (fs *FileStore) chainCap() int { return (fs.pageSize - 8) / 4 }

// encodeMeta fills one meta record: sequence number seq, chain head head,
// and the free list's count and first ids (the chain holds the rest).
func (fs *FileStore) encodeMeta(rec []byte, seq uint64, head PageID, free []PageID) {
	le := binary.LittleEndian
	copy(rec[0:8], fileMagic)
	le.PutUint32(rec[8:12], fileVer)
	le.PutUint32(rec[12:16], uint32(fs.pageSize))
	le.PutUint64(rec[16:24], seq)
	le.PutUint32(rec[24:28], uint32(fs.alloc.next))
	le.PutUint32(rec[28:32], uint32(len(free)))
	le.PutUint32(rec[32:36], uint32(head))
	le.PutUint32(rec[36:40], uint32(len(fs.user)))
	copy(rec[40:40+UserMetaSize], fs.user)
	for i, id := range free[:min(len(free), fs.inlineFreeCap())] {
		le.PutUint32(rec[metaIDsOff+4*i:], uint32(id))
	}
	stampTrailer(rec)
}

// verifyTrailer checks the CRC-32C trailer of a meta record or page slot.
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

// Sync persists the allocator state (a meta record plus its free-list
// chain) and flushes the file, establishing a recovery point: a crash any
// time after Sync returns loses nothing written before it. The chain and
// the meta record are written under the store latch, the fsync after it is
// released; Syncs wait for each other, so the record each writes and the
// chain it names take effect, in order, only once durable.
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	for fs.syncing {
		fs.synced.Wait()
	}
	if fs.closed {
		fs.mu.Unlock()
		return ErrStoreClosed
	}
	fs.syncing = true
	chain, err := fs.writeMeta()
	fs.mu.Unlock()
	if err == nil {
		err = fs.flush()
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.endSyncLocked(chain, err)
	return err
}

// writeMeta writes the free list's spill into newly held chain pages, then
// the next meta record naming them, and returns the chain (caller holds mu
// and is the running Sync). The new chain's pages come off the free list's
// tail (past its end once it runs dry), never from the chain the newest
// record names: that one is held, and the record written here lists it as
// free, but it joins the free list only once this record is durable.
func (fs *FileStore) writeMeta() ([]PageID, error) {
	var chain []PageID
	for len(fs.alloc.free)+len(fs.chain) > fs.inlineFreeCap()+len(chain)*fs.chainCap() {
		chain = append(chain, fs.alloc.hold())
	}
	free := append(slices.Clip(fs.alloc.free), fs.chain...)
	spill := free[min(len(free), fs.inlineFreeCap()):]
	per := fs.chainCap()
	head := NilPage
	page := fs.slot
	// Back to front, so each page names its successor.
	for i := len(chain) - 1; i >= 0; i-- {
		ids := spill[min(i*per, len(spill)):min((i+1)*per, len(spill))]
		clear(page)
		binary.LittleEndian.PutUint32(page[0:4], uint32(head))
		binary.LittleEndian.PutUint32(page[4:8], uint32(len(ids)))
		for j, id := range ids {
			binary.LittleEndian.PutUint32(page[8+4*j:], uint32(id))
		}
		stampTrailer(page)
		if _, err := fs.f.WriteAt(page, fs.offset(chain[i])); err != nil {
			return chain, fmt.Errorf("pager: write free-list chain page %d: %w", chain[i], err)
		}
		head = chain[i]
	}
	rec := make([]byte, fs.metaLen())
	fs.encodeMeta(rec, fs.seq+1, head, free)
	if _, err := fs.f.WriteAt(rec, int64((fs.seq+1)%2)*int64(fs.metaLen())); err != nil {
		return chain, fmt.Errorf("pager: write meta page: %w", err)
	}
	return chain, nil
}

// flush is a Sync's fsync, run without mu.
func (fs *FileStore) flush() error {
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("pager: sync: %w", err)
	}
	return nil
}

// endSyncLocked settles the chain writeMeta held and lets the next Sync
// in (caller holds mu): once the record is durable the old chain joins the
// free list and the new one is held in its place; after a failure the new
// chain's pages go back to the free list's tail.
func (fs *FileStore) endSyncLocked(chain []PageID, err error) {
	fs.syncing = false
	fs.synced.Broadcast()
	if err != nil {
		slices.Reverse(chain)
		fs.alloc.push(chain...)
		return
	}
	fs.alloc.push(fs.chain...)
	fs.chain = chain
	fs.seq++
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
// call more than once; later calls return nil. The store is closed to
// every other call before the final fsync starts.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	for fs.syncing {
		fs.synced.Wait()
	}
	if fs.closed {
		fs.mu.Unlock()
		return nil
	}
	fs.closed = true
	_, err := fs.writeMeta()
	fs.mu.Unlock()
	if err == nil {
		err = fs.flush()
	}
	return errors.Join(err, fs.f.Close())
}

// PageSize implements Store.
func (fs *FileStore) PageSize() int { return fs.pageSize }

// offset maps a page id to its slot's file position; slot 0 is the meta
// page.
func (fs *FileStore) offset(id PageID) int64 { return int64(id) * int64(fs.pageSize+trailerSize) }

// Allocate implements Store.
func (fs *FileStore) Allocate() (*Page, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil, ErrStoreClosed
	}
	id := fs.alloc.allocate()
	fs.stats.allocs.Add(1)
	return &Page{ID: id, Data: make([]byte, fs.pageSize)}, nil
}

// Read implements Store. It reads the page's whole slot into a scratch
// slot from the store's private pool and verifies its trailer: a mismatch
// is ErrPageCorrupt, unless the slot is all zero — a page never written,
// including one past EOF (the file simply hasn't grown that far), which
// reads as zeroes. The page is then copied out into an allocation of
// exactly the page size, which a pool above may keep as its frame: a
// slot-sized one would round up to a larger size class. Any real I/O
// error propagates wrapped. Concurrent reads share the read-latch; a write
// to the same page is excluded for its duration, so readers never observe
// a torn page.
func (fs *FileStore) Read(id PageID) (*Page, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return nil, ErrStoreClosed
	}
	if !fs.alloc.live(id) {
		return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	buf := fs.reads.Get().(*[]byte)
	defer fs.reads.Put(buf)
	slot := *buf
	n, err := fs.f.ReadAt(slot, fs.offset(id))
	switch {
	case err == nil:
	case errors.Is(err, io.EOF):
		// Allocated beyond the written tail of the file: the unread
		// remainder is zeroes by definition.
		clear(slot[n:])
	default:
		return nil, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	fs.stats.reads.Add(1)
	if err := verifyTrailer(slot); err != nil && !allZero(slot) {
		return nil, fmt.Errorf("%w: page %d %v", ErrPageCorrupt, id, err)
	}
	data := make([]byte, fs.pageSize)
	copy(data, slot)
	return &Page{ID: id, Data: data}, nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Write implements Store.
func (fs *FileStore) Write(p *Page) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if !fs.alloc.live(p.ID) {
		return fmt.Errorf("%w: %d", ErrPageNotFound, p.ID)
	}
	if len(p.Data) != fs.pageSize {
		return fmt.Errorf("pager: write page %d: %d bytes, want %d", p.ID, len(p.Data), fs.pageSize)
	}
	copy(fs.slot, p.Data)
	stampTrailer(fs.slot)
	if _, err := fs.f.WriteAt(fs.slot, fs.offset(p.ID)); err != nil {
		return fmt.Errorf("pager: write page %d: %w", p.ID, err)
	}
	fs.stats.writes.Add(1)
	return nil
}

// Free implements Store. Freeing the meta page (slot 0) or a free-list
// chain page returns ErrReservedPage; freeing a page already on the free
// list returns ErrDoubleFree.
func (fs *FileStore) Free(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if err := fs.alloc.release(id); err != nil {
		return err
	}
	fs.stats.frees.Add(1)
	return nil
}

// Adopt implements Adopter (see MemStore.Adopt): WAL recovery forces page
// id live. A free-list chain page stays held (see allocator.adopt).
func (fs *FileStore) Adopt(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	fresh, err := fs.alloc.adopt(id)
	if err != nil || !fresh {
		return err
	}
	// A newly adopted page must read as zeroes, like a fresh allocation,
	// but its file slot may hold bytes from the page's previous life.
	clear(fs.slot)
	if _, err := fs.f.WriteAt(fs.slot, fs.offset(id)); err != nil {
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
	return fs.alloc.disown(id)
}

// Stats implements Store. Lock-free: see MemStore.Stats.
func (fs *FileStore) Stats() Stats { return fs.stats.snapshot() }

// PagesInUse implements Store.
func (fs *FileStore) PagesInUse() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.alloc.inUse()
}
