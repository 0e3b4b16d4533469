// Write-ahead logging. A WALStore wraps any Store with an append-only,
// checksummed log so that a group of page operations — a B+-tree split, a
// kinetic build, any multi-page rebalance — commits atomically: after a
// crash at ANY write or sync boundary, recovery yields a store in which
// every committed batch is fully present and no uncommitted write is
// visible.
//
// # Log layout
//
// The log is a LogFile: a 24-byte header followed by records.
//
//	header:  magic "MOBIDXL1" | version u32 | page size u32 |
//	         meta page id u32 | CRC-32C of the first 20 bytes
//	record:  body length u32 | body | CRC-32C(body) u32
//	body:    LSN u64 | type u8 | payload
//
// Record types and payloads:
//
//	alloc  (1): page id u32
//	write  (2): page id u32 | page image (PageSize bytes)
//	free   (3): page id u32
//	commit (4): batch sequence number u64 | record count u32
//
// LSNs are assigned sequentially over the store's lifetime and are strictly
// consecutive within a checkpoint cycle: the records appended since the log
// was last reset to its header. Every record carries its own CRC-32C, so a
// torn append is detected and truncated at recovery; a batch is durable
// exactly when its commit record (and everything before it) verifies.
//
// The log file may be longer than the cycle. A due checkpoint rewinds a
// log that can rewind (MemLog, FileLog) instead of truncating it, and the
// next cycle's commits overwrite the old records in place, in blocks the
// file already owns. Whatever lies past the cycle's end is a stale tail:
// the remains of a longer, earlier cycle, every record of it at or below
// the watermark. An explicit Checkpoint and Close truncate the file to its
// header, so a quiesced store's log is the header alone.
//
// # Commit protocol
//
// Begin opens a batch (reentrant: nested Begin/Commit pairs join the
// outermost batch). Inside a batch, Allocate delegates to the base store
// immediately (so page ids are assigned at once), while Write and Free are
// staged in memory. Commit encodes the batch's records — allocs in
// allocation order, then final page images, then frees — followed by a
// commit record, straight from the staged images into one pooled,
// fixed-size frame chunk (logChunk), and hands the chunk to the log in one
// Append each time it fills and once at the end: a commit is one append
// for any batch under 256 KiB of records and about one per 63 pages above
// that, never one per record, and the log size advances by the bytes
// appended. The bytes are those of a record-at-a-time log; a crash between
// two chunks leaves records without a commit record, which recovery
// discards. Commit then publishes the batch to the volatile state — page
// images enter the in-memory page table, frees reach the base allocator —
// and syncs the log with the latch released. Rollback undoes the batch's
// base allocations (in reverse order) and discards the staged state. A
// failed commit append truncates the log back to the batch's start and
// rolls the batch back, so the tail stays clean and the store usable.
//
// # Log sync
//
// No latch is held across a log fsync. The sync marks the store's I/O
// phase; Begin, Commit, checkpoints and other syncs wait on the idle cond
// until it ends, while readers keep taking the latch and see the published
// batch. So no record is appended or truncated while a sync is in flight,
// and a sync that ends has covered every batch published before it. A
// failed fsync poisons the store (ErrStoreFailed): the batch is already
// visible, and an fsync that failed once cannot be retried into a
// durability guarantee. A batch owner may defer the sync (DeferSync): its
// Commit returns once the batch is published, and SyncLog, called after
// the owner releases whatever latch its readers wait on, makes it durable.
// Every other Commit is durable when it returns.
//
// # Page images
//
// A page image exists once between the index and the log. Who allocates,
// who shares and who copies, for one page written through a Buffered pool
// over a WALStore over a FileStore with a FileLog:
//
//	bptree.put              allocates the image (PageSize bytes), encodes
//	                        into it and hands it to Write, which owns it
//	                        from then on (see Store.Write)
//	Buffered.Write          passes the *Page down and, once that write
//	                        succeeds, installs p.Data as the pool frame
//	[a wrapper]             forwards the *Page, or hands down a page of its
//	                        own (a tearing FaultStore), whose failed write
//	                        the pool never installs
//	WALStore.Write          keeps p.Data as the batch's staged image: no
//	                        copy
//	Commit                  copies the image once more, into the pooled
//	                        frame chunk behind its record header and before
//	                        its CRC, then moves the slice into the page
//	                        table
//	FileLog.Append          one pwrite per chunk; the chunk returns to the
//	                        pool
//	Buffered miss (fill)    installs the slice WALStore.View returns — the
//	                        staged or page-table image itself, else what
//	                        ViewBytes(base) gives (FileStore.Read's fresh
//	                        page, MemStore's own image) — as the frame: no
//	                        copy
//	Read (every layer)      a private copy the caller owns
//	Checkpoint              snapshots the page-table references, writes the
//	                        images to the base in page-id order with the
//	                        latch released, then drops the references;
//	                        frames the pool still holds stay valid
//
// Pool frames, staged images and page-table images are therefore the same
// slices, and what keeps a View a stable snapshot is one rule: nothing
// ever modifies an image in place. Write stages the slice its caller
// handed over, Commit and Checkpoint only move or drop references,
// recovery copies images out of its scan buffer, and Rollback makes the
// pool forget (Buffered.Rollback clears it) what the WAL discards.
//
// # Checkpoint
//
// Checkpoint bounds the log: it writes every page image in the table to the
// base store, syncs the base (persisting the base allocator — FileStore's
// meta page — together with the data), then records the applied watermark
// (LSN + batch sequence) in a reserved WAL-meta page of the base store,
// syncs again, and resets the log to its header. The watermark is written
// only after the allocator sync, so the durable base allocator is never
// behind the durable watermark.
//
// How the log is reset depends on who asks. A due checkpoint
// (CheckpointIfDue, the serving path) rewinds a log that offers Rewind: no
// I/O at all, the records stay on disk as a stale tail, and a commit of
// the next cycle costs a write and an fsync over blocks the file already
// owns rather than an append that must also make a new allocation
// durable. The rewind needs no sync, because the durable watermark already
// covers every record it leaves behind. Any other LogFile, an explicit
// Checkpoint and Close truncate the log to its header and sync the
// truncation.
//
// A checkpoint runs in two phases so that it never blocks a reader. Under
// the latch it snapshots the table's ids and images and marks the store's
// I/O phase; it then does all of the I/O above with the latch
// released, and takes the latch again only to advance the watermark, drop
// the table and clear the mark. Readers keep getting the table's images
// until the base holds them durably, and the snapshot is stable because
// no image is modified in place. The table itself cannot change
// meanwhile: only a commit changes it, and Begin waits for the mark to
// clear, so a batch that arrives during the I/O phase opens after it and
// its records land in the reset log. Nothing else writes the base while no
// batch is open.
//
// # Recovery
//
// OpenWALStore on a non-empty log verifies the header, reads the watermark
// from the WAL-meta page, scans the log verifying every record's CRC and
// LSN continuity, truncates the tail (records after the last commit
// record, after the first framing break, or from the first stale record
// on), and replays every committed batch with LSN beyond the watermark:
// allocs re-adopt their page ids, page images are staged into the table,
// frees are re-applied. Replay uses forcing semantics (Adopter) — an adopt
// of an already-live page or a disown of an already-free page is a no-op —
// so recovery is idempotent and tolerates a base store that crashed ahead
// of the watermark (e.g. mid-checkpoint). A corrupt WAL-meta page degrades to a full replay from
// LSN zero, which the same forcing semantics make safe.
//
// The scan ends at a stale tail. After a valid record, a record that
// decodes with an LSN below the next expected one belongs to a cycle the
// base already holds: the current cycle ended where it begins. A tail that
// starts inside an old record fails to decode, and the mid-log probe — is
// there a live record past the failure? — counts only records with an LSN
// at or past the expected one and past the watermark, so stale records,
// all at or below the watermark, read as a torn tail even when the cycle's
// very first record is the torn one. Recovery cuts whatever it does not
// keep with a physical truncate, never a rewind, and so does a commit
// whose append failed: the records of a batch that never committed must
// not survive past the end, where a later, shorter cycle that reuses their
// LSNs would expose them as live.
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
)

// Typed failures of the write-ahead log layer.
var (
	// ErrWALCorrupt marks a log whose header, record framing, or mid-log
	// record checksum does not verify. A torn *tail* is not corruption —
	// recovery truncates it silently, as a crash mid-append leaves exactly
	// that.
	ErrWALCorrupt = errors.New("pager: wal corrupt")
	// ErrWALReplay marks a recovery whose log disagrees with the base
	// store (an adopt or free that cannot apply): the pair was not
	// produced by this WAL protocol.
	ErrWALReplay = errors.New("pager: wal replay diverged")
	// ErrBatchOpen is returned by operations that require no open batch.
	ErrBatchOpen = errors.New("pager: batch open")
	// ErrNoBatch is returned by Commit/Rollback without a Begin.
	ErrNoBatch = errors.New("pager: no open batch")
	// ErrBatchAborted is returned by the outermost Commit after a nested
	// Rollback poisoned the batch.
	ErrBatchAborted = errors.New("pager: batch aborted")
	// ErrStoreFailed marks a WALStore whose volatile state diverged from
	// its log (a post-commit apply failed); the store refuses further
	// writes. Reopening the store replays the log and recovers.
	ErrStoreFailed = errors.New("pager: store failed, reopen to recover")
)

// LogFile is the append-only device a WALStore logs to. MemLog and FileLog
// implement it.
type LogFile interface {
	io.ReaderAt
	// Size returns the current length in bytes: where the next Append
	// writes.
	Size() (int64, error)
	// Append writes b at the current end.
	Append(b []byte) error
	// Truncate discards everything at and after offset size.
	Truncate(size int64) error
	// Sync makes every completed Append and Truncate durable.
	Sync() error
	// Close releases the device.
	Close() error
}

// logRewinder is a LogFile that can move its end back without discarding
// the bytes past it (MemLog, FileLog): the appends that follow overwrite
// them. A due checkpoint rewinds such a log to its header, so the next
// cycle's commits write into blocks the file already owns instead of
// allocating new ones; any other LogFile is truncated.
type logRewinder interface {
	Rewind(size int64) error
}

// MemLog is an in-memory LogFile, for tests and volatile stores. It models
// a file: buf is the device image, end the append point, and the bytes a
// Rewind left past end stay in the image (Bytes, ReadAt) until an Append
// overwrites them or a Truncate cuts them.
type MemLog struct {
	mu  sync.Mutex
	buf []byte
	end int
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// NewMemLogFrom returns an in-memory log holding a copy of the given
// image, appending at its end, for replaying captured (or deliberately
// corrupted) logs.
func NewMemLogFrom(img []byte) *MemLog {
	return &MemLog{buf: append([]byte(nil), img...), end: len(img)}
}

// Bytes returns a copy of the log's device image, including any stale
// bytes a Rewind left past the append point: what a reopen would find.
func (m *MemLog) Bytes() []byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]byte(nil), m.buf...)
}

// ReadAt implements io.ReaderAt over the device image.
func (m *MemLog) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if off < 0 || off > int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size implements LogFile: the append point.
func (m *MemLog) Size() (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(m.end), nil
}

// Append implements LogFile, overwriting stale bytes past the append point.
func (m *MemLog) Append(b []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.end+len(b) > len(m.buf) {
		m.buf = append(m.buf[:m.end], b...)
	} else {
		copy(m.buf[m.end:], b)
	}
	m.end += len(b)
	return nil
}

// Truncate implements LogFile: it cuts the image, stale bytes included.
func (m *MemLog) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < 0 || size > int64(m.end) {
		return fmt.Errorf("pager: memlog truncate to %d of %d", size, m.end)
	}
	m.buf = m.buf[:size]
	m.end = int(size)
	return nil
}

// Rewind moves the append point back to size and keeps the image.
func (m *MemLog) Rewind(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < 0 || size > int64(m.end) {
		return fmt.Errorf("pager: memlog rewind to %d of %d", size, m.end)
	}
	m.end = int(size)
	return nil
}

// Sync implements LogFile (memory is always "durable").
func (m *MemLog) Sync() error { return nil }

// Close implements LogFile.
func (m *MemLog) Close() error { return nil }

// FileLog is a LogFile backed by a File. size is the append point; after a
// Rewind the file holds stale bytes past it, which the appends that follow
// overwrite and a Truncate cuts.
type FileLog struct {
	mu   sync.Mutex
	f    File
	size int64
}

// OpenFileLog opens (creating if absent, never truncating) the log file at
// path.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open log %s: %w", path, err)
	}
	l, err := OpenFileLogOn(f)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("pager: open log %s: %w", path, err), f.Close())
	}
	return l, nil
}

// OpenFileLogOn returns the log f holds, appending at its end.
func OpenFileLogOn(f File) (*FileLog, error) {
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("pager: log size: %w", err)
	}
	return &FileLog{f: f, size: size}, nil
}

// ReadAt implements io.ReaderAt over the whole file.
func (l *FileLog) ReadAt(p []byte, off int64) (int, error) { return l.f.ReadAt(p, off) }

// Size implements LogFile: the append point.
func (l *FileLog) Size() (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size, nil
}

// Append implements LogFile.
func (l *FileLog) Append(b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.WriteAt(b, l.size); err != nil {
		return fmt.Errorf("pager: log append: %w", err)
	}
	l.size += int64(len(b))
	return nil
}

// Truncate implements LogFile.
func (l *FileLog) Truncate(size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Truncate(size); err != nil {
		return fmt.Errorf("pager: log truncate: %w", err)
	}
	l.size = size
	return nil
}

// Rewind moves the append point back to size. It does no I/O: the file
// keeps its length and its bytes.
func (l *FileLog) Rewind(size int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if size < 0 || size > l.size {
		return fmt.Errorf("pager: log rewind to %d of %d", size, l.size)
	}
	l.size = size
	return nil
}

// Sync implements LogFile.
func (l *FileLog) Sync() error { return l.f.Sync() }

// Close implements LogFile.
func (l *FileLog) Close() error { return l.f.Close() }

// Syncer is implemented by stores with an explicit durability point
// (FileStore; wrappers forward it). A store without Sync is treated as
// always-durable.
type Syncer interface{ Sync() error }

// Adopter is implemented by stores whose allocator state WAL recovery can
// force: Adopt makes a specific page id live, Disown returns it to the
// free list. Both are no-ops when the page is already in the target state,
// which makes log replay idempotent. MemStore and FileStore implement it;
// FaultStore forwards it. Buffered does not: it sits above a WALStore,
// never below one.
type Adopter interface {
	// Adopt makes id live. The page's contents are unspecified until
	// written.
	Adopt(id PageID) error
	// Disown makes id free.
	Disown(id PageID) error
}

// Batcher is implemented by stores that group operations into atomic
// batches. See RunBatch.
type Batcher interface {
	Begin() error
	Commit() error
	Rollback() error
}

// RunBatch runs fn inside an atomic batch when the store supports one
// (WALStore), so a multi-page mutation — a tree split, a bulk load —
// either commits whole or leaves no trace. On stores without batching it
// just runs fn. When fn fails the batch is rolled back and fn's error is
// returned (joined with the rollback's own error, if any).
func RunBatch(s Store, fn func() error) error {
	b, ok := s.(Batcher)
	if !ok {
		return fn()
	}
	if err := b.Begin(); err != nil {
		return err
	}
	if err := fn(); err != nil {
		return errors.Join(err, b.Rollback())
	}
	return b.Commit()
}

// Log and WAL-meta encoding.
const (
	walMagic     = "MOBIDXL1"
	walVer       = 1
	walHeaderLen = 24

	walMetaMagic = "MOBIDXWM"
	walMetaLen   = 32 // fixed prefix incl. CRC; rest of the page is unused

	recAlloc  = 1
	recWrite  = 2
	recFree   = 3
	recCommit = 4

	// recBodyMin is the smallest record body: LSN + type + a 4-byte id.
	recBodyMin = 8 + 1 + 4
)

// walRecord is one decoded log record.
type walRecord struct {
	lsn     uint64
	typ     byte
	page    PageID // alloc, write, free
	data    []byte // write: the page image (aliases the scan buffer)
	seq     uint64 // commit
	count   int    // commit: records in the batch before this one
	encoded int    // total encoded length in the log
}

// walRecordOverhead is what a record adds to its payload: length prefix,
// LSN, type byte and CRC trailer.
const walRecordOverhead = 4 + 8 + 1 + 4

// appendWALRecord encodes one record onto buf. It is the one encoder: the
// payload is head followed by tail, so a write record is framed from the
// page id and the staged image where they lie, with no id+image payload
// assembled first.
func appendWALRecord(buf []byte, lsn uint64, typ byte, head []byte, tail ...byte) []byte {
	body := 9 + len(head) + len(tail)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(body))
	binary.LittleEndian.PutUint64(hdr[4:12], lsn)
	buf = append(buf, hdr[:]...)
	buf = append(buf, typ)
	buf = append(buf, head...)
	buf = append(buf, tail...)
	sum := crc32.Checksum(buf[len(buf)-body:], castagnoli)
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], sum)
	return append(buf, tr[:]...)
}

// logChunkSize is the size of a commit's frame chunk: a batch's records
// are encoded into one and handed to the log in a single Append whenever
// it fills and once at the end, so a 106-page commit costs two appends.
const logChunkSize = 256 << 10

// logChunk is a pooled frame chunk. The pool is package-wide and the
// chunks are of one fixed size, so what commits keep alive between them
// is bounded by the number of stores committing at once — not by the
// number of stores, and not by the largest batch any of them ever wrote.
type logChunk struct {
	B []byte
}

var logChunkPool = sync.Pool{New: func() any { return &logChunk{B: make([]byte, 0, logChunkSize)} }}

// getLogChunk returns an empty chunk from the pool; Release it on every
// path (the pagebufrelease pass pairs the two).
func getLogChunk() *logChunk { return logChunkPool.Get().(*logChunk) }

// Release returns the chunk to the pool.
func (c *logChunk) Release() { logChunkPool.Put(c) }

// decodeWALRecord parses the record at the start of b for a store with the
// given page size. It returns the record and the number of bytes consumed.
// Errors distinguish a short/torn record (io.ErrUnexpectedEOF) from a
// checksum or structural failure (ErrWALCorrupt).
func decodeWALRecord(b []byte, pageSize int) (walRecord, error) {
	var r walRecord
	if len(b) < 4 {
		return r, io.ErrUnexpectedEOF
	}
	body := int(binary.LittleEndian.Uint32(b[0:4]))
	if body < recBodyMin || body > 9+4+pageSize {
		return r, fmt.Errorf("%w: record body length %d", ErrWALCorrupt, body)
	}
	total := 4 + body + 4
	if len(b) < total {
		return r, io.ErrUnexpectedEOF
	}
	// The frame is plausible from here on: even if validation below fails,
	// r.encoded lets the recovery scan distinguish a corrupt record with
	// valid records after it (mid-log damage) from a torn tail.
	r.encoded = total
	want := binary.LittleEndian.Uint32(b[4+body:])
	if got := crc32.Checksum(b[4:4+body], castagnoli); got != want {
		return r, fmt.Errorf("%w: record checksum %08x, want %08x", ErrWALCorrupt, got, want)
	}
	r.lsn = binary.LittleEndian.Uint64(b[4:12])
	r.typ = b[12]
	payload := b[13 : 4+body]
	switch r.typ {
	case recAlloc, recFree:
		if len(payload) != 4 {
			return r, fmt.Errorf("%w: alloc/free payload %d bytes", ErrWALCorrupt, len(payload))
		}
		r.page = PageID(binary.LittleEndian.Uint32(payload))
		if r.page == 0 {
			return r, fmt.Errorf("%w: record for page 0", ErrWALCorrupt)
		}
	case recWrite:
		if len(payload) != 4+pageSize {
			return r, fmt.Errorf("%w: write payload %d bytes, want %d", ErrWALCorrupt, len(payload), 4+pageSize)
		}
		r.page = PageID(binary.LittleEndian.Uint32(payload))
		if r.page == 0 {
			return r, fmt.Errorf("%w: record for page 0", ErrWALCorrupt)
		}
		r.data = payload[4:]
	case recCommit:
		if len(payload) != 12 {
			return r, fmt.Errorf("%w: commit payload %d bytes", ErrWALCorrupt, len(payload))
		}
		r.seq = binary.LittleEndian.Uint64(payload[0:8])
		r.count = int(binary.LittleEndian.Uint32(payload[8:12]))
	default:
		return r, fmt.Errorf("%w: record type %d", ErrWALCorrupt, r.typ)
	}
	return r, nil
}

// WALConfig configures a WALStore. It has no fields: a WALStore syncs the
// log for every commit and checkpoints only when asked (Checkpoint,
// CheckpointIfDue, Close). Bounding the log is the writer's job, so that
// the checkpoint runs outside whatever latch the writer serves readers
// under.
type WALConfig struct{}

// walBatch is the staged state of one open batch.
type walBatch struct {
	depth      int
	aborted    bool
	allocs     []PageID // base allocations, in order
	allocSet   map[PageID]struct{}
	writes     map[PageID][]byte
	writeOrder []PageID // first-write order, for stable logging
	frees      []PageID
	freeSet    map[PageID]struct{}
	deferSync  bool // Commit publishes without syncing the log (DeferSync)
}

// WALStore wraps a base Store with a write-ahead log providing atomic
// multi-page batches (Begin/Write/Commit), crash recovery (OpenWALStore),
// and log-bounding checkpoints. It implements Store: operations outside an
// explicit batch run as batches of one. Reads see committed state (plus
// the open batch's own staged writes); uncommitted writes are never
// visible to the base store.
//
// Batches are a single-writer protocol: Begin/Commit/Rollback pairs must
// come from one goroutine at a time. Individual operations are safe for
// concurrent use. Readers that must not observe the open batch's staged
// state are excluded for the batch's span by the caller, as the shard's
// serving latch does.
type WALStore struct {
	mu       sync.Mutex
	idle     sync.Cond // on mu: broadcast when an I/O phase ends
	base     Store
	log      LogFile
	pageSize int
	metaPage PageID

	// ioPhase marks I/O in flight, a checkpoint's or a log sync's: the
	// latch is free for readers, while batches, checkpoints and syncs wait
	// on idle (waitIOLocked).
	ioPhase bool
	// unsynced marks a published batch whose log records are not yet
	// known durable.
	unsynced bool

	nextLSN    uint64
	appliedLSN uint64
	seq        uint64 // last committed batch sequence number
	logSize    int64  // the log's append point
	// stale marks a log file that holds bytes past logSize: a due
	// checkpoint rewound it. An explicit checkpoint truncates them.
	stale bool

	table map[PageID][]byte // committed page images not yet checkpointed
	batch *walBatch
	stats counters
	fail  error // poisoned: volatile state diverged from the log
	done  bool  // closed
}

// OpenWALStore opens a write-ahead-logged store over base and log. An
// empty log initializes a fresh WAL (reserving one base page for the
// watermark); a non-empty log is verified, its torn tail truncated, and
// every committed batch beyond the watermark replayed. The base must be
// the same store (or a reopening of it) the log was written against.
func OpenWALStore(base Store, log LogFile, cfg WALConfig) (*WALStore, error) {
	if base.PageSize() < walMetaLen {
		return nil, fmt.Errorf("pager: page size %d too small for wal meta", base.PageSize())
	}
	size, err := log.Size()
	if err != nil {
		return nil, fmt.Errorf("pager: wal open: %w", err)
	}
	w := &WALStore{
		base:     base,
		log:      log,
		pageSize: base.PageSize(),
		nextLSN:  1,
		table:    make(map[PageID][]byte),
	}
	w.idle.L = &w.mu
	if size > 0 && size < walHeaderLen {
		// A crash tore the very first header append: nothing was ever
		// logged, so starting fresh loses nothing.
		if err := log.Truncate(0); err != nil {
			return nil, fmt.Errorf("pager: wal open: %w", err)
		}
		size = 0
	}
	if size == 0 {
		if err := w.initialize(); err != nil {
			return nil, err
		}
	} else if err := w.recover(size); err != nil {
		return nil, err
	}
	return w, nil
}

// initialize sets up a fresh WAL: meta page first (durable in the base),
// then the log header.
func (w *WALStore) initialize() error {
	p, err := w.base.Allocate()
	if err != nil {
		return fmt.Errorf("pager: wal init: %w", err)
	}
	w.metaPage = p.ID
	if err := w.writeMetaPage(w.appliedLSN, w.seq); err != nil {
		return err
	}
	if err := w.baseSync(); err != nil {
		return fmt.Errorf("pager: wal init: %w", err)
	}
	hdr := make([]byte, walHeaderLen)
	copy(hdr[0:8], walMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], walVer)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(w.pageSize))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(w.metaPage))
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.Checksum(hdr[:20], castagnoli))
	if err := w.log.Append(hdr); err != nil {
		return fmt.Errorf("pager: wal init: %w", err)
	}
	if err := w.log.Sync(); err != nil {
		return fmt.Errorf("pager: wal init: %w", err)
	}
	w.logSize = walHeaderLen
	return nil
}

// writeMetaPage stores the watermark (applied LSN + sequence) in the
// reserved base page.
func (w *WALStore) writeMetaPage(lsn, seq uint64) error {
	data := make([]byte, w.pageSize)
	copy(data[0:8], walMetaMagic)
	binary.LittleEndian.PutUint32(data[8:12], walVer)
	binary.LittleEndian.PutUint64(data[12:20], lsn)
	binary.LittleEndian.PutUint64(data[20:28], seq)
	binary.LittleEndian.PutUint32(data[28:32], crc32.Checksum(data[:28], castagnoli))
	if err := w.base.Write(&Page{ID: w.metaPage, Data: data}); err != nil {
		return fmt.Errorf("pager: wal meta: %w", err)
	}
	return nil
}

// baseSync flushes the base store if it has a durability point.
func (w *WALStore) baseSync() error {
	if s, ok := w.base.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// recover rebuilds the store from a non-empty log: verify header, read
// watermark, scan + truncate torn tail, replay committed batches.
func (w *WALStore) recover(size int64) error {
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(io.NewSectionReader(w.log, 0, walHeaderLen), hdr); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrWALCorrupt, err)
	}
	if string(hdr[0:8]) != walMagic {
		return fmt.Errorf("%w: bad magic %q", ErrWALCorrupt, hdr[0:8])
	}
	if binary.LittleEndian.Uint32(hdr[20:24]) != crc32.Checksum(hdr[:20], castagnoli) {
		return fmt.Errorf("%w: header checksum", ErrWALCorrupt)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != walVer {
		return fmt.Errorf("%w: unsupported version %d", ErrWALCorrupt, v)
	}
	if ps := int(binary.LittleEndian.Uint32(hdr[12:16])); ps != w.pageSize {
		return fmt.Errorf("%w: log page size %d, store %d", ErrWALCorrupt, ps, w.pageSize)
	}
	w.metaPage = PageID(binary.LittleEndian.Uint32(hdr[16:20]))
	if w.metaPage == 0 {
		return fmt.Errorf("%w: meta page id 0", ErrWALCorrupt)
	}

	// The watermark. A corrupt or unreadable meta page (a crash can tear
	// its write mid-checkpoint) degrades to replay-from-zero, which the
	// forcing replay semantics make safe; the next checkpoint rewrites it.
	degraded := true
	mp, werr := w.base.Read(w.metaPage)
	if werr == nil {
		d := mp.Data
		if len(d) >= walMetaLen && string(d[0:8]) == walMetaMagic &&
			binary.LittleEndian.Uint32(d[28:32]) == crc32.Checksum(d[:28], castagnoli) {
			w.appliedLSN = binary.LittleEndian.Uint64(d[12:20])
			w.seq = binary.LittleEndian.Uint64(d[20:28])
			degraded = false
		} else {
			werr = fmt.Errorf("watermark page %d fails its check", w.metaPage)
		}
	}

	// Scan: read the whole log, validate records, find the last committed
	// boundary.
	buf := make([]byte, size-walHeaderLen)
	if _, err := io.ReadFull(io.NewSectionReader(w.log, walHeaderLen, size-walHeaderLen), buf); err != nil {
		return fmt.Errorf("%w: short log read: %v", ErrWALCorrupt, err)
	}
	type batch struct {
		recs      []walRecord
		commitLSN uint64
		seq       uint64
	}
	var batches []batch
	var pending []walRecord
	lastGood := int64(walHeaderLen) // end offset of the last committed batch
	off := 0
	var expectLSN uint64
	for off < len(buf) {
		rec, err := decodeWALRecord(buf[off:], w.pageSize)
		if err != nil {
			// A record that fails to decode is either the torn tail of a
			// crashed append — everything after it is garbage or a stale
			// tail — or corruption in the middle of the log. Distinguish
			// them by probing the remainder for a live record: appends are
			// sequential, so valid data past the failure means the failure
			// is corruption (a bit flip, possibly in the length field
			// itself), and silently truncating there would drop committed
			// batches. The byte-wise search can in principle mistake
			// record-shaped page content inside a torn write record for a
			// live record; that errs toward refusing recovery, never toward
			// losing data.
			if probeLiveRecord(buf[off+1:], w.pageSize, expectLSN, w.appliedLSN) {
				return fmt.Errorf("%w: record at offset %d invalid mid-log", ErrWALCorrupt, walHeaderLen+off)
			}
			break
		}
		if expectLSN != 0 && rec.lsn < expectLSN {
			// A stale tail: a due checkpoint rewound the log, and this
			// record belongs to a cycle the base already holds.
			break
		}
		if expectLSN != 0 && rec.lsn != expectLSN {
			return fmt.Errorf("%w: LSN %d at offset %d, want %d", ErrWALCorrupt, rec.lsn, walHeaderLen+off, expectLSN)
		}
		if expectLSN == 0 {
			if !degraded && rec.lsn > w.appliedLSN+1 {
				return fmt.Errorf("%w: log starts at LSN %d past watermark %d", ErrWALCorrupt, rec.lsn, w.appliedLSN)
			}
		}
		expectLSN = rec.lsn + 1
		off += rec.encoded
		if rec.typ == recCommit {
			if rec.count != len(pending) {
				return fmt.Errorf("%w: commit LSN %d counts %d records, found %d", ErrWALCorrupt, rec.lsn, rec.count, len(pending))
			}
			batches = append(batches, batch{recs: pending, commitLSN: rec.lsn, seq: rec.seq})
			pending = nil
			lastGood = walHeaderLen + int64(off)
		} else {
			pending = append(pending, rec)
		}
	}
	if degraded && len(batches) == 0 {
		return fmt.Errorf("%w: watermark unreadable and no committed batch in log: %w", ErrWALCorrupt, werr)
	}
	// Discard the torn, uncommitted or stale tail. This is a physical cut,
	// never a rewind: a crashed batch's records left past the append point
	// could reuse the LSNs of the commits that follow, and a later, shorter
	// cycle would expose them to a recovery as live.
	if lastGood < size {
		if err := w.log.Truncate(lastGood); err != nil {
			return fmt.Errorf("pager: wal recover: %w", err)
		}
		if err := w.log.Sync(); err != nil {
			return fmt.Errorf("pager: wal recover: %w", err)
		}
	}
	w.logSize = lastGood
	w.nextLSN = w.appliedLSN + 1

	// Replay committed batches beyond the watermark.
	adopter, _ := w.base.(Adopter)
	if degraded && adopter != nil {
		// The meta page's own allocation predates every log record (it
		// happens at initialize, before the header is written), so a
		// degraded replay over a fresh base must adopt it explicitly.
		if err := w.replayAdopt(adopter, w.metaPage); err != nil {
			return err
		}
	}
	for _, b := range batches {
		if b.commitLSN > w.nextLSN-1 {
			w.nextLSN = b.commitLSN + 1
		}
		if b.commitLSN <= w.appliedLSN {
			continue // fully applied and synced before the last checkpoint
		}
		for _, rec := range b.recs {
			switch rec.typ {
			case recAlloc:
				if err := w.replayAdopt(adopter, rec.page); err != nil {
					return err
				}
			case recWrite:
				img := make([]byte, len(rec.data))
				copy(img, rec.data)
				w.table[rec.page] = img
			case recFree:
				delete(w.table, rec.page)
				if err := w.replayDisown(adopter, rec.page); err != nil {
					return err
				}
			}
		}
		if b.seq > w.seq {
			w.seq = b.seq
		}
	}
	return nil
}

// probeLiveRecord reports whether rest — the log past a record that failed
// to decode — holds a record that decodes at an LSN a live log could
// reach there: at or past expect, past the watermark, and at most one LSN
// per minimal record beyond both. A stale tail's records are at or below
// the watermark, so a torn record over a stale tail reads as a torn tail.
// The LSN window is checked before the checksum, so probing a stale tail
// of megabytes stays a linear scan.
func probeLiveRecord(rest []byte, pageSize int, expect, applied uint64) bool {
	lo := max(expect, applied+1)
	hi := lo + uint64(len(rest)/walRecordOverhead+1)
	for i := 0; i+walRecordOverhead <= len(rest); i++ {
		if lsn := binary.LittleEndian.Uint64(rest[i+4:]); lsn < lo || lsn > hi {
			continue
		}
		if _, err := decodeWALRecord(rest[i:], pageSize); err == nil {
			return true
		}
	}
	return false
}

// replayAdopt forces page id live in the base during recovery.
func (w *WALStore) replayAdopt(a Adopter, id PageID) error {
	if a != nil {
		if err := a.Adopt(id); err != nil {
			return fmt.Errorf("%w: adopt page %d: %w", ErrWALReplay, id, err)
		}
		return nil
	}
	// Fallback for bases without Adopter: re-executing the logged
	// allocation sequence from the watermark state must yield the same
	// ids (MemStore and FileStore allocators are deterministic).
	p, err := w.base.Allocate()
	if err != nil {
		return fmt.Errorf("%w: alloc page %d: %w", ErrWALReplay, id, err)
	}
	if p.ID != id {
		return fmt.Errorf("%w: replay allocated page %d, log says %d", ErrWALReplay, p.ID, id)
	}
	return nil
}

// replayDisown forces page id free in the base during recovery.
func (w *WALStore) replayDisown(a Adopter, id PageID) error {
	if a != nil {
		if err := a.Disown(id); err != nil {
			return fmt.Errorf("%w: disown page %d: %w", ErrWALReplay, id, err)
		}
		return nil
	}
	if err := w.base.Free(id); err != nil && !errors.Is(err, ErrDoubleFree) {
		return fmt.Errorf("%w: free page %d: %w", ErrWALReplay, id, err)
	}
	return nil
}

// MetaPage returns the id of the base page reserved for the WAL watermark.
func (w *WALStore) MetaPage() PageID { return w.metaPage }

// CommittedSeq returns the sequence number of the last committed batch
// (batches are numbered from 1); it survives crash recovery, so callers
// can map a recovered store back to a point in their own history.
func (w *WALStore) CommittedSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// AppliedLSN returns the checkpoint watermark: every log record at or
// below it is applied to the base store and durable.
func (w *WALStore) AppliedLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appliedLSN
}

// LogSize returns the length of the current checkpoint cycle in bytes —
// the header and the records since the last checkpoint — which is where
// the next commit appends. After a due checkpoint the log file can be
// longer (a stale tail).
func (w *WALStore) LogSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.logSize
}

// PendingPages returns the number of committed page images waiting for the
// next checkpoint.
func (w *WALStore) PendingPages() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.table)
}

func (w *WALStore) ok() error {
	if w.done {
		return ErrStoreClosed
	}
	return w.fail
}

// poison marks the store failed: the in-memory state no longer matches the
// log, so only a reopen (which replays the log) is safe.
func (w *WALStore) poison(cause error) error {
	err := fmt.Errorf("%w: %w", ErrStoreFailed, cause)
	w.fail = err
	return err
}

// waitIOLocked waits until no checkpoint I/O or log sync is in flight
// (caller holds mu; the wait releases it).
func (w *WALStore) waitIOLocked() {
	for w.ioPhase {
		w.idle.Wait()
	}
}

// Begin implements Batcher: it opens a batch (or joins the open one —
// nested Begin/Commit pairs commit only at the outermost level). A Begin
// that arrives while a checkpoint writes the base or the log syncs waits
// for it to finish.
func (w *WALStore) Begin() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waitIOLocked()
	if err := w.ok(); err != nil {
		return err
	}
	if w.batch != nil {
		w.batch.depth++
		return nil
	}
	w.batch = &walBatch{
		depth:    1,
		allocSet: make(map[PageID]struct{}),
		writes:   make(map[PageID][]byte),
		freeSet:  make(map[PageID]struct{}),
	}
	return nil
}

// Rollback implements Batcher: it discards the batch's staged writes and
// frees, and returns its base allocations. A nested Rollback poisons the
// enclosing batch (its outermost Commit fails with ErrBatchAborted).
func (w *WALStore) Rollback() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.batch == nil {
		return ErrNoBatch
	}
	w.batch.aborted = true
	w.batch.depth--
	if w.batch.depth > 0 {
		return nil
	}
	return w.rollbackLocked()
}

// rollbackLocked physically undoes the open batch (caller holds mu).
func (w *WALStore) rollbackLocked() error {
	b := w.batch
	w.batch = nil
	return w.rollbackBatchLocked(b)
}

// rollbackBatchLocked returns a detached batch's base allocations (caller
// holds mu). Reverse order restores the base free list exactly, keeping
// the allocator's future id sequence identical to a run in which this
// batch never existed (which is how the log will read).
func (w *WALStore) rollbackBatchLocked(b *walBatch) error {
	for i := len(b.allocs) - 1; i >= 0; i-- {
		if err := w.base.Free(b.allocs[i]); err != nil {
			return w.poison(fmt.Errorf("rollback free page %d: %w", b.allocs[i], err))
		}
	}
	return nil
}

// Commit implements Batcher: the outermost Commit appends the batch's
// records and a commit record to the log and publishes the batch — page
// images into the committed table, frees into the base allocator — under
// the latch, once no sync is in flight, then syncs the log with the latch
// released (SyncLog). The batch is durable once Commit returns nil; an
// error from the append means it was rolled back, one from the sync that
// the store is poisoned. A batch marked with DeferSync returns once
// published, and its owner calls SyncLog. Commit never checkpoints (see
// CheckpointIfDue).
func (w *WALStore) Commit() error {
	w.mu.Lock()
	deferred, err := w.commitLocked()
	w.mu.Unlock()
	if err != nil || deferred {
		return err
	}
	return w.SyncLog()
}

// commitLocked resolves the batch protocol (nesting, aborts) and commits
// the outermost batch, reporting whether its owner deferred the sync. A
// batch open while a sync started (begun before it, or after a deferred
// commit) waits for that sync to end before appending: the sync marks the
// log synced when it ends, and must not cover records it never saw.
func (w *WALStore) commitLocked() (deferred bool, err error) {
	w.waitIOLocked()
	if w.batch == nil {
		return false, ErrNoBatch
	}
	if w.batch.depth > 1 {
		w.batch.depth--
		return false, nil
	}
	if w.batch.aborted {
		if err := w.rollbackLocked(); err != nil {
			return false, err
		}
		return false, ErrBatchAborted
	}
	if err := w.ok(); err != nil {
		return false, err
	}
	b := w.batch
	w.batch = nil
	return b.deferSync, w.commitBatchLocked(b)
}

// DeferSync marks the open batch so that its outermost Commit returns once
// the batch is published, before the log is synced. The batch owner then
// calls SyncLog, and acknowledges the batch only after SyncLog returns
// nil. Outside a batch it does nothing: a batch of one syncs in Commit.
func (w *WALStore) DeferSync() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.batch != nil {
		w.batch.deferSync = true
	}
}

// SyncLog makes every published batch durable: it syncs the log with the
// latch released, and returns at once when the log (or a checkpoint)
// already made them durable. A failed sync poisons the store.
func (w *WALStore) SyncLog() error {
	w.mu.Lock()
	w.waitIOLocked()
	if !w.unsynced {
		w.mu.Unlock()
		return nil
	}
	if err := w.ok(); err != nil {
		w.mu.Unlock()
		return err
	}
	w.ioPhase = true
	w.mu.Unlock()
	return w.finishSync(w.log.Sync())
}

// finishSync ends a log sync SyncLog started, poisoning the store when the
// fsync failed.
func (w *WALStore) finishSync(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ioPhase = false
	w.idle.Broadcast()
	if err != nil {
		return w.poison(fmt.Errorf("log sync: %w", err))
	}
	w.unsynced = false
	return nil
}

// commitBatchLocked appends a detached batch's records and commit record
// to the log and publishes the batch to the volatile state, leaving the
// log to be synced.
func (w *WALStore) commitBatchLocked(b *walBatch) error {
	if len(b.allocs) == 0 && len(b.writes) == 0 && len(b.frees) == 0 {
		return nil
	}
	startLSN := w.nextLSN
	startSize := w.logSize
	appended, appendErr := w.appendBatchLocked(b)
	if appendErr != nil {
		// The log tail now holds a half-written batch; cut it back so the
		// next commit appends onto a clean boundary, then undo the batch.
		w.nextLSN = startLSN
		if terr := w.log.Truncate(startSize); terr != nil {
			return w.poison(fmt.Errorf("commit append: %w; truncate: %w", appendErr, terr))
		}
		w.stale = false
		if rerr := w.rollbackBatchLocked(b); rerr != nil {
			return errors.Join(fmt.Errorf("pager: wal commit: %w", appendErr), rerr)
		}
		return fmt.Errorf("pager: wal commit: %w", appendErr)
	}
	w.logSize = startSize + appended
	w.unsynced = true

	// The batch is in the log; publish it to the volatile state. The log
	// is now the source of truth — an apply failure poisons the store.
	for _, id := range b.writeOrder {
		if _, dead := b.freeSet[id]; dead {
			continue
		}
		w.table[id] = b.writes[id]
	}
	for _, id := range b.frees {
		delete(w.table, id)
		if err := w.base.Free(id); err != nil {
			return w.poison(fmt.Errorf("commit apply free page %d: %w", id, err))
		}
	}
	w.seq++
	return nil
}

// appendBatchLocked encodes the batch's records — allocations first (in
// allocation order: replay re-executes them against the base allocator),
// then final page images in first-write order, then frees, then the
// commit record — straight from the staged images into one pooled frame
// chunk, and appends the chunk to the log each time it fills and once at
// the end. Writes to pages freed later in the same batch are dead and not
// logged. It advances nextLSN per record and returns the bytes appended; a
// crash (or an error) between two chunks leaves records without a commit
// record, which recovery discards and the caller truncates.
func (w *WALStore) appendBatchLocked(b *walBatch) (appended int64, err error) {
	chunk := getLogChunk()
	defer chunk.Release()
	buf := chunk.B[:0]
	// emit frames one record, first emptying the chunk into the log when
	// the record would not fit behind what is there.
	emit := func(typ byte, head, tail []byte) error {
		if need := walRecordOverhead + len(head) + len(tail); len(buf) > 0 && len(buf)+need > cap(buf) {
			if err := w.log.Append(buf); err != nil {
				return err
			}
			appended += int64(len(buf))
			buf = buf[:0]
		}
		buf = appendWALRecord(buf, w.nextLSN, typ, head, tail...)
		w.nextLSN++
		return nil
	}
	first := w.nextLSN
	var idb [4]byte
	for _, id := range b.allocs {
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		if err := emit(recAlloc, idb[:], nil); err != nil {
			return appended, err
		}
	}
	for _, id := range b.writeOrder {
		if _, dead := b.freeSet[id]; dead {
			continue
		}
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		if err := emit(recWrite, idb[:], b.writes[id]); err != nil {
			return appended, err
		}
	}
	for _, id := range b.frees {
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		if err := emit(recFree, idb[:], nil); err != nil {
			return appended, err
		}
	}
	var cp [12]byte
	binary.LittleEndian.PutUint64(cp[0:8], w.seq+1)
	binary.LittleEndian.PutUint32(cp[8:12], uint32(w.nextLSN-first))
	if err := emit(recCommit, cp[:], nil); err != nil {
		return appended, err
	}
	if err := w.log.Append(buf); err != nil {
		return appended, err
	}
	return appended + int64(len(buf)), nil
}

// Checkpoint applies every committed page image to the base store, makes
// the base durable, advances the watermark, and truncates the log file to
// its header, stale tail included. It fails with ErrBatchOpen while a
// batch is open. Checkpoint is idempotent and safe to retry after an
// error. The I/O runs with the latch released: reads are served from the
// committed table throughout, and a Begin waits until the checkpoint is
// done.
func (w *WALStore) Checkpoint() error { return w.checkpoint(0) }

// CheckpointIfDue checkpoints when the log has reached limit bytes and no
// batch is open, and does nothing when limit is zero or negative. A writer
// calls it after each commit to keep the log bounded. Unlike Checkpoint it
// rewinds a log that can rewind instead of truncating it, so the next
// cycle's commits overwrite the file's own blocks.
func (w *WALStore) CheckpointIfDue(limit int64) error {
	if limit <= 0 {
		return nil
	}
	return w.checkpoint(limit)
}

// checkpoint runs a checkpoint: unconditionally when limit is zero, else
// only once the log reaches limit bytes with no batch open.
func (w *WALStore) checkpoint(limit int64) error {
	w.mu.Lock()
	for {
		w.waitIOLocked()
		if err := w.ok(); err != nil {
			w.mu.Unlock()
			return err
		}
		if limit > 0 && (w.batch != nil || w.logSize < limit) {
			w.mu.Unlock()
			return nil
		}
		if w.batch != nil {
			w.mu.Unlock()
			return fmt.Errorf("%w: checkpoint requires a quiescent store", ErrBatchOpen)
		}
		if !w.unsynced {
			break
		}
		// A deferred batch's log records are synced first: the base must
		// never hold a batch that a crash could still take out of the log.
		w.mu.Unlock()
		if err := w.SyncLog(); err != nil {
			return err
		}
		w.mu.Lock()
	}
	cp := w.planCheckpointLocked(limit > 0)
	w.mu.Unlock()
	return w.runCheckpoint(cp)
}

// checkpointPlan is what a checkpoint's I/O phase works from: the table's
// images in page-id order, the watermark they bring the base to, and
// whether the log is rewound (a due checkpoint) or truncated.
type checkpointPlan struct {
	ids      []PageID
	imgs     [][]byte
	lsn, seq uint64
	rewind   bool
}

// planCheckpointLocked snapshots the committed table and marks the I/O
// phase (caller holds mu, no batch open, no I/O in flight). It returns
// nil when the base already holds everything the log does and the log is
// its header alone, or a rewind would leave it as it is.
func (w *WALStore) planCheckpointLocked(rewind bool) *checkpointPlan {
	if len(w.table) == 0 && w.logSize <= walHeaderLen && w.appliedLSN == w.nextLSN-1 && (rewind || !w.stale) {
		return nil
	}
	// Page-id order: the base sees the same write sequence on every run (a
	// crash sweep's kill point k names the same page each time) and
	// ascending file offsets.
	cp := &checkpointPlan{ids: make([]PageID, 0, len(w.table)), lsn: w.nextLSN - 1, seq: w.seq, rewind: rewind}
	for id := range w.table {
		cp.ids = append(cp.ids, id)
	}
	slices.Sort(cp.ids)
	cp.imgs = make([][]byte, len(cp.ids))
	for i, id := range cp.ids {
		cp.imgs[i] = w.table[id]
	}
	w.ioPhase = true
	return cp
}

// runCheckpoint is a checkpoint's I/O phase, run without the latch, and
// its finish under it. A nil plan is a no-op.
func (w *WALStore) runCheckpoint(cp *checkpointPlan) error {
	if cp == nil {
		return nil
	}
	err := w.applyCheckpoint(cp)
	durable := err == nil
	rewound := false
	if durable {
		rewound, err = w.resetLog(cp.rewind)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if durable {
		// The base holds every image and the watermark durably: the table
		// is dropped even if the log reset failed — the watermark covers
		// the records and recovery will skip them.
		w.appliedLSN = cp.lsn
		w.table = make(map[PageID][]byte)
		if err == nil {
			w.logSize = walHeaderLen
			w.stale = rewound
		}
	}
	w.ioPhase = false
	w.idle.Broadcast()
	return err
}

// applyCheckpoint writes the plan's images to the base, makes them and the
// base allocator durable, then writes the watermark and makes it durable.
// It returns nil once the watermark is.
func (w *WALStore) applyCheckpoint(cp *checkpointPlan) error {
	for i, id := range cp.ids {
		if err := w.base.Write(&Page{ID: id, Data: cp.imgs[i]}); err != nil {
			return fmt.Errorf("pager: checkpoint page %d: %w", id, err)
		}
	}
	// The watermark goes down only after the allocator sync, so the
	// durable allocator is never behind it.
	if err := w.baseSync(); err != nil {
		return fmt.Errorf("pager: checkpoint sync: %w", err)
	}
	if err := w.writeMetaPage(cp.lsn, cp.seq); err != nil {
		return err
	}
	if err := w.baseSync(); err != nil {
		return fmt.Errorf("pager: checkpoint meta sync: %w", err)
	}
	return nil
}

// resetLog moves the log back to its header once the watermark covers
// every record in it. With rewind, a log that can rewinds — no I/O, and
// the bytes past the header stay as a stale tail for the next cycle's
// commits to overwrite — and reports that it did; otherwise the log is
// truncated and the truncation synced.
func (w *WALStore) resetLog(rewind bool) (rewound bool, err error) {
	if r, ok := w.log.(logRewinder); ok && rewind {
		if err := r.Rewind(walHeaderLen); err != nil {
			return false, fmt.Errorf("pager: checkpoint rewind: %w", err)
		}
		return true, nil
	}
	if err := w.log.Truncate(walHeaderLen); err != nil {
		return false, fmt.Errorf("pager: checkpoint truncate: %w", err)
	}
	if err := w.log.Sync(); err != nil {
		return false, fmt.Errorf("pager: checkpoint truncate sync: %w", err)
	}
	return false, nil
}

// Close checkpoints, truncating the log file to its header, and closes the
// log (the base store remains the caller's to close). A deferred batch is
// synced and an open batch rolled back first.
func (w *WALStore) Close() error {
	var errs []error
	if err := w.SyncLog(); err != nil {
		errs = append(errs, err)
	}
	w.mu.Lock()
	w.waitIOLocked()
	if w.done {
		w.mu.Unlock()
		return nil
	}
	if w.batch != nil {
		w.batch.depth = 1
		if err := w.rollbackLocked(); err != nil {
			errs = append(errs, err)
		}
	}
	var cp *checkpointPlan
	if w.fail == nil && !w.unsynced {
		cp = w.planCheckpointLocked(false)
	}
	// Closed from here on: the final checkpoint's I/O phase runs without
	// the latch, and nothing may begin a batch or read behind it.
	w.done = true
	w.mu.Unlock()
	if err := w.runCheckpoint(cp); err != nil {
		errs = append(errs, err)
	}
	if err := w.log.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// PageSize implements Store.
func (w *WALStore) PageSize() int { return w.pageSize }

// Stats implements Store, reporting logical traffic: reads however served
// (batch, table, or base) and writes/allocs/frees as staged. Physical base
// traffic (deferred to checkpoints) is available from the base store.
// Lock-free: counters are atomic, so measuring never blocks operations.
func (w *WALStore) Stats() Stats { return w.stats.snapshot() }

// PagesInUse implements Store: live pages excluding the reserved WAL-meta
// page and pages the open batch has staged to free.
func (w *WALStore) PagesInUse() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.base.PagesInUse() - 1
	if w.batch != nil {
		n -= len(w.batch.frees)
	}
	return n
}

// Allocate implements Store. Inside a batch the base allocation happens
// immediately (ids must be stable) but is undone by Rollback; outside a
// batch it commits as a batch of one.
func (w *WALStore) Allocate() (*Page, error) {
	w.mu.Lock()
	if err := w.ok(); err != nil {
		w.mu.Unlock()
		return nil, err
	}
	if w.batch != nil {
		p, err := w.allocateLocked()
		w.mu.Unlock()
		return p, err
	}
	w.mu.Unlock()
	var p *Page
	err := RunBatch(w, func() error {
		w.mu.Lock()
		defer w.mu.Unlock()
		var e error
		p, e = w.allocateLocked()
		return e
	})
	return p, err
}

func (w *WALStore) allocateLocked() (*Page, error) {
	p, err := w.base.Allocate()
	if err != nil {
		return nil, err
	}
	b := w.batch
	b.allocs = append(b.allocs, p.ID)
	b.allocSet[p.ID] = struct{}{}
	w.stats.allocs.Add(1)
	return p, nil
}

// imageLocked returns the store's own image of page id as a batch would
// see it — b's staged image (b may be nil), else the committed table's —
// or nil when only the base store has the page (caller holds mu). The
// slice is immutable: every Write stages a fresh one and nothing modifies
// a staged or committed image in place.
func (w *WALStore) imageLocked(b *walBatch, id PageID) ([]byte, error) {
	if err := w.ok(); err != nil {
		return nil, err
	}
	if id == w.metaPage {
		return nil, fmt.Errorf("pager: read wal meta page %d: %w", id, ErrReservedPage)
	}
	if b != nil {
		if _, freed := b.freeSet[id]; freed {
			return nil, fmt.Errorf("%w: page %d freed in open batch", ErrPageNotFound, id)
		}
		if img, ok := b.writes[id]; ok {
			return img, nil
		}
	}
	return w.table[id], nil
}

// readImage finishes a Read: a private copy of img, or the base store's
// page when the WAL holds no image of it.
func (w *WALStore) readImage(id PageID, img []byte) (*Page, error) {
	w.stats.reads.Add(1)
	if img == nil {
		return w.base.Read(id)
	}
	return &Page{ID: id, Data: append([]byte(nil), img...)}, nil
}

// Read implements Store: a private copy of what View returns.
func (w *WALStore) Read(id PageID) (*Page, error) {
	w.mu.Lock()
	img, err := w.imageLocked(w.batch, id)
	w.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return w.readImage(id, img)
}

// View implements Viewer: the open batch's staged image, else the
// committed table's, else the base store's — the store's own slice, not a
// copy. It stays a stable snapshot because images are never modified in
// place: a later Write stages a fresh slice, Commit moves slices into the
// table and a checkpoint only drops them.
func (w *WALStore) View(id PageID) ([]byte, error) {
	w.mu.Lock()
	img, err := w.imageLocked(w.batch, id)
	w.mu.Unlock()
	if err != nil {
		return nil, err
	}
	w.stats.reads.Add(1)
	if img == nil {
		return ViewBytes(w.base, id)
	}
	return img, nil
}

// Write implements Store: inside a batch the image is staged (visible to
// the batch's own reads, invisible to everyone else until Commit);
// outside a batch it commits as a batch of one.
func (w *WALStore) Write(p *Page) error {
	w.mu.Lock()
	if err := w.ok(); err != nil {
		w.mu.Unlock()
		return err
	}
	if w.batch != nil {
		err := w.writeLocked(p)
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()
	return RunBatch(w, func() error {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.writeLocked(p)
	})
}

func (w *WALStore) writeLocked(p *Page) error {
	if len(p.Data) != w.pageSize {
		return fmt.Errorf("pager: wal write page %d: %d bytes, want %d", p.ID, len(p.Data), w.pageSize)
	}
	if p.ID == w.metaPage || p.ID == 0 {
		return fmt.Errorf("pager: write wal meta page %d: %w", p.ID, ErrReservedPage)
	}
	b := w.batch
	if _, freed := b.freeSet[p.ID]; freed {
		return fmt.Errorf("%w: page %d freed in open batch", ErrPageNotFound, p.ID)
	}
	if _, seen := b.writes[p.ID]; !seen {
		b.writeOrder = append(b.writeOrder, p.ID)
	}
	b.writes[p.ID] = p.Data
	w.stats.writes.Add(1)
	return nil
}

// Free implements Store: staged until Commit. Freeing a page twice in one
// batch fails with ErrDoubleFree; freeing the WAL-meta page with
// ErrReservedPage.
func (w *WALStore) Free(id PageID) error {
	w.mu.Lock()
	if err := w.ok(); err != nil {
		w.mu.Unlock()
		return err
	}
	if w.batch != nil {
		err := w.freeLocked(id)
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()
	return RunBatch(w, func() error {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.freeLocked(id)
	})
}

func (w *WALStore) freeLocked(id PageID) error {
	if id == w.metaPage || id == 0 {
		return fmt.Errorf("pager: free wal meta page %d: %w", id, ErrReservedPage)
	}
	b := w.batch
	if _, dup := b.freeSet[id]; dup {
		return fmt.Errorf("pager: free page %d: %w", id, ErrDoubleFree)
	}
	// Validate liveness now: once logged, a free MUST apply, so a bad id
	// must be rejected before it can reach the log.
	_, inBatch := b.allocSet[id]
	_, inWrites := b.writes[id]
	_, inTable := w.table[id]
	if !inBatch && !inWrites && !inTable {
		if _, err := w.base.Read(id); err != nil {
			return fmt.Errorf("pager: free page %d: %w", id, err)
		}
	}
	b.freeSet[id] = struct{}{}
	b.frees = append(b.frees, id)
	w.stats.frees.Add(1)
	return nil
}
