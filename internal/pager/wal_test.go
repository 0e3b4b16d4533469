package pager

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"mobidx/internal/pager/crashtest"
)

const walTestPageSize = 256

// walPattern fills a page with a recognizable, id-dependent pattern.
func walPattern(size int, tag byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = tag ^ byte(i)
	}
	return b
}

func openTestWAL(t *testing.T, base Store, log LogFile, cfg WALConfig) *WALStore {
	t.Helper()
	w, err := OpenWALStore(base, log, cfg)
	if err != nil {
		t.Fatalf("OpenWALStore: %v", err)
	}
	return w
}

func TestWALBatchVisibilityAndRollback(t *testing.T) {
	base := NewMemStore(walTestPageSize)
	w := openTestWAL(t, base, NewMemLog(), WALConfig{})

	if err := w.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	p, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	img := walPattern(walTestPageSize, 0xAB)
	if err := w.Write(&Page{ID: p.ID, Data: img}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// The batch's own reads see the staged image.
	got, err := w.Read(p.ID)
	if err != nil {
		t.Fatalf("Read staged: %v", err)
	}
	if !bytes.Equal(got.Data, img) {
		t.Fatalf("staged read returned wrong image")
	}
	// The base store must not: the page exists (ids are assigned eagerly)
	// but holds no data.
	bp, err := base.Read(p.ID)
	if err != nil {
		t.Fatalf("base read: %v", err)
	}
	if bytes.Equal(bp.Data, img) {
		t.Fatalf("uncommitted write leaked into the base store")
	}

	before := base.PagesInUse()
	if err := w.Rollback(); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if base.PagesInUse() != before-1 {
		t.Fatalf("rollback kept the allocation: %d pages, want %d", base.PagesInUse(), before-1)
	}
	if _, err := w.Read(p.ID); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("read after rollback: %v, want ErrPageNotFound", err)
	}
}

func TestWALCommitDurableAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	base, err := NewFileStore(filepath.Join(dir, "data"), walTestPageSize)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	log, err := OpenFileLog(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatalf("OpenFileLog: %v", err)
	}
	w := openTestWAL(t, base, log, WALConfig{})

	// Two committed batches...
	var ids []PageID
	for batch := 0; batch < 2; batch++ {
		if err := w.Begin(); err != nil {
			t.Fatalf("Begin: %v", err)
		}
		for i := 0; i < 3; i++ {
			p, err := w.Allocate()
			if err != nil {
				t.Fatalf("Allocate: %v", err)
			}
			ids = append(ids, p.ID)
			if err := w.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, byte(p.ID))}); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	// ...and one open batch that never commits.
	if err := w.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	lost, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := w.Write(&Page{ID: lost.ID, Data: walPattern(walTestPageSize, 0xFF)}); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// Crash: abandon everything without Close or Checkpoint, reopen from
	// the files. (The base file only ever saw the WAL-meta page; the data
	// lives in the log.)
	if w.CommittedSeq() != 2 {
		t.Fatalf("CommittedSeq = %d, want 2", w.CommittedSeq())
	}
	base2, err := OpenFileStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatalf("reopen base: %v", err)
	}
	defer base2.Close()
	log2, err := OpenFileLog(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatalf("reopen log: %v", err)
	}
	w2 := openTestWAL(t, base2, log2, WALConfig{})
	defer w2.Close()

	if w2.CommittedSeq() != 2 {
		t.Fatalf("recovered CommittedSeq = %d, want 2", w2.CommittedSeq())
	}
	for _, id := range ids {
		p, err := w2.Read(id)
		if err != nil {
			t.Fatalf("read committed page %d after recovery: %v", id, err)
		}
		if !bytes.Equal(p.Data, walPattern(walTestPageSize, byte(id))) {
			t.Fatalf("committed page %d corrupted by recovery", id)
		}
	}
	if _, err := w2.Read(lost.ID); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("uncommitted page %d visible after recovery: %v", lost.ID, err)
	}
}

func TestWALTornTailTruncated(t *testing.T) {
	base := NewMemStore(walTestPageSize)
	log := NewMemLog()
	w := openTestWAL(t, base, log, WALConfig{})

	p, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	img := walPattern(walTestPageSize, 0x5A)
	if err := w.Write(&Page{ID: p.ID, Data: img}); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// A crash mid-append leaves a torn record: half a valid record's
	// bytes. Recovery must truncate it, keeping the committed batch.
	valid := appendWALRecord(nil, 99, recAlloc, []byte{9, 0, 0, 0})
	if err := log.Append(valid[:len(valid)-3]); err != nil {
		t.Fatalf("append torn record: %v", err)
	}
	size, _ := log.Size()

	w2 := openTestWAL(t, base, log, WALConfig{})
	if got, _ := log.Size(); got >= size {
		t.Fatalf("torn tail not truncated: size %d, was %d", got, size)
	}
	rp, err := w2.Read(p.ID)
	if err != nil {
		t.Fatalf("read committed page after torn-tail recovery: %v", err)
	}
	if !bytes.Equal(rp.Data, img) {
		t.Fatalf("committed page corrupted by torn-tail recovery")
	}
}

func TestWALMidLogCorruptionDetected(t *testing.T) {
	base := NewMemStore(walTestPageSize)
	log := NewMemLog()
	w := openTestWAL(t, base, log, WALConfig{})
	for i := 0; i < 3; i++ {
		p, err := w.Allocate()
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		if err := w.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, byte(i))}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}

	// Flip one payload bit in the middle of the log (inside the first
	// batch's records, with valid batches after it). Recovery must refuse
	// with a typed error, not silently drop the later batches.
	log.mu.Lock()
	log.buf[walHeaderLen+20] ^= 0x10
	log.mu.Unlock()

	_, err := OpenWALStore(base, log, WALConfig{})
	if !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("mid-log corruption: %v, want ErrWALCorrupt", err)
	}
}

func TestWALCheckpointTruncatesAndPersists(t *testing.T) {
	dir := t.TempDir()
	base, err := NewFileStore(filepath.Join(dir, "data"), walTestPageSize)
	if err != nil {
		t.Fatalf("NewFileStore: %v", err)
	}
	log, err := OpenFileLog(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatalf("OpenFileLog: %v", err)
	}
	w := openTestWAL(t, base, log, WALConfig{})

	p, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	img := walPattern(walTestPageSize, 0xC3)
	if err := w.Write(&Page{ID: p.ID, Data: img}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if w.PendingPages() == 0 {
		t.Fatalf("no pending pages before checkpoint")
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := w.LogSize(); got != walHeaderLen {
		t.Fatalf("log size after checkpoint = %d, want header %d", got, walHeaderLen)
	}
	if w.PendingPages() != 0 {
		t.Fatalf("pending pages after checkpoint: %d", w.PendingPages())
	}
	// The base store itself now holds the page.
	bp, err := base.Read(p.ID)
	if err != nil {
		t.Fatalf("base read after checkpoint: %v", err)
	}
	if !bytes.Equal(bp.Data, img) {
		t.Fatalf("checkpoint did not apply the page to the base")
	}
	seq := w.CommittedSeq()

	// Crash after checkpoint: reopen, nothing to replay, data intact,
	// sequence number preserved via the WAL-meta page.
	base2, err := OpenFileStore(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatalf("reopen base: %v", err)
	}
	defer base2.Close()
	log2, err := OpenFileLog(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatalf("reopen log: %v", err)
	}
	w2 := openTestWAL(t, base2, log2, WALConfig{})
	defer w2.Close()
	if w2.CommittedSeq() != seq {
		t.Fatalf("CommittedSeq after checkpointed reopen = %d, want %d", w2.CommittedSeq(), seq)
	}
	rp, err := w2.Read(p.ID)
	if err != nil {
		t.Fatalf("read after checkpointed reopen: %v", err)
	}
	if !bytes.Equal(rp.Data, img) {
		t.Fatalf("page corrupted across checkpointed reopen")
	}
}

func TestWALAutoCheckpointBoundsLog(t *testing.T) {
	base := NewMemStore(walTestPageSize)
	limit := int64(4 * walTestPageSize)
	w := openTestWAL(t, base, NewMemLog(), WALConfig{})

	p, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Any single commit adds at most one page image plus some record
	// overhead, so the log may overshoot the trigger by one batch before
	// the checkpoint reels it back to the header.
	slack := int64(walTestPageSize + 256)
	for i := 0; i < 100; i++ {
		if err := w.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, byte(i))}); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
		if err := w.CheckpointIfDue(limit); err != nil {
			t.Fatalf("CheckpointIfDue %d: %v", i, err)
		}
		if got := w.LogSize(); got > limit+slack {
			t.Fatalf("log grew unbounded: %d bytes after write %d (limit %d)", got, i, limit)
		}
	}
	if w.AppliedLSN() == 0 {
		t.Fatalf("auto-checkpoint never ran")
	}
}

func TestWALNestedBatches(t *testing.T) {
	base := NewMemStore(walTestPageSize)
	w := openTestWAL(t, base, NewMemLog(), WALConfig{})

	// Nested commit: only the outermost applies.
	if err := w.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	p, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := w.Begin(); err != nil {
		t.Fatalf("nested Begin: %v", err)
	}
	if err := w.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, 1)}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("nested Commit: %v", err)
	}
	if w.CommittedSeq() != 0 {
		t.Fatalf("nested commit applied the batch: seq %d", w.CommittedSeq())
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("outer Commit: %v", err)
	}
	if w.CommittedSeq() != 1 {
		t.Fatalf("outer commit seq = %d, want 1", w.CommittedSeq())
	}

	// Nested rollback poisons the whole batch.
	if err := w.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	q, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := w.Begin(); err != nil {
		t.Fatalf("nested Begin: %v", err)
	}
	if err := w.Rollback(); err != nil {
		t.Fatalf("nested Rollback: %v", err)
	}
	if err := w.Commit(); !errors.Is(err, ErrBatchAborted) {
		t.Fatalf("outer Commit after nested rollback: %v, want ErrBatchAborted", err)
	}
	if _, err := w.Read(q.ID); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("aborted batch's page visible: %v", err)
	}
	if err := w.Commit(); !errors.Is(err, ErrNoBatch) {
		t.Fatalf("Commit with no batch: %v, want ErrNoBatch", err)
	}
}

func TestWALFreeTyping(t *testing.T) {
	base := NewMemStore(walTestPageSize)
	w := openTestWAL(t, base, NewMemLog(), WALConfig{})

	p, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := w.Begin(); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := w.Free(p.ID); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := w.Free(p.ID); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free in batch: %v, want ErrDoubleFree", err)
	}
	if err := w.Free(w.MetaPage()); !errors.Is(err, ErrReservedPage) {
		t.Fatalf("free of wal meta page: %v, want ErrReservedPage", err)
	}
	if err := w.Free(PageID(999)); err == nil {
		t.Fatalf("free of unknown page succeeded")
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// The free is applied: a second free outside any batch is a double
	// free at the base level and must not reach the log.
	if err := w.Free(p.ID); err == nil {
		t.Fatalf("free of freed page succeeded")
	}

	if _, err := w.Read(w.MetaPage()); !errors.Is(err, ErrReservedPage) {
		t.Fatalf("read of wal meta page: %v, want ErrReservedPage", err)
	}
	if err := w.Write(&Page{ID: w.MetaPage(), Data: make([]byte, walTestPageSize)}); !errors.Is(err, ErrReservedPage) {
		t.Fatalf("write of wal meta page: %v, want ErrReservedPage", err)
	}
}

func TestWALFreeReallocCycleRecovers(t *testing.T) {
	// alloc → free → realloc of the same page id across batches, then
	// crash-reopen: forcing replay must land on the final state.
	base := NewMemStore(walTestPageSize)
	log := NewMemLog()
	w := openTestWAL(t, base, log, WALConfig{})

	p, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := w.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, 1)}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Free(p.ID); err != nil {
		t.Fatalf("Free: %v", err)
	}
	q, err := w.Allocate()
	if err != nil {
		t.Fatalf("realloc: %v", err)
	}
	if q.ID != p.ID {
		t.Fatalf("allocator did not recycle: got %d, want %d", q.ID, p.ID)
	}
	final := walPattern(walTestPageSize, 7)
	if err := w.Write(&Page{ID: q.ID, Data: final}); err != nil {
		t.Fatalf("Write: %v", err)
	}

	// Crash (abandon w), reopen over the same base and log.
	w2 := openTestWAL(t, base, log, WALConfig{})
	got, err := w2.Read(q.ID)
	if err != nil {
		t.Fatalf("read after realloc recovery: %v", err)
	}
	if !bytes.Equal(got.Data, final) {
		t.Fatalf("realloc recovery returned stale image")
	}
}

func TestWALDegradedMetaRecovery(t *testing.T) {
	// The base store is lost entirely (fresh MemStore), only the log
	// survives: the WAL-meta page is unreadable, so recovery degrades to
	// a full replay from LSN zero — and still reconstructs everything.
	base := NewMemStore(walTestPageSize)
	log := NewMemLog()
	w := openTestWAL(t, base, log, WALConfig{})
	var ids []PageID
	for i := 0; i < 3; i++ {
		p, err := w.Allocate()
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		ids = append(ids, p.ID)
		if err := w.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, byte(10+i))}); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}

	fresh := NewMemStore(walTestPageSize)
	w2 := openTestWAL(t, fresh, log, WALConfig{})
	for i, id := range ids {
		p, err := w2.Read(id)
		if err != nil {
			t.Fatalf("degraded recovery read %d: %v", id, err)
		}
		if !bytes.Equal(p.Data, walPattern(walTestPageSize, byte(10+i))) {
			t.Fatalf("degraded recovery corrupted page %d", id)
		}
	}

	// A log with no committed batch AND no watermark is unrecoverable —
	// typed, not silent.
	log2 := NewMemLog()
	s := NewMemStore(walTestPageSize)
	w3 := openTestWAL(t, s, log2, WALConfig{})
	_ = w3
	if _, err := OpenWALStore(NewMemStore(walTestPageSize), log2, WALConfig{}); !errors.Is(err, ErrWALCorrupt) {
		t.Fatalf("headerless-watermark recovery: %v, want ErrWALCorrupt", err)
	}
}

func TestWALRunBatchHelper(t *testing.T) {
	base := NewMemStore(walTestPageSize)
	w := openTestWAL(t, base, NewMemLog(), WALConfig{})

	var id PageID
	err := RunBatch(w, func() error {
		p, err := w.Allocate()
		if err != nil {
			return err
		}
		id = p.ID
		return w.Write(&Page{ID: id, Data: walPattern(walTestPageSize, 3)})
	})
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	if _, err := w.Read(id); err != nil {
		t.Fatalf("read after RunBatch: %v", err)
	}

	boom := fmt.Errorf("boom")
	err = RunBatch(w, func() error {
		p, err := w.Allocate()
		if err != nil {
			return err
		}
		id = p.ID
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("RunBatch error = %v, want boom", err)
	}
	if _, err := w.Read(id); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("failed RunBatch leaked page %d: %v", id, err)
	}

	// On a store with no batch support RunBatch just runs fn.
	if err := RunBatch(base, func() error { return nil }); err != nil {
		t.Fatalf("RunBatch on plain store: %v", err)
	}
}

// TestWALOverChecksummedFileStore runs the served stack, a WALStore over a
// FileStore, on one in-memory file: a checkpointed page reads back through
// a reopen, and once a byte of its slot flips on the media the reopened
// stack reports ErrPageCorrupt, since the truncated log holds no other
// copy.
func TestWALOverChecksummedFileStore(t *testing.T) {
	media := crashtest.NewMedia(crashtest.KeepAll, 0)
	pages, logFile := crashtest.NewFile(media), crashtest.NewFile(media)
	open := func() *WALStore {
		t.Helper()
		fs, err := OpenFileStoreOn(pages, walTestPageSize)
		if err != nil {
			t.Fatalf("OpenFileStoreOn: %v", err)
		}
		log, err := OpenFileLogOn(logFile)
		if err != nil {
			t.Fatalf("OpenFileLogOn: %v", err)
		}
		return openTestWAL(t, fs, log, WALConfig{})
	}
	w := open()
	p, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	img := walPattern(walTestPageSize, 0x77)
	if err := w.Write(&Page{ID: p.ID, Data: img}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	got, err := open().Read(p.ID)
	if err != nil {
		t.Fatalf("read after reopen: %v", err)
	}
	if !bytes.Equal(got.Data, img) {
		t.Fatal("page changed across a reopen")
	}

	off := int64(p.ID)*(walTestPageSize+trailerSize) + 17
	b := []byte{0}
	if _, err := pages.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := pages.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	if _, err := open().Read(p.ID); !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("read of a flipped checkpointed page: %v, want ErrPageCorrupt", err)
	}
}

func TestWALConcurrentSingleOps(t *testing.T) {
	base := NewMemStore(walTestPageSize)
	w := openTestWAL(t, base, NewMemLog(), WALConfig{})

	const workers = 8
	ids := make([]PageID, workers)
	for i := range ids {
		p, err := w.Allocate()
		if err != nil {
			t.Fatalf("Allocate: %v", err)
		}
		ids[i] = p.ID
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id PageID, tag byte) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				if err := w.Write(&Page{ID: id, Data: walPattern(walTestPageSize, tag)}); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				// Checkpoints race the other workers' batches: one that
				// finds a batch open skips, and a Begin waits for one.
				if err := w.CheckpointIfDue(64 * walTestPageSize); err != nil {
					t.Errorf("CheckpointIfDue: %v", err)
					return
				}
				if _, err := w.Read(id); err != nil {
					t.Errorf("Read: %v", err)
					return
				}
			}
		}(ids[i], byte(i))
	}
	wg.Wait()
	for i, id := range ids {
		p, err := w.Read(id)
		if err != nil {
			t.Fatalf("final read: %v", err)
		}
		if !bytes.Equal(p.Data, walPattern(walTestPageSize, byte(i))) {
			t.Fatalf("page %d holds another worker's data", id)
		}
	}
}

func TestWALStatsAndPagesInUse(t *testing.T) {
	base := NewMemStore(walTestPageSize)
	w := openTestWAL(t, base, NewMemLog(), WALConfig{})

	p, err := w.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if err := w.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, 1)}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if _, err := w.Read(p.ID); err != nil {
		t.Fatalf("Read: %v", err)
	}
	st := w.Stats()
	if st.Allocs != 1 || st.Writes != 1 || st.Reads != 1 {
		t.Fatalf("stats = %+v, want 1 alloc, 1 write, 1 read", st)
	}
	if got := w.PagesInUse(); got != 1 {
		t.Fatalf("PagesInUse = %d, want 1 (meta page excluded)", got)
	}
	if err := w.Free(p.ID); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if got := w.PagesInUse(); got != 0 {
		t.Fatalf("PagesInUse after free = %d, want 0", got)
	}
}
