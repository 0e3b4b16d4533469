package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// countingLog counts what reaches the LogFile under it.
type countingLog struct {
	LogFile
	appends int64
	bytes   int64
}

func (c *countingLog) Append(b []byte) error {
	c.appends++
	c.bytes += int64(len(b))
	return c.LogFile.Append(b)
}

// refBatch is one committed batch as the test scripted it: what the log
// must hold for it, independent of how the store framed it.
type refBatch struct {
	allocs []PageID
	writes []Page // first-write order, final images, pages freed in the batch left out
	frees  []PageID
}

// refLogBytes encodes a log the way commits wrote it before they were
// chunked: the header, then one record at a time, a write record's payload
// assembled as id + image first.
func refLogBytes(pageSize int, metaPage PageID, batches []refBatch) []byte {
	out := make([]byte, walHeaderLen)
	copy(out[0:8], walMagic)
	binary.LittleEndian.PutUint32(out[8:12], walVer)
	binary.LittleEndian.PutUint32(out[12:16], uint32(pageSize))
	binary.LittleEndian.PutUint32(out[16:20], uint32(metaPage))
	binary.LittleEndian.PutUint32(out[20:24], crc32.Checksum(out[:20], castagnoli))
	lsn := uint64(1)
	id4 := func(id PageID) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(id)) }
	for seq, b := range batches {
		count := 0
		for _, id := range b.allocs {
			out = append(out, appendWALRecord(nil, lsn, recAlloc, id4(id))...)
			lsn++
			count++
		}
		for _, p := range b.writes {
			payload := make([]byte, 4+pageSize)
			binary.LittleEndian.PutUint32(payload[0:4], uint32(p.ID))
			copy(payload[4:], p.Data)
			out = append(out, appendWALRecord(nil, lsn, recWrite, payload)...)
			lsn++
			count++
		}
		for _, id := range b.frees {
			out = append(out, appendWALRecord(nil, lsn, recFree, id4(id))...)
			lsn++
			count++
		}
		cp := binary.LittleEndian.AppendUint64(nil, uint64(seq+1))
		cp = binary.LittleEndian.AppendUint32(cp, uint32(count))
		out = append(out, appendWALRecord(nil, lsn, recCommit, cp)...)
		lsn++
	}
	return out
}

// The log format did not change with chunked commits: a scripted workload
// — single operations, a batch larger than one frame chunk with a rewrite
// and a dead write, a rollback, a RunBatch — leaves exactly the bytes the
// per-record encoding of the same batches gives, in one Append per commit
// (two for the batch that outgrows a chunk).
func TestWALLogBytesGolden(t *testing.T) {
	const pageSize = 4096
	log := &countingLog{LogFile: NewMemLog()}
	w := openTestWAL(t, NewMemStore(pageSize), log, WALConfig{})
	var ref []refBatch
	wantAppends := int64(1) // the header
	commit := func(b refBatch, appends int64) {
		t.Helper()
		ref = append(ref, b)
		wantAppends += appends
		if log.appends != wantAppends {
			t.Fatalf("batch %d: %d appends so far, want %d", len(ref), log.appends, wantAppends)
		}
		if w.LogSize() != log.bytes {
			t.Fatalf("batch %d: LogSize %d, log holds %d", len(ref), w.LogSize(), log.bytes)
		}
	}
	img := func(tag int) []byte { return walPattern(pageSize, byte(tag)) }

	// Batches of one.
	p0, err := w.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	commit(refBatch{allocs: []PageID{p0.ID}}, 1)
	if err := w.Write(&Page{ID: p0.ID, Data: img(1)}); err != nil {
		t.Fatal(err)
	}
	commit(refBatch{writes: []Page{{ID: p0.ID, Data: img(1)}}}, 1)

	// 70 allocations and 69 live images: 285 KB of records, two chunks.
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	var big refBatch
	for i := 0; i < 70; i++ {
		p, err := w.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		big.allocs = append(big.allocs, p.ID)
		if err := w.Write(&Page{ID: p.ID, Data: img(10 + i)}); err != nil {
			t.Fatal(err)
		}
		big.writes = append(big.writes, Page{ID: p.ID, Data: img(10 + i)})
	}
	big.writes[0].Data = img(200) // a rewrite keeps its first-write position
	if err := w.Write(&big.writes[0]); err != nil {
		t.Fatal(err)
	}
	dead := big.writes[5].ID // a page freed in the batch logs no image
	if err := w.Free(dead); err != nil {
		t.Fatal(err)
	}
	big.writes = append(big.writes[:5:5], big.writes[6:]...)
	big.frees = []PageID{dead}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	commit(big, 2)

	// A rolled-back batch leaves no bytes.
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&Page{ID: p0.ID, Data: img(99)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Rollback(); err != nil {
		t.Fatal(err)
	}

	// The next batch after a rollback appends onto the same boundary.
	var tp *Page
	if err := RunBatch(w, func() error {
		var err error
		if tp, err = w.Allocate(); err != nil {
			return err
		}
		if err := w.Write(&Page{ID: tp.ID, Data: img(3)}); err != nil {
			return err
		}
		return w.Free(big.allocs[7])
	}); err != nil {
		t.Fatal(err)
	}
	commit(refBatch{allocs: []PageID{tp.ID}, writes: []Page{{ID: tp.ID, Data: img(3)}}, frees: []PageID{big.allocs[7]}}, 1)

	got := log.LogFile.(*MemLog).Bytes()
	want := refLogBytes(pageSize, w.MetaPage(), ref)
	if !bytes.Equal(got, want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("log is %d bytes, per-record encoding %d; they differ from offset %d", len(got), len(want), n)
	}
}

// walWant is the state a recovered store must show.
type walWant struct {
	seq   uint64
	pages map[PageID][]byte
	gone  []PageID
}

func checkWALState(t *testing.T, w *WALStore, want walWant) {
	t.Helper()
	if got := w.CommittedSeq(); got != want.seq {
		t.Fatalf("CommittedSeq %d, want %d", got, want.seq)
	}
	if got := w.PagesInUse(); got != len(want.pages) {
		t.Fatalf("PagesInUse %d, want %d", got, len(want.pages))
	}
	for id, img := range want.pages {
		p, err := w.Read(id)
		if err != nil {
			t.Fatalf("read page %d: %v", id, err)
		}
		if !bytes.Equal(p.Data, img) {
			t.Fatalf("page %d holds the wrong image (first byte %#x, want %#x)", id, p.Data[0], img[0])
		}
	}
	for _, id := range want.gone {
		if _, ok := want.pages[id]; ok {
			continue // the id was reused by a later allocation
		}
		if _, err := w.Read(id); !errors.Is(err, ErrPageNotFound) {
			t.Fatalf("read of absent page %d: %v, want ErrPageNotFound", id, err)
		}
	}
}

// A commit is one Append, so a crash tears it at one arbitrary offset
// where it used to stop between records. Cut a third batch's bytes —
// allocs, four page writes, a free, the commit record — at every record
// boundary, one byte either side of each, and mid-image: recovery onto a
// fresh base must give exactly the two-batch state, truncate the tail,
// and take a new commit that itself survives a reopen. Only the full
// bytes give the three-batch state.
func TestWALTornCommitEveryCut(t *testing.T) {
	const ps = walTestPageSize
	log := NewMemLog()
	w := openTestWAL(t, NewMemStore(ps), log, WALConfig{})
	img := func(tag byte) []byte { return walPattern(ps, tag) }
	alloc := func() PageID {
		t.Helper()
		p, err := w.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		return p.ID
	}
	write := func(id PageID, tag byte) {
		t.Helper()
		if err := w.Write(&Page{ID: id, Data: img(tag)}); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(fn func()) {
		t.Helper()
		if err := w.Begin(); err != nil {
			t.Fatal(err)
		}
		fn()
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	var a, b, c, d, e, f PageID
	batch(func() {
		a, b, c = alloc(), alloc(), alloc()
		write(a, 0xA1)
		write(b, 0xB1)
		write(c, 0xC1)
	})
	batch(func() {
		d = alloc()
		write(d, 0xD1)
		write(a, 0xA2)
		if err := w.Free(b); err != nil {
			t.Fatal(err)
		}
	})
	two := walWant{seq: 2, pages: map[PageID][]byte{a: img(0xA2), c: img(0xC1), d: img(0xD1)}}
	len2 := int(w.LogSize())
	batch(func() {
		e, f = alloc(), alloc()
		write(e, 0xE1)
		write(f, 0xF1)
		write(a, 0xA3)
		write(c, 0xC3)
		if err := w.Free(d); err != nil {
			t.Fatal(err)
		}
	})
	two.gone = []PageID{b, e, f}
	three := walWant{seq: 3, gone: []PageID{b, d},
		pages: map[PageID][]byte{a: img(0xA3), c: img(0xC3), e: img(0xE1), f: img(0xF1)}}
	full := log.Bytes()

	// The third batch's record boundaries, and a cut inside each image.
	cuts := map[int]bool{}
	for off := len2; off < len(full); {
		rec, err := decodeWALRecord(full[off:], ps)
		if err != nil {
			t.Fatalf("third batch does not decode at %d: %v", off, err)
		}
		for _, cut := range []int{off - 1, off, off + 1} {
			cuts[cut] = true
		}
		if rec.typ == recWrite {
			cuts[off+walRecordOverhead+4+ps/2] = true
		}
		off += rec.encoded
	}
	cuts[len(full)-1] = true
	delete(cuts, len2-1) // that one tears the second batch's commit record
	if len(cuts) < 3*8+4 {
		t.Fatalf("only %d cuts: the third batch is not the records this test means", len(cuts))
	}

	for cut := range cuts {
		torn := NewMemLogFrom(full[:cut])
		w2, err := OpenWALStore(NewMemStore(ps), torn, WALConfig{})
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		checkWALState(t, w2, two)
		if got := torn.Bytes(); !bytes.Equal(got, full[:len2]) {
			t.Fatalf("cut %d: log is %d bytes after recovery, want the first %d of the original", cut, len(got), len2)
		}
		if w2.LogSize() != int64(len2) {
			t.Fatalf("cut %d: LogSize %d, want %d", cut, w2.LogSize(), len2)
		}
		// The truncated log takes the next commit on a clean boundary.
		p, err := w2.Allocate()
		if err != nil {
			t.Fatalf("cut %d: allocate after recovery: %v", cut, err)
		}
		if err := w2.Write(&Page{ID: p.ID, Data: img(0x77)}); err != nil {
			t.Fatalf("cut %d: commit after recovery: %v", cut, err)
		}
		w3, err := OpenWALStore(NewMemStore(ps), NewMemLogFrom(torn.Bytes()), WALConfig{})
		if err != nil {
			t.Fatalf("cut %d: second recovery: %v", cut, err)
		}
		after := walWant{seq: 4, gone: two.gone, pages: map[PageID][]byte{p.ID: img(0x77)}}
		for id, im := range two.pages {
			after.pages[id] = im
		}
		checkWALState(t, w3, after)
	}

	w4 := openTestWAL(t, NewMemStore(ps), NewMemLogFrom(full), WALConfig{})
	checkWALState(t, w4, three)
	if w4.LogSize() != int64(len(full)) {
		t.Fatalf("full log: LogSize %d, want %d", w4.LogSize(), len(full))
	}
}

var errInjectedLog = errors.New("injected log failure")

// failingLog fails the LogFile calls a test arms; unarmed (as during
// OpenWALStore's header append and sync) it is the MemLog under it.
type failingLog struct {
	*MemLog
	failSync     bool
	failAppend   int // fail the n-th Append from now, torn halfway; 0 never
	failTruncate bool
}

func (l *failingLog) Sync() error {
	if l.failSync {
		return errInjectedLog
	}
	return l.MemLog.Sync()
}

func (l *failingLog) Append(b []byte) error {
	if l.failAppend > 0 {
		if l.failAppend--; l.failAppend == 0 {
			_ = l.MemLog.Append(b[:len(b)/2])
			return errInjectedLog
		}
	}
	return l.MemLog.Append(b)
}

func (l *failingLog) Truncate(size int64) error {
	if l.failTruncate {
		return errInjectedLog
	}
	return l.MemLog.Truncate(size)
}

// A commit whose append fails cuts the log back to the batch's start and
// undoes the batch — nothing of it is durable or visible, the allocator
// and the LSN sequence read as if it never ran — and the store stays
// usable: the next batch commits onto the clean boundary and is what a
// recovery from the log alone finds. When the cut itself fails, or the
// log sync after the batch was published does, the store poisons itself: a
// published batch cannot be undone, and a failed fsync is not retryable.
// A recovery from what the log holds then finds the batch absent or whole.
func TestWALCommitFailureRollsBack(t *testing.T) {
	const ps = 4096
	for _, tc := range []struct {
		name     string
		arm      func(*failingLog)
		poisoned bool
	}{
		{"sync", func(l *failingLog) { l.failSync = true }, true},
		// 70 pages of records outgrow one 256 KiB chunk: the first chunk is
		// in the log when the second append tears.
		{"append-second-chunk", func(l *failingLog) { l.failAppend = 2 }, false},
		{"truncate", func(l *failingLog) { l.failSync, l.failTruncate = true, true }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := &failingLog{MemLog: NewMemLog()}
			w := openTestWAL(t, NewMemStore(ps), log, WALConfig{})
			var a PageID
			if err := RunBatch(w, func() error {
				p, err := w.Allocate()
				if err != nil {
					return err
				}
				a = p.ID
				return w.Write(&Page{ID: a, Data: walPattern(ps, 0xA1)})
			}); err != nil {
				t.Fatal(err)
			}
			before := log.Bytes()
			startLSN, inUse := w.nextLSN, w.PagesInUse()

			tc.arm(log)
			var staged []PageID
			err := RunBatch(w, func() error {
				for i := 0; i < 70; i++ {
					p, err := w.Allocate()
					if err != nil {
						return err
					}
					staged = append(staged, p.ID)
					if err := w.Write(&Page{ID: p.ID, Data: walPattern(ps, byte(i))}); err != nil {
						return err
					}
				}
				return w.Write(&Page{ID: a, Data: walPattern(ps, 0xA2)})
			})
			if !errors.Is(err, errInjectedLog) {
				t.Fatalf("commit on a failing log: %v, want the injected failure", err)
			}
			if log.failAppend != 0 {
				t.Fatalf("the batch fit one chunk: %d armed appends left", log.failAppend)
			}
			*log = failingLog{MemLog: log.MemLog}

			if tc.poisoned {
				if !errors.Is(err, ErrStoreFailed) {
					t.Fatalf("commit with a failed truncate or sync: %v, want ErrStoreFailed", err)
				}
				_, aerr := w.Allocate()
				_, rerr := w.Read(a)
				for op, err := range map[string]error{
					"Begin": w.Begin(), "Allocate": aerr, "Read": rerr, "Free": w.Free(a),
					"Write": w.Write(&Page{ID: a, Data: walPattern(ps, 1)}), "Checkpoint": w.Checkpoint(),
				} {
					if !errors.Is(err, ErrStoreFailed) {
						t.Errorf("%s on the poisoned store: %v, want ErrStoreFailed", op, err)
					}
				}
				// Recovery from the log finds the pre-batch or the post-batch
				// state, never a part of the batch.
				w2 := openTestWAL(t, NewMemStore(ps), NewMemLogFrom(log.Bytes()), WALConfig{})
				one := walWant{seq: 1, pages: map[PageID][]byte{a: walPattern(ps, 0xA1)}, gone: staged}
				if w2.CommittedSeq() == 1 {
					checkWALState(t, w2, one)
					return
				}
				two := walWant{seq: 2, pages: map[PageID][]byte{a: walPattern(ps, 0xA2)}}
				for i, id := range staged {
					two.pages[id] = walPattern(ps, byte(i))
				}
				checkWALState(t, w2, two)
				return
			}

			if errors.Is(err, ErrStoreFailed) {
				t.Fatalf("a rolled-back commit poisoned the store: %v", err)
			}
			if got := log.Bytes(); !bytes.Equal(got, before) {
				t.Fatalf("log is %d bytes after the failed commit, want the %d before it", len(got), len(before))
			}
			if w.LogSize() != int64(len(before)) || w.nextLSN != startLSN || w.PagesInUse() != inUse {
				t.Fatalf("LogSize %d nextLSN %d PagesInUse %d, want %d %d %d",
					w.LogSize(), w.nextLSN, w.PagesInUse(), len(before), startLSN, inUse)
			}
			one := walWant{seq: 1, pages: map[PageID][]byte{a: walPattern(ps, 0xA1)}, gone: staged}
			checkWALState(t, w, one)

			// The next batch reuses the returned allocation and commits.
			var b PageID
			if err := RunBatch(w, func() error {
				p, err := w.Allocate()
				if err != nil {
					return err
				}
				b = p.ID
				return w.Write(&Page{ID: b, Data: walPattern(ps, 0xB1)})
			}); err != nil {
				t.Fatalf("commit after the rolled-back one: %v", err)
			}
			if b != staged[0] {
				t.Fatalf("allocated page %d, want the rolled-back batch's first id %d", b, staged[0])
			}
			w2 := openTestWAL(t, NewMemStore(ps), NewMemLogFrom(log.Bytes()), WALConfig{})
			two := walWant{seq: 2, gone: staged,
				pages: map[PageID][]byte{a: walPattern(ps, 0xA1), b: walPattern(ps, 0xB1)}}
			checkWALState(t, w2, two)
		})
	}
}
