package pager

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// recycledLog runs one cycle on a fresh store — page p allocated, then
// written with tags 1 to 4, one batch each — and a due checkpoint that
// rewinds the log. The base holds tag 4 at watermark seq 5, and the log
// image is its header followed by the whole cycle, now a stale tail.
func recycledLog(t *testing.T) (base *MemStore, log *MemLog, w *WALStore, p PageID) {
	t.Helper()
	base, log = NewMemStore(walTestPageSize), NewMemLog()
	w = openTestWAL(t, base, log, WALConfig{})
	pg, err := w.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	for tag := byte(1); tag <= 4; tag++ {
		if err := w.Write(&Page{ID: pg.ID, Data: walPattern(walTestPageSize, tag)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CheckpointIfDue(1); err != nil {
		t.Fatal(err)
	}
	if w.LogSize() != walHeaderLen || len(log.Bytes()) <= walHeaderLen {
		t.Fatalf("due checkpoint left LogSize %d over a %d-byte image, want the header over the whole cycle", w.LogSize(), len(log.Bytes()))
	}
	return base, log, w, pg.ID
}

// reopenImage recovers a store from a copy of img over base and checks
// its sequence, page p and that recovery cut the log at end.
func reopenImage(t *testing.T, base Store, img []byte, end int, seq uint64, p PageID, tag byte) *WALStore {
	t.Helper()
	log := NewMemLogFrom(img)
	w, err := OpenWALStore(base, log, WALConfig{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if got := w.CommittedSeq(); got != seq {
		t.Fatalf("recovered seq %d, want %d", got, seq)
	}
	pg, err := w.Read(p)
	if err != nil {
		t.Fatalf("read page %d: %v", p, err)
	}
	if !bytes.Equal(pg.Data, walPattern(walTestPageSize, tag)) {
		t.Fatalf("page %d holds tag %#x, want %#x", p, pg.Data[0], tag)
	}
	if got := log.Bytes(); len(got) != end || !bytes.Equal(got, img[:end]) {
		t.Fatalf("log is %d bytes after recovery, want the first %d of the image", len(got), end)
	}
	if w.LogSize() != int64(end) {
		t.Fatalf("LogSize %d, want %d", w.LogSize(), end)
	}
	return w
}

// A cycle shorter than the one before it leaves the older cycle's records
// past its end. Recovery replays the new cycle, stops at the stale tail —
// whether the tail starts on a record boundary (a valid record with an
// LSN below the next expected one) or inside a record — cuts it, and never
// replays it: the stale batches would put tag 4 back on page p.
func TestWALRecycledStaleTailEndsScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		aligned bool
	}{
		{"record-boundary", true},
		{"mid-record", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, log, w, p := recycledLog(t)
			if tc.aligned {
				// An allocation and a write: the same bytes as the stale
				// cycle's first two batches.
				if _, err := w.Allocate(); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Write(&Page{ID: p, Data: walPattern(walTestPageSize, 9)}); err != nil {
				t.Fatal(err)
			}
			img, end, seq := log.Bytes(), int(w.LogSize()), w.CommittedSeq()
			if end >= len(img) {
				t.Fatalf("no stale tail: cycle ends at %d of %d bytes", end, len(img))
			}
			rec, err := decodeWALRecord(img[end:], walTestPageSize)
			if tc.aligned && (err != nil || rec.lsn >= w.AppliedLSN()) {
				t.Fatalf("tail at %d is not a stale record: LSN %d, %v", end, rec.lsn, err)
			}
			if !tc.aligned && err == nil {
				t.Fatalf("tail at %d decodes (LSN %d); want a cut through a record", end, rec.lsn)
			}
			w2 := reopenImage(t, base, img, end, seq, p, 9)
			// The recovered store commits onto the cut and survives a reopen.
			if err := w2.Write(&Page{ID: p, Data: walPattern(walTestPageSize, 10)}); err != nil {
				t.Fatal(err)
			}
			l2 := w2.log.(*MemLog)
			reopenImage(t, base, l2.Bytes(), len(l2.Bytes()), seq+1, p, 10)
		})
	}
}

// The first commit after a rewind is torn at every byte of its first
// record, over the stale cycle. Nothing past the torn record counts as
// live — every stale record is at or below the watermark — so recovery
// reads a torn tail, not ErrWALCorrupt, cuts the log to its header and
// presents the checkpointed state. (A cut that leaves the stale record
// decodable — the torn prefix repeats its bytes — leaves the stale cycle
// whole: all of it at or below the watermark, nothing to cut.)
func TestWALRecycledTornFirstRecord(t *testing.T) {
	base, log, w, p := recycledLog(t)
	stale := log.Bytes()
	var id [4]byte
	binary.LittleEndian.PutUint32(id[:], uint32(p))
	first := appendWALRecord(nil, w.AppliedLSN()+1, recWrite, id[:], walPattern(walTestPageSize, 9)...)
	for cut := 1; cut < len(first); cut++ {
		img := append([]byte(nil), stale...)
		copy(img[walHeaderLen:], first[:cut])
		end := walHeaderLen
		if _, err := decodeWALRecord(img[walHeaderLen:], walTestPageSize); err == nil {
			end = len(img)
		}
		reopenImage(t, base, img, end, 5, p, 4)
	}
}

// The probe that tells mid-log corruption from a torn tail counts a record
// only at an LSN a live log could hold past the failure: at or past the
// expected one, past the watermark, and within one LSN per minimal record.
func TestWALProbeCountsOnlyLiveRecords(t *testing.T) {
	for _, tc := range []struct {
		name            string
		expect, applied uint64
		lsn             uint64
		live            bool
	}{
		{"first record, stale at the watermark", 0, 10, 10, false},
		{"first record, stale below the watermark", 0, 10, 3, false},
		{"first record, past the watermark", 0, 10, 11, true},
		{"later record, below the expected LSN", 12, 10, 11, false},
		{"later record, at the expected LSN", 12, 10, 12, true},
		{"later record, next after the expected LSN", 12, 10, 13, true},
		{"later record, out of reach", 12, 10, 1 << 40, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rest := append([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03},
				appendWALRecord(nil, tc.lsn, recAlloc, []byte{7, 0, 0, 0})...)
			if got := probeLiveRecord(rest, walTestPageSize, tc.expect, tc.applied); got != tc.live {
				t.Fatalf("probe found a live record: %v, want %v", got, tc.live)
			}
		})
	}
}

// A due checkpoint rewinds the log file and keeps its length, so the next
// cycle's commits overwrite blocks the file owns; an explicit Checkpoint
// and Close cut the file to its header, whether or not anything was left
// to apply.
func TestWALRecycledFileFootprint(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal")
	base, err := NewFileStore(filepath.Join(dir, "data"), walTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	log, err := OpenFileLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	w := openTestWAL(t, base, log, WALConfig{})
	fileSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(logPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	p, err := w.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := w.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, byte(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.CheckpointIfDue(1); err != nil {
			t.Fatal(err)
		}
		if w.LogSize() != walHeaderLen {
			t.Fatalf("LogSize %d after a due checkpoint, want %d", w.LogSize(), walHeaderLen)
		}
	}

	cycle(4)
	kept := fileSize()
	if kept <= walHeaderLen {
		t.Fatalf("log file %d bytes after a due checkpoint, want the cycle kept", kept)
	}
	cycle(2)
	if got := fileSize(); got != kept {
		t.Fatalf("a shorter cycle changed the file from %d to %d bytes, want it overwritten in place", kept, got)
	}
	if err := w.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, 0x55)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != walHeaderLen {
		t.Fatalf("log file %d bytes after Checkpoint, want %d", got, walHeaderLen)
	}

	// A rewind with nothing committed after it still leaves a tail for
	// Close to cut.
	cycle(3)
	if fileSize() <= walHeaderLen {
		t.Fatal("due checkpoint cut the file")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(); got != walHeaderLen {
		t.Fatalf("log file %d bytes after Close, want %d", got, walHeaderLen)
	}
}

// BenchmarkWALCommitCycle times one durable commit on real files the way a
// shard of the serving stack commits: 106 page images of 4 KiB per batch
// over a FileStore and a FileLog, the log fsynced per commit, and a due
// checkpoint once the log reaches 8 MiB — about every 19th commit, its
// base writes and syncs included in the commit that triggers it. The
// batches cycle over 2 048 pages, so a checkpoint writes about as many
// pages as one cycle touched.
func BenchmarkWALCommitCycle(b *testing.B) {
	const (
		pageSize = 4096
		perBatch = 106
		hot      = 2048
		due      = 8 << 20
	)
	dir := b.TempDir()
	base, err := NewFileStore(filepath.Join(dir, "pages"), pageSize)
	if err != nil {
		b.Fatal(err)
	}
	defer base.Close()
	log, err := OpenFileLog(filepath.Join(dir, "wal"))
	if err != nil {
		b.Fatal(err)
	}
	w, err := OpenWALStore(base, log, WALConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]PageID, hot)
	if err := RunBatch(w, func() error {
		for i := range ids {
			p, err := w.Allocate()
			if err != nil {
				return err
			}
			ids[i] = p.ID
			if err := w.Write(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	if err := w.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	pattern := walPattern(pageSize, 1)
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The WAL keeps what Write hands it, so each batch writes an
		// image of its own, shared by its pages and never touched again.
		data := bytes.Clone(pattern)
		data[0] = byte(i)
		if err := RunBatch(w, func() error {
			for j := 0; j < perBatch; j++ {
				if err := w.Write(&Page{ID: ids[next], Data: data}); err != nil {
					return err
				}
				next = (next + 1) % hot
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		if err := w.CheckpointIfDue(due); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
}
