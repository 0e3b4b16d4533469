package pager

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

// allocWAL opens a WALStore over a MemStore and the given log with n pages
// allocated, written and committed once — so the committed table already
// has their keys.
func allocWAL(t testing.TB, log LogFile, n int) (*WALStore, []PageID) {
	t.Helper()
	w, err := OpenWALStore(NewMemStore(DefaultPageSize), log, WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]PageID, n)
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		p, err := w.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = p.ID
		if err := w.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return w, ids
}

// stageAll opens a batch on s and rewrites every page of ids in it, each
// with a copy of data that the store then owns.
func stageAll(t testing.TB, s Store, ids []PageID, data []byte) {
	t.Helper()
	if err := s.(Batcher).Begin(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := s.Write(&Page{ID: id, Data: bytes.Clone(data)}); err != nil {
			t.Fatal(err)
		}
	}
}

// A commit encodes its records into a pooled frame chunk: what it
// allocates does not depend on how many pages the batch staged — no
// per-page payload, no per-record buffer. Staging is outside the
// measurement; the commit of 512 pages may cost no more than that of 8.
func TestCommitZeroAllocPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop frame chunks at random")
	}
	data := make([]byte, DefaultPageSize)
	measure := func(n int) (objects, bytes uint64) {
		// One P for the whole measurement: a frame chunk a commit puts back
		// lands in its P's private sync.Pool slot, which a Get on another
		// P cannot take, so a goroutine that migrates between rounds would
		// see the pool re-make a 256 KiB chunk in the reading.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		// A log that does not grow its buffer inside the measurement.
		w, ids := allocWAL(t, &MemLog{buf: make([]byte, 0, 16<<20)}, n)
		var before, after runtime.MemStats
		for round := 0; round < 4; round++ { // the last round is the reading
			stageAll(t, w, ids, data)
			runtime.ReadMemStats(&before)
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
		}
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	smallObjs, smallBytes := measure(8)
	bigObjs, bigBytes := measure(512)
	if bigObjs > smallObjs+2 || bigBytes > smallBytes+1024 || smallObjs > 8 {
		t.Fatalf("commit of 8 pages allocates %d objects / %d B, of 512 pages %d objects / %d B; want the same O(1)",
			smallObjs, smallBytes, bigObjs, bigBytes)
	}
}

// Buffered.Write over a WALStore copies nothing: the pool's frame and the
// WAL's staged image are the slice the caller handed over. What a write
// allocates is the caller's page image and Page, and the frame header.
func TestPoolWriteZeroAllocBeyondImage(t *testing.T) {
	w, ids := allocWAL(t, NewMemLog(), 64)
	buf := NewBuffered(w, 256)
	stageAll(t, buf, ids, make([]byte, DefaultPageSize)) // every page now has its slot in the open batch
	i := 0
	write := func() {
		id := ids[i%len(ids)]
		i++
		if err := buf.Write(&Page{ID: id, Data: make([]byte, DefaultPageSize)}); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, write); allocs > 3 {
		t.Fatalf("a pool write allocates %.1f objects, want <= 3 (the caller's image and Page, the frame header)", allocs)
	}
	const rounds = 2000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		write()
	}
	runtime.ReadMemStats(&after)
	perWrite := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	if budget := float64(DefaultPageSize + 128); perWrite > budget {
		t.Fatalf("a pool write allocates %.0f B, want <= %.0f (one page image and change)", perWrite, budget)
	}
	if err := buf.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// MemStore.Allocate makes one page image, the caller's: the page itself
// reads as the store's shared zero image until its first Write replaces
// it. Freeing each page again keeps the allocator and the page map at a
// fixed size, so the count is Allocate's own.
func TestMemStoreAllocateZeroAllocBeyondImage(t *testing.T) {
	m := NewMemStore(DefaultPageSize)
	allocate := func() {
		p, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Free(p.ID); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, allocate); allocs > 2 {
		t.Fatalf("an Allocate makes %.1f objects, want <= 2 (the caller's image and Page)", allocs)
	}
	p, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Read(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, make([]byte, DefaultPageSize)) {
		t.Fatal("a page allocated but not written does not read as zeros")
	}
}

// A pool miss on a page the WAL still holds installs the WAL's own image
// as the frame: the frame header is the only allocation.
func TestPoolMissZeroAllocFromWALTable(t *testing.T) {
	w, ids := allocWAL(t, NewMemLog(), 2)
	buf := NewBuffered(w, 1) // two pages, one frame: every view misses
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		id := ids[i%2]
		i++
		frame, err := buf.View(id)
		if err != nil {
			t.Fatal(err)
		}
		if img, _ := w.View(id); &frame[0] != &img[0] {
			t.Fatal("the frame is not the WAL's image")
		}
	})
	if allocs != 1 {
		t.Fatalf("a pool miss served from the WAL table allocates %.1f objects, want 1 (the frame header)", allocs)
	}
}

// A pool hit hands out the frame's image under the latch and relinks the
// frame in the recency ring: it allocates nothing.
func TestPoolHitZeroAlloc(t *testing.T) {
	w, ids := allocWAL(t, NewMemLog(), 8)
	buf := NewBuffered(w, len(ids))
	for _, id := range ids {
		if _, err := buf.View(id); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := buf.View(ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("a pool hit allocates %.1f objects, want 0", allocs)
	}
}

// BenchmarkBufferedView times Buffered.View over a WALStore on one and on
// two goroutines, all hits (every page in the pool) and all misses (a
// pool of a quarter of the pages, which each goroutine cycles through its
// own half of in order, so every view evicts a page cycled before it).
func BenchmarkBufferedView(b *testing.B) {
	const pages = 256
	for _, bc := range []struct {
		name     string
		capacity int
	}{{"hit", pages}, {"miss", pages / 4}} {
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", bc.name, procs), func(b *testing.B) {
				w, ids := allocWAL(b, NewMemLog(), pages)
				buf := NewBuffered(w, bc.capacity)
				for _, id := range ids {
					if _, err := buf.View(id); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < procs; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := g; i < b.N; i += procs {
							if _, err := buf.View(ids[i%pages]); err != nil {
								b.Error(err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkWALCommit times Commit alone — staging runs with the timer
// stopped — for batches of 1 to 4096 pages on a MemLog and on a FileLog
// (no fsync cost hidden: Sync is part of the commit), and reports how many
// log appends a commit made.
func BenchmarkWALCommit(b *testing.B) {
	for _, media := range []string{"memlog", "filelog"} {
		for _, n := range []int{1, 16, 106, 4096} {
			b.Run(fmt.Sprintf("%s/pages=%d", media, n), func(b *testing.B) {
				var under LogFile = NewMemLog()
				if media == "filelog" {
					fl, err := OpenFileLog(filepath.Join(b.TempDir(), "wal"))
					if err != nil {
						b.Fatal(err)
					}
					under = fl
				}
				log := &countingLog{LogFile: under}
				w, ids := allocWAL(b, log, n)
				data := make([]byte, DefaultPageSize)
				log.appends = 0
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					if w.LogSize() > 64<<20 {
						if err := w.Checkpoint(); err != nil {
							b.Fatal(err)
						}
					}
					data[0] = byte(i)
					stageAll(b, w, ids, data)
					b.StartTimer()
					if err := w.Commit(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(log.appends)/float64(b.N), "appends/op")
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// FileStore.Write stamps the page's trailer into the store's own slot
// buffer under its exclusive latch: checksumming a write allocates nothing.
func TestFileStoreWriteZeroAlloc(t *testing.T) {
	fs, _ := newChecksum(t, DefaultPageSize)
	p, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Write(p); err != nil { // the file grows once, outside the reading
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		p.Data[0]++
		if err := fs.Write(p); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("FileStore.Write allocates %v objects per call, want 0", n)
	}
}
