package pager

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobidx/internal/leakcheck"
	"mobidx/internal/pager/crashtest"
)

// blockTimeout bounds how long a call the design promises will not block
// may take; hitting it means the call queued behind the parked I/O.
const blockTimeout = 5 * time.Second

// within runs fn on its own goroutine and fails the test if it has not
// returned within blockTimeout.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(blockTimeout):
		t.Fatalf("%s blocked behind the parked I/O", what)
	}
}

// gate parks the first call that passes it after arming until released.
type gate struct {
	armed  atomic.Bool
	parked chan struct{}
	open   chan struct{}
	once   sync.Once
}

func newGate() *gate { return &gate{parked: make(chan struct{}, 1), open: make(chan struct{})} }

func (g *gate) pass() {
	if g.armed.CompareAndSwap(true, false) {
		g.parked <- struct{}{}
		<-g.open
	}
}

// awaitParked waits for the armed call to park.
func (g *gate) awaitParked(t *testing.T, what string) {
	t.Helper()
	select {
	case <-g.parked:
	case <-time.After(blockTimeout):
		t.Fatalf("never reached %s", what)
	}
}

// release lets the parked call (and every later one) through; tests defer
// it so that a failed check does not strand the parked goroutine.
func (g *gate) release() { g.once.Do(func() { close(g.open) }) }

// parkingStore is a MemStore with a durability point whose Write or Sync
// (per op) passes a gate: it holds a checkpoint inside its I/O phase.
type parkingStore struct {
	*MemStore
	*gate
	op string // "write" or "sync"
}

func (p *parkingStore) Write(pg *Page) error {
	if p.op == "write" {
		p.pass()
	}
	return p.MemStore.Write(pg)
}

func (p *parkingStore) Sync() error {
	if p.op == "sync" {
		p.pass()
	}
	return nil
}

// TestWALCheckpointIOPhase parks a checkpoint inside a base Write and then
// inside a base Sync. Meanwhile View and Read return the
// committed image without waiting, and a batch begun then waits: it
// commits after the checkpoint, into the truncated log, and its records
// survive a reopen.
func TestWALCheckpointIOPhase(t *testing.T) {
	for _, op := range []string{"write", "sync"} {
		t.Run(op, func(t *testing.T) {
			leakcheck.Check(t)
			base := &parkingStore{MemStore: NewMemStore(walTestPageSize), gate: newGate(), op: op}
			log := NewMemLog()
			w := openTestWAL(t, base, log, WALConfig{})
			p, err := w.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			old, img := walPattern(walTestPageSize, 1), walPattern(walTestPageSize, 2)
			if err := w.Write(&Page{ID: p.ID, Data: old}); err != nil {
				t.Fatal(err)
			}
			watermark := w.CommittedSeq()

			base.armed.Store(true)
			checkpointed := make(chan error, 1)
			go func() { checkpointed <- w.Checkpoint() }()
			defer base.release()
			base.awaitParked(t, "a base "+op)

			reads := map[string]func() ([]byte, error){
				"View": func() ([]byte, error) { return w.View(p.ID) },
				"Read": func() ([]byte, error) {
					pg, err := w.Read(p.ID)
					if err != nil {
						return nil, err
					}
					return pg.Data, nil
				},
			}
			for name, read := range reads {
				within(t, name+" during the checkpoint", func() error {
					got, err := read()
					if err == nil && !bytes.Equal(got, old) {
						err = fmt.Errorf("not the committed image")
					}
					return err
				})
			}

			committed := make(chan error, 1)
			go func() {
				committed <- RunBatch(w, func() error { return w.Write(&Page{ID: p.ID, Data: img}) })
			}()
			select {
			case err := <-committed:
				t.Fatalf("a batch ran during the checkpoint's I/O phase (err %v)", err)
			case <-time.After(50 * time.Millisecond):
			}
			base.release()
			if err := <-checkpointed; err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if err := <-committed; err != nil {
				t.Fatalf("batch begun during the checkpoint: %v", err)
			}
			if w.AppliedLSN() == 0 || w.LogSize() <= walHeaderLen || w.CommittedSeq() != watermark+1 {
				t.Fatalf("applied LSN %d, log %d bytes, seq %d: the batch did not land after the checkpoint",
					w.AppliedLSN(), w.LogSize(), w.CommittedSeq())
			}

			w2 := openTestWAL(t, base.MemStore, NewMemLogFrom(log.Bytes()), WALConfig{})
			if w2.CommittedSeq() != watermark+1 {
				t.Fatalf("reopened at seq %d, want %d", w2.CommittedSeq(), watermark+1)
			}
			got, err := w2.Read(p.ID)
			if err != nil || !bytes.Equal(got.Data, img) {
				t.Fatalf("reopened store lost the batch begun during the checkpoint (err %v)", err)
			}
		})
	}
}

// parkingFile is a crash-simulating File whose Sync passes a gate.
type parkingFile struct {
	*crashtest.File
	*gate
}

func (f *parkingFile) Sync() error {
	f.pass()
	return f.File.Sync()
}

// TestFileStoreReadDuringSync parks FileStore.Sync inside File.Sync: a
// Read returns meanwhile, while a second Sync waits for the first.
func TestFileStoreReadDuringSync(t *testing.T) {
	leakcheck.Check(t)
	f := &parkingFile{File: crashtest.NewFile(crashtest.NewMedia(crashtest.KeepAll, 0)), gate: newGate()}
	fs, err := OpenFileStoreOn(f, 256)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fillPage(p, 7)
	if err := fs.Write(p); err != nil {
		t.Fatal(err)
	}

	f.armed.Store(true)
	synced := make(chan error, 2)
	go func() { synced <- fs.Sync() }()
	defer f.release()
	f.awaitParked(t, "File.Sync")
	within(t, "FileStore.Read during Sync", func() error {
		got, err := fs.Read(p.ID)
		if err == nil && !bytes.Equal(got.Data, p.Data) {
			err = fmt.Errorf("page %d changed", p.ID)
		}
		return err
	})
	go func() { synced <- fs.Sync() }()
	select {
	case err := <-synced:
		t.Fatalf("a second Sync finished while the first was in File.Sync (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.release()
	for i := 0; i < 2; i++ {
		if err := <-synced; err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

// parkingLog is a MemLog that counts its Syncs and passes each through a
// gate: it holds a commit inside its log fsync. Once a Sync returns, what
// the log held when that Sync began is durable.
type parkingLog struct {
	*MemLog
	*gate
	syncs   atomic.Int64
	durable atomic.Pointer[[]byte]
}

func (l *parkingLog) Sync() error {
	l.syncs.Add(1)
	img := l.MemLog.Bytes()
	l.pass()
	if err := l.MemLog.Sync(); err != nil {
		return err
	}
	l.durable.Store(&img)
	return nil
}

// TestWALLogSyncOffLatch parks a commit's log fsync. The batch is already
// published: View and Read return its image without waiting. The Commit
// has not returned, and a batch or a checkpoint begun meanwhile waits
// until the fsync ends. A batch marked with DeferSync commits without an
// fsync; SyncLog makes it durable with one, and a second SyncLog finds
// nothing to sync.
func TestWALLogSyncOffLatch(t *testing.T) {
	leakcheck.Check(t)
	log := &parkingLog{MemLog: NewMemLog(), gate: newGate()}
	base := NewMemStore(walTestPageSize)
	w := openTestWAL(t, base, log, WALConfig{})
	p, err := w.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	img := func(tag byte) []byte { return walPattern(walTestPageSize, tag) }
	write := func(tag byte) func() error {
		return func() error { return w.Write(&Page{ID: p.ID, Data: img(tag)}) }
	}

	log.armed.Store(true)
	committed := make(chan error, 1)
	go func() { committed <- RunBatch(w, write(1)) }()
	defer log.release()
	log.awaitParked(t, "the log fsync")
	within(t, "View during the log fsync", func() error {
		if got, err := w.View(p.ID); err != nil || !bytes.Equal(got, img(1)) {
			return fmt.Errorf("not the published image (err %v)", err)
		}
		return nil
	})
	within(t, "Read during the log fsync", func() error {
		if got, err := w.Read(p.ID); err != nil || !bytes.Equal(got.Data, img(1)) {
			return fmt.Errorf("not the published image (err %v)", err)
		}
		return nil
	})
	waiting := make(chan error, 2)
	go func() { waiting <- RunBatch(w, write(2)) }()
	go func() { waiting <- w.CheckpointIfDue(1) }()
	select {
	case err := <-committed:
		t.Fatalf("Commit returned before its log fsync finished (err %v)", err)
	case err := <-waiting:
		t.Fatalf("a batch or checkpoint ran during the log fsync (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	log.release()
	for _, ch := range []chan error{committed, waiting, waiting} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}

	before := log.syncs.Load()
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := write(3)(); err != nil {
		t.Fatal(err)
	}
	w.DeferSync()
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := log.syncs.Load() - before; n != 0 {
		t.Fatalf("a deferred commit synced the log %d times", n)
	}
	if got, err := w.View(p.ID); err != nil || !bytes.Equal(got, img(3)) {
		t.Fatalf("the deferred batch is not published (err %v)", err)
	}
	for i := 0; i < 2; i++ {
		if err := w.SyncLog(); err != nil {
			t.Fatal(err)
		}
	}
	if n := log.syncs.Load() - before; n != 1 {
		t.Fatalf("two SyncLogs after one deferred commit synced the log %d times, want 1", n)
	}
	w2 := openTestWAL(t, base, NewMemLogFrom(log.Bytes()), WALConfig{})
	if got, err := w2.Read(p.ID); err != nil || !bytes.Equal(got.Data, img(3)) {
		t.Fatalf("reopen lost the deferred batch (err %v)", err)
	}
}

// TestWALSyncCoversLaterBatch parks a log fsync that a deferred batch's
// owner started while another batch was already open. That batch's Commit
// must not append during the fsync, which cannot cover its records: it
// waits, appends after the fsync ends, and returns only after a second
// fsync, so a crash right after it finds the batch in the durable log.
func TestWALSyncCoversLaterBatch(t *testing.T) {
	leakcheck.Check(t)
	log := &parkingLog{MemLog: NewMemLog(), gate: newGate()}
	base := NewMemStore(walTestPageSize)
	w := openTestWAL(t, base, log, WALConfig{})
	p, err := w.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	img := func(tag byte) []byte { return walPattern(walTestPageSize, tag) }
	write := func(tag byte) error { return w.Write(&Page{ID: p.ID, Data: img(tag)}) }

	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	w.DeferSync()
	if err := write(1); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := write(2); err != nil {
		t.Fatal(err)
	}

	before := log.syncs.Load()
	log.armed.Store(true)
	synced := make(chan error, 1)
	go func() { synced <- w.SyncLog() }()
	defer log.release()
	log.awaitParked(t, "the deferred batch's log fsync")
	committed := make(chan error, 1)
	go func() { committed <- w.Commit() }()
	select {
	case err := <-committed:
		t.Fatalf("a batch committed during another batch's log fsync (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	log.release()
	for _, ch := range []chan error{synced, committed} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if n := log.syncs.Load() - before; n != 2 {
		t.Fatalf("the deferred sync and the later commit synced the log %d times, want 2", n)
	}
	w2 := openTestWAL(t, base, NewMemLogFrom(*log.durable.Load()), WALConfig{})
	if got, err := w2.Read(p.ID); err != nil || !bytes.Equal(got.Data, img(2)) {
		t.Fatalf("the durable log lacks the batch whose Commit returned (err %v)", err)
	}
}
