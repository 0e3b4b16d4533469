package pager

import (
	"bytes"
	"sync"
	"testing"

	"mobidx/internal/leakcheck"
)

// TestBufferedConcurrentStress hammers a shared Buffered(MemStore) pool
// from many goroutines: private pages verify read-your-writes through the
// cache, shared pages are written with uniform patterns so readers can
// detect torn logical pages, and constant alloc/free churn exercises the
// eviction and invalidation paths. Run under -race (scripts/verify.sh
// does).
func TestBufferedConcurrentStress(t *testing.T) {
	under := NewMemStore(256)
	buf := NewBuffered(under, 8)

	const (
		workers = 8
		rounds  = 300
		shared  = 6
	)
	sharedIDs := make([]PageID, shared)
	for i := range sharedIDs {
		p, err := buf.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.Data {
			p.Data[j] = 0x5A
		}
		if err := buf.Write(p); err != nil {
			t.Fatal(err)
		}
		sharedIDs[i] = p.ID
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			report := func(err error) {
				select {
				case errc <- err:
				default:
				}
			}
			var own []PageID
			for r := 0; r < rounds; r++ {
				// Write a uniform pattern to a shared page; concurrent
				// readers must never observe a mix.
				sp := sharedIDs[(w+r)%shared]
				p := &Page{ID: sp, Data: make([]byte, buf.PageSize())}
				pat := byte(1 + (w+r)%250)
				for j := range p.Data {
					p.Data[j] = pat
				}
				if err := buf.Write(p); err != nil {
					report(err)
					return
				}
				got, err := buf.Read(sharedIDs[(w+2*r)%shared])
				if err != nil {
					report(err)
					return
				}
				first := got.Data[0]
				for j := range got.Data {
					if got.Data[j] != first {
						t.Errorf("worker %d round %d: torn shared page %d", w, r, got.ID)
						return
					}
				}
				// Private page lifecycle: alloc, write, read back, free.
				np, err := buf.Allocate()
				if err != nil {
					report(err)
					return
				}
				for j := range np.Data {
					np.Data[j] = byte(w)
				}
				if err := buf.Write(np); err != nil {
					report(err)
					return
				}
				own = append(own, np.ID)
				rd, err := buf.Read(own[r%len(own)])
				if err != nil {
					report(err)
					return
				}
				for j := range rd.Data {
					if rd.Data[j] != byte(w) {
						t.Errorf("worker %d round %d: private page %d corrupted", w, r, rd.ID)
						return
					}
				}
				if len(own) > 10 {
					victim := own[0]
					own = own[1:]
					if err := buf.Free(victim); err != nil {
						report(err)
						return
					}
				}
				if r%50 == 0 && w == 0 {
					buf.Clear()
				}
			}
			for _, id := range own {
				if err := buf.Free(id); err != nil {
					report(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if got := buf.PagesInUse(); got != shared {
		t.Fatalf("PagesInUse = %d, want %d", got, shared)
	}
}

// TestMemStoreConcurrentAllocFree verifies the allocator itself is safe
// under parallel churn: ids handed out concurrently are never duplicated.
func TestMemStoreConcurrentAllocFree(t *testing.T) {
	m := NewMemStore(64)
	const workers = 8
	var mu sync.Mutex
	seen := make(map[PageID]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []PageID
			for i := 0; i < 500; i++ {
				p, err := m.Allocate()
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				seen[p.ID]++
				if seen[p.ID] > 1 {
					mu.Unlock()
					t.Errorf("page %d allocated while held elsewhere", p.ID)
					return
				}
				mu.Unlock()
				held = append(held, p.ID)
				if len(held) > 4 {
					id := held[0]
					held = held[1:]
					mu.Lock()
					seen[id]--
					mu.Unlock()
					if err := m.Free(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSharedImagesConcurrentReaders runs readers against a Buffered over a
// WALStore while one writer rewrites pages twice per batch, commits,
// rolls back and checkpoints. The pool's frames and the WAL's images are
// the same slices, so under -race this is the proof that nothing ever
// writes through one: every slice View returns is uniform when taken and
// byte-identical when looked at again later.
func TestSharedImagesConcurrentReaders(t *testing.T) {
	const (
		pages   = 8
		readers = 4
		rounds  = 400
		doomed  = 0xFF // only rolled-back batches write this tag
	)
	w, err := OpenWALStore(NewMemStore(256), NewMemLog(), WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	buf := NewBuffered(w, pages/2) // half the pages miss
	uniform := func(tag byte) []byte {
		d := make([]byte, buf.PageSize())
		for i := range d {
			d[i] = tag
		}
		return d
	}
	ids := make([]PageID, pages)
	for i := range ids {
		p, err := buf.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = p.ID
		if err := buf.Write(&Page{ID: p.ID, Data: uniform(1)}); err != nil {
			t.Fatal(err)
		}
	}
	tagOf := func(d []byte) (byte, bool) {
		for _, x := range d {
			if x != d[0] {
				return 0, false
			}
		}
		return d[0], true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			type held struct {
				view []byte
				tag  byte
			}
			var keep []held
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[(r+i)%pages]
				v, err := buf.View(id)
				if err != nil {
					t.Errorf("view page %d: %v", id, err)
					return
				}
				tag, ok := tagOf(v)
				if !ok {
					t.Errorf("view of page %d is a mix of images", id)
					return
				}
				keep = append(keep, held{v, tag})
				if len(keep) > 64 {
					keep = keep[1:]
				}
				if h := keep[i%len(keep)]; h.view[0] != h.tag || h.view[len(h.view)-1] != h.tag {
					t.Errorf("a held view changed from tag %#x", h.tag)
					return
				}
			}
		}(r)
	}

	put := func(id PageID, tag byte) error {
		return buf.Write(&Page{ID: id, Data: uniform(tag)})
	}
	for i := 0; i < rounds && !t.Failed(); i++ {
		if err := buf.Begin(); err != nil {
			t.Fatal(err)
		}
		rollback := i%5 == 4
		for j := 0; j < 3; j++ {
			id := ids[(i+j)%pages]
			first, second := byte(2+i%200), byte(3+i%200)
			if rollback {
				first, second = doomed, doomed
			}
			if err := put(id, first); err != nil {
				t.Fatal(err)
			}
			if err := put(id, second); err != nil {
				t.Fatal(err)
			}
		}
		if rollback {
			err = buf.Rollback()
		} else {
			err = buf.Commit()
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestWALConcurrentBatches exercises Begin/Commit from many goroutines at
// once. Concurrent batches join into one merged batch (the documented
// nesting semantics), so the test asserts the weaker but crucial property:
// no operation errors, every write is durable and intact afterwards, and
// the store survives a checkpoint plus recovery-style reads.
func TestWALConcurrentBatches(t *testing.T) {
	leakcheck.Check(t)
	w := openTestWAL(t, NewMemStore(128), NewMemLog(), WALConfig{})
	t.Cleanup(func() { w.Close() })

	const writers = 8
	const rounds = 25
	type owned struct {
		id   PageID
		fill byte
	}
	results := make([][]owned, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				fill := byte(1 + (g*rounds+r)%250)
				err := RunBatch(w, func() error {
					p, err := w.Allocate()
					if err != nil {
						return err
					}
					for i := range p.Data {
						p.Data[i] = fill
					}
					if err := w.Write(p); err != nil {
						return err
					}
					results[g] = append(results[g], owned{id: p.ID, fill: fill})
					return nil
				})
				if err != nil {
					t.Errorf("writer %d round %d: %v", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	verify := func(stage string) {
		t.Helper()
		for g, pages := range results {
			for _, o := range pages {
				p, err := w.Read(o.id)
				if err != nil {
					t.Fatalf("%s: writer %d page %d: %v", stage, g, o.id, err)
				}
				if !bytes.Equal(p.Data, bytes.Repeat([]byte{o.fill}, len(p.Data))) {
					t.Fatalf("%s: writer %d page %d corrupted (want fill %x)",
						stage, g, o.id, o.fill)
				}
			}
		}
	}
	verify("after commit")
	if err := w.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	verify("after checkpoint")
	if got := w.PagesInUse(); got != writers*rounds {
		t.Fatalf("PagesInUse = %d, want %d", got, writers*rounds)
	}
}
