package pager

import (
	"bytes"
	"errors"
	"testing"
)

// heldView is a slice a reader took from View with a copy of what it
// showed then; the two must never come apart.
type heldView struct {
	step string
	view []byte
	snap []byte
}

// shareStack is Buffered over [a wrapper over] a WALStore on a MemStore.
type shareStack struct {
	w        *WALStore
	buf      *Buffered
	forwards bool // the wrapper forwards Batcher to the WALStore
	held     []heldView
}

func (s *shareStack) begin(t *testing.T) {
	t.Helper()
	if err := s.buf.Begin(); err != nil {
		t.Fatal(err)
	}
	if !s.forwards {
		if err := s.w.Begin(); err != nil {
			t.Fatal(err)
		}
	}
}

func (s *shareStack) end(t *testing.T, commit bool) {
	t.Helper()
	pool, wal := s.buf.Commit, s.w.Commit
	if !commit {
		pool, wal = s.buf.Rollback, s.w.Rollback
	}
	if err := pool(); err != nil {
		t.Fatal(err)
	}
	if !s.forwards {
		if err := wal(); err != nil {
			t.Fatal(err)
		}
	}
}

// write hands a fresh image tagged tag to the pool, as every encoder
// does, and returns it.
func (s *shareStack) write(t *testing.T, id PageID, tag byte) []byte {
	t.Helper()
	data := walPattern(s.buf.PageSize(), tag)
	if err := s.buf.Write(&Page{ID: id, Data: data}); err != nil {
		t.Fatal(err)
	}
	return data
}

// view checks that the pool serves the image tagged tag and holds on to
// the slice.
func (s *shareStack) view(t *testing.T, step string, id PageID, tag byte) []byte {
	t.Helper()
	v, err := s.buf.View(id)
	if err != nil {
		t.Fatalf("%s: view: %v", step, err)
	}
	if !bytes.Equal(v, walPattern(s.buf.PageSize(), tag)) {
		t.Fatalf("%s: pool serves image %#x.., want tag %#x", step, v[:2], tag)
	}
	s.held = append(s.held, heldView{step, v, append([]byte(nil), v...)})
	return v
}

func (s *shareStack) checkHeld(t *testing.T, step string) {
	t.Helper()
	for _, h := range s.held {
		if !bytes.Equal(h.view, h.snap) {
			t.Fatalf("after %s: the view taken at %q changed under its reader", step, h.step)
		}
	}
}

// Store.Write takes ownership of the caller's slice, so pool frames, WAL
// images and the slices the encoders handed over are the same arrays, and
// every one of them must stay what it was when a reader took it: through
// rewrites inside a batch, commit, checkpoint, a later write and a
// rollback. A wrapper that forwards the *Page (FaultStore without a
// fault) hands the WAL the caller's slice; one that builds its own page
// (copyingStore, a tearing FaultStore) hands it that page instead, while
// the pool's frame is still the caller's slice.
func TestSharedImagesStayImmutable(t *testing.T) {
	for _, tc := range []struct {
		name       string
		mid        func(Store) Store
		forwards   bool
		shares     bool // a Write leaves frame and WAL image one slice
		sharesMiss bool // so does a View miss
	}{
		{"direct", func(s Store) Store { return s }, true, true, true},
		{"copying", func(s Store) Store { return copyingStore{s} }, false, false, false},
		{"faultstore-quiet", func(s Store) Store { return NewFaultStore(s, FaultConfig{}) }, true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := openTestWAL(t, NewMemStore(walTestPageSize), NewMemLog(), WALConfig{})
			s := &shareStack{w: w, buf: NewBuffered(tc.mid(w), 16), forwards: tc.forwards}
			p, err := s.buf.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			id := p.ID
			// handedOver checks that the pool's frame is the slice the
			// caller wrote, and that the WAL's staged or committed image is
			// it too when the stack shares.
			handedOver := func(step string, data []byte) {
				t.Helper()
				frame, err := s.buf.View(id)
				if err != nil {
					t.Fatal(err)
				}
				img, err := w.View(id)
				if err != nil {
					t.Fatal(err)
				}
				if &frame[0] != &data[0] {
					t.Fatalf("%s: the pool frame is not the caller's slice", step)
				}
				if got := &img[0] == &data[0]; got != tc.shares {
					t.Fatalf("%s: the WAL image is the caller's slice: %v, want %v", step, got, tc.shares)
				}
			}
			sameArray := func(step string, want bool) {
				t.Helper()
				frame, err := s.buf.View(id)
				if err != nil {
					t.Fatal(err)
				}
				img, err := w.View(id)
				if err != nil {
					t.Fatal(err)
				}
				if got := &frame[0] == &img[0]; got != want {
					t.Fatalf("%s: frame and WAL image share a backing array: %v, want %v", step, got, want)
				}
			}

			handedOver("first write", s.write(t, id, 0x10))
			first := s.view(t, "first write", id, 0x10)

			s.begin(t)
			handedOver("staged once", s.write(t, id, 0x11))
			s.view(t, "staged once", id, 0x11)
			staged := s.write(t, id, 0x12)
			handedOver("staged twice", staged)
			s.view(t, "staged twice", id, 0x12)
			s.checkHeld(t, "two writes in one batch")
			s.end(t, true)
			s.view(t, "committed", id, 0x12)
			handedOver("committed", staged)
			s.checkHeld(t, "commit")

			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if w.PendingPages() != 0 {
				t.Fatalf("checkpoint left %d images in the table", w.PendingPages())
			}
			s.view(t, "checkpointed", id, 0x12)
			s.checkHeld(t, "checkpoint")
			s.buf.Clear() // and the base's image, through both View paths
			s.view(t, "checkpointed, from the base", id, 0x12)

			handedOver("write after checkpoint", s.write(t, id, 0x13))
			s.view(t, "write after checkpoint", id, 0x13)
			s.checkHeld(t, "write after checkpoint")

			s.begin(t)
			s.write(t, id, 0x14)
			s.view(t, "staged, doomed", id, 0x14)
			s.end(t, false)
			s.view(t, "rolled back", id, 0x13)
			sameArray("rolled back", tc.sharesMiss)
			s.checkHeld(t, "rollback")

			if !bytes.Equal(first, walPattern(s.buf.PageSize(), 0x10)) {
				t.Fatal("the first view no longer shows the first image")
			}
			// Read hands out private copies at every layer.
			for _, read := range []func(PageID) (*Page, error){s.buf.Read, w.Read} {
				pg, err := read(id)
				if err != nil {
					t.Fatal(err)
				}
				for i := range pg.Data {
					pg.Data[i] = 0xEE
				}
			}
			s.view(t, "after scribbling on Read results", id, 0x13)
			s.checkHeld(t, "scribbling on Read results")
		})
	}
}

// copyingStore is a wrapper that writes a page of its own: a copy of the
// caller's bytes.
type copyingStore struct{ Store }

func (c copyingStore) Write(p *Page) error {
	return c.Store.Write(&Page{ID: p.ID, Data: append([]byte(nil), p.Data...)})
}

// A torn write reaches the WAL as a page the FaultStore built: the WAL
// stages that page, not the caller's, and the pool — told the write
// failed — installs nothing.
func TestTornWriteIsNotShared(t *testing.T) {
	w := openTestWAL(t, NewMemStore(walTestPageSize), NewMemLog(), WALConfig{})
	fs := NewFaultStore(w, FaultConfig{Seed: 7})
	buf := NewBuffered(fs, 16)
	p, err := buf.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := buf.Write(&Page{ID: p.ID, Data: walPattern(walTestPageSize, 0x21)}); err != nil {
		t.Fatal(err)
	}
	good, err := buf.View(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetConfig(FaultConfig{Seed: 7, Write: OpFaults{FailEvery: 1}, TornWrites: true})
	if err := buf.Begin(); err != nil {
		t.Fatal(err)
	}
	torn := walPattern(walTestPageSize, 0x22)
	err = buf.Write(&Page{ID: p.ID, Data: torn})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write: %v, want an injected fault", err)
	}
	frame, err := buf.View(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if &frame[0] != &good[0] {
		t.Fatal("the pool replaced its frame on a failed write")
	}
	staged, err := w.View(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if &staged[0] == &good[0] || &staged[0] == &torn[0] || bytes.Equal(staged, good) || bytes.Equal(staged, torn) {
		t.Fatal("the torn image did not reach the WAL as a slice of its own")
	}
	if err := buf.Rollback(); err != nil {
		t.Fatal(err)
	}
	after, err := buf.View(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, walPattern(walTestPageSize, 0x21)) || !bytes.Equal(good, after) {
		t.Fatal("rollback did not restore the committed image")
	}
}
