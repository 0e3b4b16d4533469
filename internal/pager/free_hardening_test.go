package pager

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestMemStoreFreeTyping pins the free-path error taxonomy: the reserved
// id 0, double frees, and never-allocated ids each get their own sentinel,
// so callers (and the WAL's replay logic) can tell recoverable conditions
// apart from corruption.
func TestMemStoreFreeTyping(t *testing.T) {
	ms := NewMemStore(128)
	p, err := ms.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Free(0); !errors.Is(err, ErrReservedPage) {
		t.Fatalf("free of id 0: %v, want ErrReservedPage", err)
	}
	if err := ms.Free(p.ID); err != nil {
		t.Fatal(err)
	}
	if err := ms.Free(p.ID); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: %v, want ErrDoubleFree", err)
	}
	if err := ms.Free(p.ID + 100); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("free of never-allocated id: %v, want ErrPageNotFound", err)
	}
}

// TestFileStoreFreeTyping is the FileStore counterpart, including the
// chain case: pages holding the on-disk free list's chain are referenced
// by the persisted meta, so freeing one must be refused as reserved, not
// treated as not-found or silently accepted.
func TestFileStoreFreeTyping(t *testing.T) {
	const ps = 128 // inline free capacity (ps/2-56-4)/4 = 1: chains form fast
	path := filepath.Join(t.TempDir(), "db.pages")
	fs, err := NewFileStore(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	if err := fs.Free(0); !errors.Is(err, ErrReservedPage) {
		t.Fatalf("free of meta slot: %v, want ErrReservedPage", err)
	}

	var ids []PageID
	for i := 0; i < 16; i++ {
		p, err := fs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	for _, id := range ids[1:] {
		if err := fs.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Free(ids[1]); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: %v, want ErrDoubleFree", err)
	}
	if err := fs.Free(ids[len(ids)-1] + 50); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("free of never-allocated id: %v, want ErrPageNotFound", err)
	}

	// Sync spills the 15-entry free list past the one inline slot into
	// chain pages; those pages are reserved until the next Sync.
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if len(fs.chain) == 0 {
		t.Fatal("free list never spilled into a chain; test is vacuous")
	}
	for _, ov := range fs.chain {
		if err := fs.Free(ov); !errors.Is(err, ErrReservedPage) {
			t.Fatalf("free of chain page %d: %v, want ErrReservedPage", ov, err)
		}
	}

	// The taxonomy must survive a reopen from disk.
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if len(fs2.chain) == 0 {
		t.Fatal("reopen lost the chain")
	}
	if err := fs2.Free(fs2.chain[0]); !errors.Is(err, ErrReservedPage) {
		t.Fatalf("free of chain page after reopen: %v, want ErrReservedPage", err)
	}
	if err := fs2.Free(ids[1]); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free after reopen: %v, want ErrDoubleFree", err)
	}
}
