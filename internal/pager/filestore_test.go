package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// fillPage writes a recognizable per-page pattern.
func fillPage(p *Page, tag byte) {
	for i := range p.Data {
		p.Data[i] = tag ^ byte(i)
	}
}

func checkPage(t *testing.T, p *Page, tag byte) {
	t.Helper()
	for i := range p.Data {
		if p.Data[i] != tag^byte(i) {
			t.Fatalf("page %d byte %d = %#x, want %#x", p.ID, i, p.Data[i], tag^byte(i))
		}
	}
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	// 256-byte pages hold the 10 freed ids inline, so no chain page holds
	// one of them back.
	fs, err := NewFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	var kept []PageID
	for i := 0; i < 30; i++ {
		p, err := fs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fillPage(p, byte(i))
		if err := fs.Write(p); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, p.ID)
	}
	// Free every third page so the reopened store must recover a free list.
	var freed []PageID
	var live []PageID
	var tags []byte
	for i, id := range kept {
		if i%3 == 0 {
			if err := fs.Free(id); err != nil {
				t.Fatal(err)
			}
			freed = append(freed, id)
		} else {
			live = append(live, id)
			tags = append(tags, byte(i))
		}
	}
	if err := fs.SetUserMeta([]byte("root=7")); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatalf("second Close must be a no-op, got %v", err)
	}
	if _, err := fs.Read(live[0]); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("read after close: %v", err)
	}

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PageSize() != 256 {
		t.Fatalf("recovered page size %d", re.PageSize())
	}
	if string(re.UserMeta()) != "root=7" {
		t.Fatalf("user meta %q", re.UserMeta())
	}
	if re.PagesInUse() != len(live) {
		t.Fatalf("PagesInUse = %d, want %d", re.PagesInUse(), len(live))
	}
	for i, id := range live {
		p, err := re.Read(id)
		if err != nil {
			t.Fatalf("read live page %d: %v", id, err)
		}
		checkPage(t, p, tags[i])
	}
	for _, id := range freed {
		if _, err := re.Read(id); !errors.Is(err, ErrPageNotFound) {
			t.Fatalf("freed page %d readable after reopen: %v", id, err)
		}
	}
	// Freed ids must be recycled before the file grows.
	seen := make(map[PageID]bool)
	for _, id := range freed {
		seen[id] = true
	}
	for range freed {
		p, err := re.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if !seen[p.ID] {
			t.Fatalf("allocation %d did not reuse a freed page", p.ID)
		}
		delete(seen, p.ID)
	}
}

// TestFileStoreReopenLargeFreeList forces the free list past the meta
// record's inline capacity so the chain is exercised (128-byte pages hold
// one inline id and 29 per chain page).
func TestFileStoreReopenLargeFreeList(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	fs, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	var ids []PageID
	for i := 0; i < n; i++ {
		p, err := fs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fillPage(p, byte(i))
		if err := fs.Write(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	for _, id := range ids[:350] {
		if err := fs.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PagesInUse() != 50 {
		t.Fatalf("PagesInUse = %d, want 50", re.PagesInUse())
	}
	for i, id := range ids[350:] {
		p, err := re.Read(id)
		if err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		checkPage(t, p, byte(350+i))
	}
	// Sync/reopen cycles must not leak pages: allocate everything back and
	// confirm the file's page-id space did not balloon.
	for i := 0; i < 350; i++ {
		p, err := re.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if p.ID > PageID(n+20) {
			t.Fatalf("allocation returned id %d; free list lost pages", p.ID)
		}
	}
}

// TestFileStoreCrashAfterSync simulates a crash (no Close) after a Sync:
// reopening must recover the state as of the last Sync.
func TestFileStoreCrashAfterSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	fs, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := fs.Allocate()
	fillPage(p1, 0xA1)
	if err := fs.Write(p1); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Post-sync work that will be "lost" by the crash: the page data may
	// survive, but the allocator state rolls back to the sync point.
	p2, _ := fs.Allocate()
	fillPage(p2, 0xB2)
	_ = fs.Write(p2)
	// Crash: drop the handle without Close/Sync.

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Read(p1.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, got, 0xA1)
}

func TestFileStoreReadPropagatesIOErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	fs, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := fs.Allocate()
	fillPage(p, 1)
	if err := fs.Write(p); err != nil {
		t.Fatal(err)
	}
	// Sever the fd behind the store's back: reads must now surface the
	// real error, not silently decay to a zero page.
	if err := fs.f.Close(); err != nil {
		t.Fatal(err)
	}
	_, rerr := fs.Read(p.ID)
	if rerr == nil {
		t.Fatal("read through closed fd returned no error")
	}
	if errors.Is(rerr, ErrPageNotFound) || errors.Is(rerr, ErrStoreClosed) {
		t.Fatalf("real I/O error mislabeled: %v", rerr)
	}
}

func TestFileStoreUnwrittenPageReadsZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	fs, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	p, _ := fs.Allocate() // allocated, never written: beyond file tail
	got, err := fs.Read(p.ID)
	if err != nil {
		t.Fatalf("unwritten page: %v", err)
	}
	if !allZero(got.Data) {
		t.Fatal("unwritten page not zero")
	}
}

func TestOpenFileStoreRejectsGarbage(t *testing.T) {
	dir := t.TempDir()

	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("this is not a page store at all, not even close"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(garbage); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("garbage file: %v", err)
	}

	// A valid store whose meta records are then corrupted must be rejected
	// by their checksums once both are; one suffices to open it.
	path := filepath.Join(dir, "store.db")
	fs, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := fs.Allocate()
	fillPage(p, 9)
	_ = fs.Write(p)
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{20, 64 + 20} { // inside each record's body
		raw[off] ^= 0xFF
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := OpenFileStore(path)
		if off == 20 {
			if err != nil {
				t.Fatalf("one corrupt meta record: %v", err)
			}
			if err := re.f.Close(); err != nil {
				t.Fatal(err)
			}
		} else if !errors.Is(err, ErrBadMeta) {
			t.Fatalf("corrupt meta: %v", err)
		}
	}
}

// TestFileStoreDetectsBitRotAfterReopen writes a page, reopens the file,
// reads it back, then flips one bit of the page on disk: the next reopen's
// read must fail with ErrPageCorrupt.
func TestFileStoreDetectsBitRotAfterReopen(t *testing.T) {
	const ps = 256
	path := filepath.Join(t.TempDir(), "store.db")
	fs, err := NewFileStore(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fillPage(p, 0x3C)
	if err := fs.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.Read(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, got, 0x3C)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	raw, _ := os.ReadFile(path)
	raw[int(p.ID)*(ps+trailerSize)+10] ^= 0x04
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if _, err := re2.Read(p.ID); !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("bit rot on disk not detected: %v", err)
	}
}

// allocState reopens a pages-file image and reports the allocator state it
// recovers: the live ids and, sorted, the ids Allocate hands out before the
// first id past the image's end (the free list).
func allocState(t *testing.T, img []byte, ps int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "image.db")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen image: %v", err)
	}
	defer fs.Close()
	end := PageID(len(img) / (ps + trailerSize))
	var live, free []PageID
	for id := PageID(1); id < end; id++ {
		if _, err := fs.Read(id); err == nil {
			live = append(live, id)
		}
	}
	for {
		p, err := fs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if p.ID >= end {
			break
		}
		free = append(free, p.ID)
	}
	slices.Sort(free)
	return fmt.Sprintf("live %v free %v", live, free)
}

// TestFileStoreSyncCrashImages reopens the images a crash inside Sync can
// leave behind, with a free list past the meta record's inline capacity:
// Sync, free more pages, Sync again. The second Sync's chain pages under
// the first Sync's meta page, and page 0 made of any prefix of the second
// image's over the first image's remainder, must each open and report
// exactly the first or the second Sync's free and live sets.
func TestFileStoreSyncCrashImages(t *testing.T) {
	const ps, n = 128, 100
	path := filepath.Join(t.TempDir(), "store.db")
	fs, err := NewFileStore(path, ps)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var ids []PageID
	for i := 0; i < n; i++ {
		p, err := fs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		fillPage(p, byte(i))
		if err := fs.Write(p); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.ID)
	}
	image := func(free []PageID) []byte {
		for _, id := range free {
			if err := fs.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}
	img1 := image(ids[:60])
	img2 := image(ids[60:80])
	want1, want2 := allocState(t, img1, ps), allocState(t, img2, ps)
	if want1 == want2 {
		t.Fatal("the two Syncs recovered the same state; test is vacuous")
	}
	check := func(name string, img []byte) {
		t.Helper()
		if got := allocState(t, img, ps); got != want1 && got != want2 {
			t.Fatalf("%s: recovered %s\nwant the first Sync's %s\nor the second's %s", name, got, want1, want2)
		}
	}
	// (a) The second Sync wrote its chain, then crashed before its meta.
	img := append([]byte(nil), img2...)
	copy(img[:ps], img1[:ps])
	check("second chain under first meta", img)
	// (b) The second Sync's meta write tore after c bytes.
	for c := 0; c <= ps; c++ {
		img := append([]byte(nil), img2...)
		copy(img[c:ps], img1[c:ps])
		check(fmt.Sprintf("page 0 torn at %d", c), img)
	}
}

// A pages file of format v2 — slots of exactly one page, data pages
// without trailers — is refused, not read as v3 slots.
func TestOpenFileStoreRefusesV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.db")
	fs, err := NewFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range [][]byte{raw[:64], raw[64:128]} {
		binary.LittleEndian.PutUint32(rec[8:12], 2)
		stampTrailer(rec)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("v2 pages file: %v, want ErrBadMeta", err)
	}
}
