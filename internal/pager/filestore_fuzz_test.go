package pager

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"mobidx/internal/pager/crashtest"
)

// fileOf returns an in-memory File holding img.
func fileOf(t testing.TB, img []byte) *crashtest.File {
	f := crashtest.NewFile(crashtest.NewMedia(crashtest.KeepAll, 0))
	if _, err := f.WriteAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return f
}

// chainedImage builds a 128-byte-page store whose two meta records both
// name free-list chains, and returns its bytes with the newer record's
// chain head.
func chainedImage(t testing.TB) ([]byte, PageID) {
	f := crashtest.NewFile(crashtest.NewMedia(crashtest.KeepAll, 0))
	fs, err := OpenFileStoreOn(f, 128)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 60; i++ {
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
	for _, free := range [][]PageID{ids[:40], ids[40:45]} {
		for _, id := range free {
			if err := fs.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	img := make([]byte, 61*(128+trailerSize))
	if _, err := f.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img, fs.chain[0]
}

// FuzzOpenFileStore opens arbitrary bytes as a pages file — both meta
// records and the chain pages they name. The result must be a store or an
// error wrapping ErrBadMeta, never a panic or an endless chain walk. An
// opened store then reads every live page the file holds: each read
// returns the page of a slot that verifies (or is all zero, a page never
// written), or ErrPageCorrupt.
func FuzzOpenFileStore(f *testing.F) {
	const slot = 128 + trailerSize
	img, head := chainedImage(f)
	f.Add(img)
	f.Add(img[:100])
	f.Add([]byte{})
	for _, off := range []int{20, 64 + 20, 64 + 33, int(head)*slot + 9, 7*slot + 50, 8*slot - 1} {
		bad := append([]byte(nil), img...)
		bad[off] ^= 0x10
		f.Add(bad)
	}
	// The chain's first page pointing back at itself, checksum intact.
	cycle := append([]byte(nil), img...)
	page := cycle[int(head)*slot : int(head+1)*slot]
	binary.LittleEndian.PutUint32(page[0:4], uint32(head))
	stampTrailer(page)
	f.Add(cycle)
	f.Fuzz(func(t *testing.T, data []byte) {
		file := fileOf(t, data)
		fs, err := recoverFileStore(file)
		if err != nil {
			if !errors.Is(err, ErrBadMeta) {
				t.Fatalf("open error outside ErrBadMeta: %v", err)
			}
			return
		}
		if n := fs.PagesInUse(); n < 0 {
			t.Fatalf("PagesInUse = %d", n)
		}
		for _, id := range append(fs.chain, fs.alloc.free...) {
			if fs.alloc.live(id) {
				t.Fatalf("page %d is free or in the chain, and live", id)
			}
		}
		raw := make([]byte, fs.pageSize+trailerSize)
		for id := PageID(1); id < fs.alloc.next && fs.offset(id) < int64(len(data)); id++ {
			if !fs.alloc.live(id) {
				continue
			}
			p, err := fs.Read(id)
			if err != nil {
				if !errors.Is(err, ErrPageCorrupt) {
					t.Fatalf("read page %d: %v, want ErrPageCorrupt", id, err)
				}
				continue
			}
			clear(raw)
			_, _ = file.ReadAt(raw, fs.offset(id))
			if verifyTrailer(raw) != nil && !allZero(raw) {
				t.Fatalf("page %d read back although its slot does not verify", id)
			}
			if !bytes.Equal(p.Data, raw[:fs.pageSize]) {
				t.Fatalf("page %d read back bytes its slot does not hold", id)
			}
		}
	})
}
