package pager

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"

	"mobidx/internal/pager/crashtest"
)

// newChecksum returns a FileStore over an in-memory file, and the file,
// whose bytes the tests damage behind the store's back.
func newChecksum(t *testing.T, pageSize int) (*FileStore, *crashtest.File) {
	t.Helper()
	f := crashtest.NewFile(crashtest.NewMedia(crashtest.KeepAll, 0))
	fs, err := OpenFileStoreOn(f, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return fs, f
}

// slotOf reads page id's whole slot, trailer included, from f.
func slotOf(t *testing.T, fs *FileStore, f *crashtest.File, id PageID) []byte {
	t.Helper()
	raw := make([]byte, fs.pageSize+trailerSize)
	if _, err := f.ReadAt(raw, fs.offset(id)); err != nil {
		t.Fatal(err)
	}
	return raw
}

// putSlot overwrites page id's slot in f.
func putSlot(t *testing.T, fs *FileStore, f *crashtest.File, id PageID, raw []byte) {
	t.Helper()
	if _, err := f.WriteAt(raw, fs.offset(id)); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	fs, f := newChecksum(t, 128)
	if fs.PageSize() != 128 {
		t.Fatalf("page size = %d; the trailer must not shrink it", fs.PageSize())
	}
	p, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Data {
		p.Data[i] = byte(i)
	}
	if err := fs.Write(p); err != nil {
		t.Fatal(err)
	}
	got, err := fs.Read(p.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, p.Data) {
		t.Fatalf("read back %x, wrote %x", got.Data, p.Data)
	}
	raw := slotOf(t, fs, f, p.ID)
	if !bytes.Equal(raw[:128], p.Data) || verifyTrailer(raw) != nil {
		t.Fatal("slot on the media is not the page followed by its CRC-32C")
	}
}

// TestChecksumUnwrittenPageReadsZero reads pages allocated and never
// written: one whose slot lies past the end of the file (a short read) and
// one whose all-zero slot sits below a later page's.
func TestChecksumUnwrittenPageReadsZero(t *testing.T) {
	fs, _ := newChecksum(t, 128)
	hole, _ := fs.Allocate()
	tail, _ := fs.Allocate()
	got, err := fs.Read(tail.ID)
	if err != nil {
		t.Fatalf("never-written page past EOF must read as zeroes, got %v", err)
	}
	if !allZero(got.Data) {
		t.Fatal("expected a zero page past EOF")
	}
	tail.Data[0] = 1
	if err := fs.Write(tail); err != nil {
		t.Fatal(err)
	}
	got, err = fs.Read(hole.ID)
	if err != nil {
		t.Fatalf("never-written page inside the file must read as zeroes, got %v", err)
	}
	if !allZero(got.Data) {
		t.Fatal("expected a zero page inside the file")
	}
}

// TestChecksumDetectsEverySingleBitFlip flips each bit of a stored slot on
// the media in turn, page and trailer, and requires a typed ErrPageCorrupt
// every time: 100% detection.
func TestChecksumDetectsEverySingleBitFlip(t *testing.T) {
	const pageSize = 128
	fs, f := newChecksum(t, pageSize)
	p, _ := fs.Allocate()
	for i := range p.Data {
		p.Data[i] = byte(3 * i)
	}
	if err := fs.Write(p); err != nil {
		t.Fatal(err)
	}
	raw := slotOf(t, fs, f, p.ID)
	for bit := 0; bit < 8*len(raw); bit++ {
		raw[bit/8] ^= 1 << (bit % 8)
		putSlot(t, fs, f, p.ID, raw)
		if _, err := fs.Read(p.ID); !errors.Is(err, ErrPageCorrupt) {
			t.Fatalf("bit %d: corruption not detected (err = %v)", bit, err)
		}
		raw[bit/8] ^= 1 << (bit % 8) // restore
	}
	putSlot(t, fs, f, p.ID, raw)
	if _, err := fs.Read(p.ID); err != nil {
		t.Fatalf("restored slot: %v", err)
	}
}

// TestChecksumDetectsTornWrites overwrites a slot with every possible torn
// prefix of a new version over the old one, and cuts the file's last slot
// at every length, and requires detection for each.
func TestChecksumDetectsTornWrites(t *testing.T) {
	const pageSize = 128
	fs, f := newChecksum(t, pageSize)
	p, _ := fs.Allocate()
	for i := range p.Data {
		p.Data[i] = 0x55
	}
	if err := fs.Write(p); err != nil {
		t.Fatal(err)
	}
	oldRaw := slotOf(t, fs, f, p.ID)
	for i := range p.Data {
		p.Data[i] = 0x99
	}
	if err := fs.Write(p); err != nil {
		t.Fatal(err)
	}
	newRaw := slotOf(t, fs, f, p.ID)
	for cut := 1; cut < len(newRaw); cut++ {
		torn := append([]byte(nil), oldRaw...)
		copy(torn[:cut], newRaw[:cut])
		putSlot(t, fs, f, p.ID, torn)
		if _, err := fs.Read(p.ID); !errors.Is(err, ErrPageCorrupt) {
			t.Fatalf("torn write at %d bytes not detected (err = %v)", cut, err)
		}
	}
	// The page's slot is the file's last: a write that extended the file
	// and tore leaves a short slot whose missing tail reads as zeroes.
	for cut := 1; cut < len(newRaw); cut++ {
		if err := f.Truncate(fs.offset(p.ID)); err != nil {
			t.Fatal(err)
		}
		putSlot(t, fs, f, p.ID, newRaw[:cut])
		if _, err := fs.Read(p.ID); !errors.Is(err, ErrPageCorrupt) {
			t.Fatalf("slot cut at %d bytes by EOF not detected (err = %v)", cut, err)
		}
	}
}

// The zero-page convention is sound only because no genuine page
// checksums to zero while also being all zero: an all-zero page is stored
// with a nonzero trailer, and an all-zero page under any other trailer is
// corrupt.
func TestChecksumZeroPayloadHasNonzeroCRC(t *testing.T) {
	for _, n := range []int{1, 60, 124, 128, 4092, 4096} {
		if crc32.Checksum(make([]byte, n), castagnoli) == 0 {
			t.Fatalf("CRC-32C of %d zero bytes is zero; zero-page convention unsound", n)
		}
	}
	fs, f := newChecksum(t, 128)
	p, _ := fs.Allocate()
	if err := fs.Write(p); err != nil {
		t.Fatal(err)
	}
	raw := slotOf(t, fs, f, p.ID)
	if !allZero(raw[:128]) || allZero(raw[128:]) {
		t.Fatalf("a written zero page stored trailer %x", raw[128:])
	}
	if got, err := fs.Read(p.ID); err != nil || !allZero(got.Data) {
		t.Fatalf("written zero page read back as %v", err)
	}
	raw[128] ^= 0x01
	putSlot(t, fs, f, p.ID, raw)
	if _, err := fs.Read(p.ID); !errors.Is(err, ErrPageCorrupt) {
		t.Fatalf("zero page under a wrong nonzero trailer: %v", err)
	}
}
