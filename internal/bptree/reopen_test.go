package bptree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mobidx/internal/pager"
)

// encodeMeta packs a tree's Meta into a FileStore user-metadata record.
func encodeMeta(m Meta) []byte {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint32(b[0:4], uint32(m.Root))
	binary.LittleEndian.PutUint32(b[4:8], uint32(m.Height))
	binary.LittleEndian.PutUint64(b[8:16], uint64(m.Size))
	return b
}

func decodeMeta(b []byte) Meta {
	return Meta{
		Root:   pager.PageID(binary.LittleEndian.Uint32(b[0:4])),
		Height: int(binary.LittleEndian.Uint32(b[4:8])),
		Size:   int(binary.LittleEndian.Uint64(b[8:16])),
	}
}

func collectRange(t *testing.T, tr *Tree, lo, hi float64) []Entry {
	t.Helper()
	var out []Entry
	if err := tr.Range(lo, hi, func(e Entry) bool { out = append(out, e); return true }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTreeFileStoreRoundTrip builds a B+-tree on a FileStore, syncs,
// closes, reopens via OpenFileStore + Attach, and requires the identical
// query result set — the crash-recovery acceptance path. The checksummed
// case also reads the closed file and requires every written page slot to
// end in the CRC-32C of its page, so the round trip is known to have gone
// through the store's checksums and not around them.
func TestTreeFileStoreRoundTrip(t *testing.T) {
	for _, checkSlots := range []bool{false, true} {
		name := "plain"
		if checkSlots {
			name = "checksummed"
		}
		t.Run(name, func(t *testing.T) { treeFileStoreRoundTrip(t, checkSlots) })
	}
}

func treeFileStoreRoundTrip(t *testing.T, checkSlots bool) {
	const pageSize = 512
	path := filepath.Join(t.TempDir(), "tree.db")
	fs, err := pager.NewFileStore(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(fs, Config{Codec: Wide})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		e := Entry{Key: float64((i * 31) % 97), Val: uint64(i), Aux: float64(i) / 2}
		if err := tr.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i += 3 {
		if err := tr.Delete(float64((i*31)%97), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := collectRange(t, tr, 10, 60)
	wantLen := tr.Len()
	if err := fs.SetUserMeta(encodeMeta(tr.Meta())); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if checkSlots {
		requireStampedSlots(t, path, pageSize)
	}

	re, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	tr2, err := Attach(re, Config{Codec: Wide}, decodeMeta(re.UserMeta()))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != wantLen {
		t.Fatalf("reopened Len = %d, want %d", tr2.Len(), wantLen)
	}
	got := collectRange(t, tr2, 10, 60)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result set changed across reopen: %d vs %d entries", len(got), len(want))
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The reopened tree must stay fully mutable.
	if err := tr2.Insert(Entry{Key: 42.5, Val: 999999}); err != nil {
		t.Fatal(err)
	}
	if err := tr2.Delete(42.5, 999999); err != nil {
		t.Fatal(err)
	}
}

// requireStampedSlots reads a closed FileStore file and requires every
// page slot after the meta slot to be either all zero (never written, or
// freed) or a page followed by its little-endian CRC-32C (Castagnoli), and
// at least one slot to be written.
func requireStampedSlots(t *testing.T, path string, pageSize int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	table := crc32.MakeTable(crc32.Castagnoli)
	stride := pageSize + 4
	written := 0
	for off := stride; off+stride <= len(raw); off += stride {
		slot := raw[off : off+stride]
		if bytes.Count(slot, []byte{0}) == len(slot) {
			continue
		}
		written++
		if got, want := binary.LittleEndian.Uint32(slot[pageSize:]), crc32.Checksum(slot[:pageSize], table); got != want {
			t.Fatalf("slot %d: trailer %08x, want CRC-32C %08x", off/stride, got, want)
		}
	}
	if written == 0 {
		t.Fatalf("no written page slot in a %d-byte file", len(raw))
	}
}

// TestFileStoreLeafFlipIsCorrupt builds a tree on a FileStore, flips one
// byte of a leaf entry in the closed file, reopens and queries the whole
// key space. The flip must surface as an error wrapping ErrPageCorrupt —
// at Attach or in Range — never as entries that differ from the ones
// written. The entry is found by its bytes, not by a file offset, so the
// test holds for any slot layout.
func TestFileStoreLeafFlipIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.db")
	fs, err := pager.NewFileStore(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := New(fs, Config{Codec: Wide})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	aux := func(i int) float64 { return 1000.125 + float64(i)/1024 }
	for i := 0; i < n; i++ {
		if err := tr.Insert(Entry{Key: float64((i * 31) % 97), Val: uint64(i), Aux: aux(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want := collectRange(t, tr, math.Inf(-1), math.Inf(1))
	if err := fs.SetUserMeta(encodeMeta(tr.Meta())); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var pat [8]byte
	binary.LittleEndian.PutUint64(pat[:], math.Float64bits(aux(n/2)))
	at := bytes.Index(raw, pat[:])
	if at < 0 || bytes.Index(raw[at+1:], pat[:]) >= 0 {
		t.Fatalf("entry %d's aux bytes found %d times, want once", n/2, bytes.Count(raw, pat[:]))
	}
	raw[at+2] ^= 0x10 // a mantissa byte: the entry still decodes, with another aux
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := pager.OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	tr2, err := Attach(re, Config{Codec: Wide}, decodeMeta(re.UserMeta()))
	if err == nil {
		var got []Entry
		err = tr2.Range(math.Inf(-1), math.Inf(1), func(e Entry) bool { got = append(got, e); return true })
		if err == nil {
			if reflect.DeepEqual(got, want) {
				t.Fatal("the flipped byte changed no answer; the test flips the wrong byte")
			}
			t.Fatalf("a flipped leaf byte came back as %d entries with no error", len(got))
		}
	}
	if !errors.Is(err, pager.ErrPageCorrupt) {
		t.Fatalf("flipped leaf: %v, want an error wrapping ErrPageCorrupt", err)
	}
}
