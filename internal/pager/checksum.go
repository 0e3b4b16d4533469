package pager

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrPageCorrupt is returned when a page fails its integrity check: a torn
// write, bit rot, or any other silent corruption detected after the fact.
// It is permanent — retrying the read returns the same bytes — so a
// RetryStore propagates it immediately.
var ErrPageCorrupt = errors.New("pager: page corrupt")

// ChecksumTrailerSize is the number of bytes ChecksumStore reserves at the
// end of each underlying page for the CRC-32C of the payload.
const ChecksumTrailerSize = 4

// castagnoli is the CRC-32C polynomial table (iSCSI/ext4's checksum; a
// hardware instruction on modern CPUs).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ChecksumStore wraps a Store and guards every page with a CRC-32C
// trailer. Write stamps the checksum; Read verifies it and returns a typed
// ErrPageCorrupt on mismatch, so torn writes and bit flips are *detected*
// rather than decoded into garbage by the structure above.
//
// The wrapper steals ChecksumTrailerSize bytes from each page: PageSize
// reports the underlying size minus the trailer, and the structures above
// never see the trailer.
//
// Zero-page convention: a page that is all zeroes end to end — payload and
// trailer — reads as a valid zeroed page. This is what an allocated-but-
// never-written page looks like on every substrate (MemStore and FileStore
// both materialize fresh pages as zeroes), and no genuine write can
// produce it, because the CRC-32C of an all-zero payload is nonzero.
type ChecksumStore struct {
	under Store
	size  int // payload size = under.PageSize() - ChecksumTrailerSize
}

// NewChecksumStore wraps under; its page size must exceed the trailer.
func NewChecksumStore(under Store) (*ChecksumStore, error) {
	size := under.PageSize() - ChecksumTrailerSize
	if size <= 0 {
		return nil, fmt.Errorf("pager: page size %d too small for checksum trailer", under.PageSize())
	}
	return &ChecksumStore{under: under, size: size}, nil
}

// PageSize implements Store: the payload size available to callers.
func (c *ChecksumStore) PageSize() int { return c.size }

// Allocate implements Store. The fresh page is all zeroes, which the
// zero-page convention accepts, so no write is needed to make it readable.
func (c *ChecksumStore) Allocate() (*Page, error) {
	p, err := c.under.Allocate()
	if err != nil {
		return nil, err
	}
	return &Page{ID: p.ID, Data: p.Data[:c.size]}, nil
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Read implements Store, verifying the trailer before returning the
// payload.
func (c *ChecksumStore) Read(id PageID) (*Page, error) {
	p, err := c.under.Read(id)
	if err != nil {
		return nil, err
	}
	if len(p.Data) != c.size+ChecksumTrailerSize {
		return nil, fmt.Errorf("%w: page %d has size %d", ErrPageCorrupt, id, len(p.Data))
	}
	// A page never written is all zero, trailer included, and valid.
	if err := verifyTrailer(p.Data); err != nil && !allZero(p.Data) {
		return nil, fmt.Errorf("%w: page %d %v", ErrPageCorrupt, id, err)
	}
	return &Page{ID: id, Data: p.Data[:c.size]}, nil
}

// Write implements Store, stamping the trailer.
func (c *ChecksumStore) Write(p *Page) error {
	if len(p.Data) != c.size {
		return fmt.Errorf("pager: checksum write page %d: payload %d bytes, want %d", p.ID, len(p.Data), c.size)
	}
	buf := make([]byte, c.size+ChecksumTrailerSize)
	copy(buf, p.Data)
	stampTrailer(buf)
	return c.under.Write(&Page{ID: p.ID, Data: buf})
}

// Free implements Store.
func (c *ChecksumStore) Free(id PageID) error { return c.under.Free(id) }

// Stats implements Store.
func (c *ChecksumStore) Stats() Stats { return c.under.Stats() }

// PagesInUse implements Store.
func (c *ChecksumStore) PagesInUse() int { return c.under.PagesInUse() }

// Sync forwards to the underlying store's durability point, if any.
func (c *ChecksumStore) Sync() error {
	if s, ok := c.under.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Adopt forwards Adopter so WAL recovery works through a ChecksumStore.
func (c *ChecksumStore) Adopt(id PageID) error {
	a, ok := c.under.(Adopter)
	if !ok {
		return fmt.Errorf("pager: %T does not support adopt", c.under)
	}
	return a.Adopt(id)
}

// Disown forwards Adopter.
func (c *ChecksumStore) Disown(id PageID) error {
	a, ok := c.under.(Adopter)
	if !ok {
		return fmt.Errorf("pager: %T does not support disown", c.under)
	}
	return a.Disown(id)
}
