package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// RecordChain is a log of fixed-stride records stored in a linked list of
// pages whose head never moves. It is the one durable-bookkeeping
// primitive above the Store interface: a shard's motion catalog (33-byte
// records, no magic), its superblock and the cluster manifest (a blob —
// stride 1 — behind an 8-byte magic) are all chains. Every page is
//
//	magic ‖ next u32 ‖ used u32 ‖ records (used bytes) ‖ pad ‖ CRC-32C u32
//
// and holds ⌊(pageSize − len(magic) − 12) / stride⌋ whole records, so a
// record never straddles a page. A chain with a magic describes itself:
// FindRecordChain locates its head on a reopened store with a bounded scan
// of the low page ids, with no reliance on store-specific metadata areas.
//
// Append, Rewrite and RewriteFunc must run inside the owner's open batch
// (RunBatch), so the chain commits atomically with the mutation it
// describes and a crash recovers exactly the old or exactly the new log. The in-memory page list
// mirrors the staged state and is only to be trusted once that batch
// commits; an owner whose batch failed must not use the chain again.
// Everything read back from a page is bounds-checked, and a page that
// fails a check is an error wrapping ErrPageCorrupt, never a panic.
type RecordChain struct {
	store  Store
	magic  string
	stride int
	hdr    int      // len(magic) + next + used
	cap    int      // record bytes per page, a multiple of stride
	pages  []PageID // the whole chain, head first
}

// ErrChainNotFound is FindRecordChain's "fresh media": no page among the
// low ids carries the magic.
var ErrChainNotFound = errors.New("pager: record chain not found")

// errChainGeometry marks a magic, stride and page size that no chain can
// be laid out with.
var errChainGeometry = errors.New("pager: record chain geometry")

// chainScanLimit bounds FindRecordChain's scan. Chain heads are allocated
// in a fresh store's first batch (right after the WAL watermark page), so
// their ids are single digits; 64 leaves generous slack.
const chainScanLimit = 64

func newRecordChain(store Store, magic string, stride int) (*RecordChain, error) {
	c := &RecordChain{store: store, magic: magic, stride: stride, hdr: len(magic) + 8}
	if len(magic) != 0 && len(magic) != 8 {
		return nil, fmt.Errorf("%w: magic %q must be empty or 8 bytes", errChainGeometry, magic)
	}
	room := store.PageSize() - c.hdr - 4
	if stride < 1 || room < stride {
		return nil, fmt.Errorf("%w: a %d-byte page holds no %d-byte record after a %d-byte header and a trailer",
			errChainGeometry, store.PageSize(), stride, c.hdr)
	}
	c.cap = room / stride * stride
	return c, nil
}

// InitRecordChain allocates the head of a new, empty chain.
func InitRecordChain(store Store, magic string, stride int) (*RecordChain, error) {
	c, err := newRecordChain(store, magic, stride)
	if err != nil {
		return nil, err
	}
	if err := c.Rewrite(nil); err != nil { // allocates the head
		return nil, err
	}
	return c, nil
}

// AttachRecordChain walks an existing chain from head, validating every
// page. visit, when non-nil, is handed each page's records as Scan would,
// so an owner that derives counters from the log reads it once.
func AttachRecordChain(store Store, magic string, stride int, head PageID, visit func(recs []byte) error) (*RecordChain, error) {
	c, err := newRecordChain(store, magic, stride)
	if err != nil {
		return nil, err
	}
	if c.pages, err = c.walk(head, visit); err != nil {
		return nil, err
	}
	return c, nil
}

// FindRecordChain scans the low page ids for a page carrying the magic and
// a valid checksum and attaches the chain that starts there. Unallocated
// and reserved ids are skipped; any other read error propagates — a
// half-broken store must not be mistaken for a fresh one, which is
// ErrChainNotFound.
func FindRecordChain(store Store, magic string, stride int) (*RecordChain, error) {
	c, err := newRecordChain(store, magic, stride)
	if err != nil {
		return nil, err
	}
	for id := PageID(1); id <= chainScanLimit; id++ {
		p, err := store.Read(id)
		if err != nil {
			if errors.Is(err, ErrPageNotFound) || errors.Is(err, ErrReservedPage) {
				continue
			}
			return nil, fmt.Errorf("pager: record chain scan page %d: %w", id, err)
		}
		if len(p.Data) < c.hdr+4 || string(p.Data[:8]) != magic || verifyTrailer(p.Data) != nil {
			continue
		}
		if c.pages, err = c.walk(id, nil); err != nil {
			return nil, fmt.Errorf("pager: record chain head %d: %w", id, err)
		}
		return c, nil
	}
	return nil, ErrChainNotFound
}

// Head returns the id of the chain's first page; it never changes.
func (c *RecordChain) Head() PageID { return c.pages[0] }

// decode validates one page image and returns its records (aliasing data)
// and its successor.
func (c *RecordChain) decode(id PageID, data []byte) (recs []byte, next PageID, err error) {
	corrupt := func(what string) ([]byte, PageID, error) {
		return nil, 0, fmt.Errorf("pager: record chain page %d: %s: %w", id, what, ErrPageCorrupt)
	}
	if len(data) < c.hdr+c.cap+4 {
		return corrupt(fmt.Sprintf("%d-byte image", len(data)))
	}
	if string(data[:len(c.magic)]) != c.magic {
		return corrupt("bad magic")
	}
	if err := verifyTrailer(data); err != nil {
		return corrupt(err.Error())
	}
	next = PageID(binary.LittleEndian.Uint32(data[c.hdr-8:]))
	used := int(binary.LittleEndian.Uint32(data[c.hdr-4:]))
	if used > c.cap || used%c.stride != 0 {
		return corrupt(fmt.Sprintf("used %d of %d at stride %d", used, c.cap, c.stride))
	}
	return data[c.hdr : c.hdr+used], next, nil
}

// walk follows the next links from head, handing fn (when non-nil) each
// page's records, and returns the ids it visited. A chain cannot have more
// pages than its store has live ones, which bounds a walk over links that
// cycle.
func (c *RecordChain) walk(head PageID, fn func(recs []byte) error) ([]PageID, error) {
	if head == NilPage {
		return nil, fmt.Errorf("pager: record chain: nil head: %w", ErrPageCorrupt)
	}
	limit := c.store.PagesInUse()
	var ids []PageID
	for id := head; id != NilPage; {
		if len(ids) >= limit {
			return nil, fmt.Errorf("pager: record chain from %d: more than the store's %d pages, a cycle: %w",
				head, limit, ErrPageCorrupt)
		}
		data, err := ViewBytes(c.store, id)
		if err != nil {
			return nil, err
		}
		recs, next, err := c.decode(id, data)
		if err != nil {
			return nil, err
		}
		if fn != nil {
			if err := fn(recs); err != nil {
				return nil, err
			}
		}
		ids = append(ids, id)
		id = next
	}
	return ids, nil
}

// Scan hands fn each page's records in log order. The slice aliases a page
// image, possibly the store's own (ViewBytes): it is read-only and only
// valid during the call.
func (c *RecordChain) Scan(fn func(recs []byte) error) error {
	_, err := c.walk(c.pages[0], fn)
	return err
}

// Bytes returns the chain's records concatenated: a blob chain's payload.
func (c *RecordChain) Bytes() ([]byte, error) {
	var out []byte
	err := c.Scan(func(recs []byte) error {
		out = append(out, recs...)
		return nil
	})
	return out, err
}

// fill lays size bytes of records over the chain from its i-th page on,
// every page but the last full: pages the records no longer reach are
// freed, missing ones allocated, and the rest rewritten in place. put
// encodes the records straight into each page image: it is handed the
// image's record area and the offset of its first byte in the records.
// An allocated page is encoded into the image Allocate returned for it; a
// rewritten one gets a fresh image, since the store may still share the
// old one with readers.
func (c *RecordChain) fill(i, size int, put func(dst []byte, off int)) error {
	if size%c.stride != 0 {
		return fmt.Errorf("pager: record chain from %d: %d bytes are not whole %d-byte records",
			c.pages[0], size, c.stride)
	}
	end := i + max(1, (size+c.cap-1)/c.cap)
	for len(c.pages) > end {
		if err := c.store.Free(c.pages[len(c.pages)-1]); err != nil {
			return err
		}
		c.pages = c.pages[:len(c.pages)-1]
	}
	kept := len(c.pages)
	var fresh [][]byte // the images of pages kept+0, kept+1, …
	for len(c.pages) < end {
		p, err := c.store.Allocate()
		if err != nil {
			return err
		}
		c.pages = append(c.pages, p.ID)
		fresh = append(fresh, p.Data)
	}
	for off := 0; i < end; i++ {
		n := min(size-off, c.cap)
		next := NilPage
		if i+1 < end {
			next = c.pages[i+1]
		}
		var data []byte
		if i >= kept {
			data = fresh[i-kept]
		} else {
			data = make([]byte, c.store.PageSize())
		}
		copy(data, c.magic)
		binary.LittleEndian.PutUint32(data[c.hdr-8:], uint32(next))
		binary.LittleEndian.PutUint32(data[c.hdr-4:], uint32(n))
		put(data[c.hdr:c.hdr+n], off)
		off += n
		stampTrailer(data)
		if err := c.store.Write(&Page{ID: c.pages[i], Data: data}); err != nil {
			return err
		}
	}
	return nil
}

// Append adds whole records to the end of the log: one view of the tail
// page, one write of it with its records and the new ones laid into a
// fresh image, and an allocation and a write for every page the records
// spill into.
func (c *RecordChain) Append(recs []byte) error {
	if len(recs) == 0 {
		return nil
	}
	tail := len(c.pages) - 1
	data, err := ViewBytes(c.store, c.pages[tail])
	if err != nil {
		return err
	}
	cur, _, err := c.decode(c.pages[tail], data)
	if err != nil {
		return err
	}
	// cur stays valid while fill runs: the tail's write installs a fresh
	// image and leaves the one cur aliases as it was.
	return c.fill(tail, len(cur)+len(recs), func(dst []byte, off int) {
		n := copy(dst, cur[min(off, len(cur)):])
		copy(dst[n:], recs[max(0, off-len(cur)):])
	})
}

// Rewrite replaces the whole log with payload. The head keeps its id, so
// whatever names the chain need not change.
func (c *RecordChain) Rewrite(payload []byte) error {
	return c.RewriteFunc(len(payload), func(dst []byte, off int) { copy(dst, payload[off:]) })
}

// RewriteFunc replaces the whole log with size bytes of records that put
// encodes into the page images as they are laid out: each call fills dst,
// whole records only, with the records' bytes from offset off on.
func (c *RecordChain) RewriteFunc(size int, put func(dst []byte, off int)) error {
	return c.fill(0, size, put)
}
