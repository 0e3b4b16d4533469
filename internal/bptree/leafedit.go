// Leaf-local mutation path, the write-side twin of fastpath.go. Almost
// every Insert and Delete changes one leaf and nothing else, so both
// descend over raw page images (descendToLeaf), and when the operation is
// non-structural they copy the leaf's image into one pooled scratch
// buffer, shift the entry slots there, and Write it back — no *node, no
// []Entry, no per-level page copy. Anything that would change the tree's
// structure (a full leaf, an underflow, an entry the leaf does not hold)
// is declined and runs through insertAt/deleteAt in bptree.go, which
// remain the reference implementation.
//
// Two rules keep the paths interchangeable. The viewed image is never
// written through — pager.Viewer hands out stable snapshots that other
// readers may hold — so the edit happens on the copy and reaches the store
// only through Write. And the copy is laid out exactly as writeNode would
// lay out the decoded node (same header, zero-filled tail), so the two
// paths leave identical bytes in identical pages; leafedit_test.go holds
// them to that on raw store contents.
package bptree

import (
	"encoding/binary"
	"fmt"

	"mobidx/internal/pager"
)

// viewLeaf descends to the leaf that would hold composite (k, v) and
// returns its id, its read-only image and its entry count.
func (t *Tree) viewLeaf(k float64, v uint64) (pager.PageID, []byte, int, error) {
	id, err := t.descendToLeaf(k, v)
	if err != nil {
		return pager.NilPage, nil, 0, err
	}
	d, err := pager.ViewBytes(t.store, id)
	if err != nil {
		return pager.NilPage, nil, 0, err
	}
	count, err := t.checkImage(d, id, true)
	if err != nil {
		return pager.NilPage, nil, 0, err
	}
	if len(d) != t.store.PageSize() {
		return pager.NilPage, nil, 0, fmt.Errorf("bptree: page %d: %d bytes, want %d: %w",
			id, len(d), t.store.PageSize(), pager.ErrPageCorrupt)
	}
	return id, d, count, nil
}

// imageUpperBound is upperBound over a leaf page image: the first index
// whose entry is > (k, v).
func (t *Tree) imageUpperBound(d []byte, count int, k float64, v uint64) int {
	lo, hi := 0, count
	for lo < hi {
		mid := (lo + hi) / 2
		ek, ev := t.leafKV(d, mid)
		if ek < k || (ek == k && ev <= v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// writeLeafEdit writes leaf id as the concatenation of parts — runs of
// encoded entries: slices of the leaf's current image d, or a freshly
// encoded entry — keeping d's next-leaf link.
func (t *Tree) writeLeafEdit(id pager.PageID, d []byte, parts ...[]byte) error {
	pb := pager.GetPageBuf(len(d))
	data := pb.B
	data[0] = typeLeaf
	copy(data[4:8], d[4:8])
	off := headerSize
	for _, part := range parts {
		off += copy(data[off:], part)
	}
	binary.LittleEndian.PutUint16(data[2:4], uint16((off-headerSize)/t.codec.leafEntrySize()))
	err := t.store.Write(&pager.Page{ID: id, Data: data})
	pb.Release()
	return err
}

// insertLeafLocal inserts e (already codec-rounded) when its leaf has
// room, and reports whether it did. It declines, having changed nothing,
// exactly when insertAt would split the leaf.
func (t *Tree) insertLeafLocal(e Entry) (bool, error) {
	id, d, count, err := t.viewLeaf(e.Key, e.Val)
	if err != nil || count >= t.leafCap {
		return false, err
	}
	es := t.codec.leafEntrySize()
	at := headerSize + t.imageUpperBound(d, count, e.Key, e.Val)*es
	var slot [24]byte
	t.encodeEntry(slot[:es], e)
	if err := t.writeLeafEdit(id, d, d[headerSize:at], slot[:es], d[at:headerSize+count*es]); err != nil {
		return false, err
	}
	t.size++
	return true, nil
}

// deleteLeafLocal removes the entry (key, val), key already codec-rounded,
// when its leaf holds it and stays at least half full without it (a root
// leaf may drain to empty), and reports whether it did. It declines,
// having changed nothing, when deleteAt would rebalance or find nothing.
func (t *Tree) deleteLeafLocal(key float64, val uint64) (bool, error) {
	id, d, count, err := t.viewLeaf(key, val)
	if err != nil || (t.height > 1 && count-1 < t.minLeaf()) {
		return false, err
	}
	i := t.imageLowerBound(d, count, key, val)
	if i >= count {
		return false, nil
	}
	if ek, ev := t.leafKV(d, i); ek != key || ev != val {
		return false, nil
	}
	es := t.codec.leafEntrySize()
	at := headerSize + i*es
	if err := t.writeLeafEdit(id, d, d[headerSize:at], d[at+es:headerSize+count*es]); err != nil {
		return false, err
	}
	t.size--
	return true, nil
}

// collapseRoot replaces an internal root left with a single child by that
// child, repeatedly. Only a merge among the root's children can leave it
// so, which makes this the tail of a structural delete; the root's count
// is read from its image header, not by decoding it.
func (t *Tree) collapseRoot() error {
	for t.height > 1 {
		d, err := pager.ViewBytes(t.store, t.root)
		if err != nil {
			return err
		}
		count, err := t.checkImage(d, t.root, false)
		if err != nil || count > 0 {
			return err
		}
		kid := t.childAt(d, 0)
		if kid == pager.NilPage {
			return fmt.Errorf("bptree: page %d: nil child pointer: %w", t.root, pager.ErrPageCorrupt)
		}
		old := t.root
		t.root = kid
		t.height--
		if err := t.store.Free(old); err != nil {
			return err
		}
	}
	return nil
}
