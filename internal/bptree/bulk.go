package bptree

import (
	"encoding/binary"
	"fmt"
	"math"

	"mobidx/internal/pager"
)

// normFill validates a fill fraction; zero selects 0.9 (full packing
// would make the very next inserts split every leaf).
func normFill(fill float64) (float64, error) {
	if fill == 0 {
		fill = 0.9
	}
	if fill <= 0 || fill > 1 {
		return 0, fmt.Errorf("bptree: fill fraction %v outside (0, 1]", fill)
	}
	return fill, nil
}

// BulkLoad replaces the tree's contents with the given entries, building
// bottom-up with leaves packed to the given fill fraction: the entries
// are sorted once, the leaf level is emitted left to right, and each
// internal level is packed from the level below — one sequential page
// write per node, against O(n log_B n) page I/Os for n root-to-leaf
// Inserts. The entries need not be sorted; the input slice is not
// modified.
func (t *Tree) BulkLoad(entries []Entry, fill float64) error {
	fill, err := normFill(fill)
	if err != nil {
		return err
	}
	es := make([]Entry, len(entries))
	for i, e := range entries {
		es[i] = Entry{Key: t.codec.roundKey(e.Key), Val: e.Val, Aux: t.codec.roundKey(e.Aux)}
	}
	sortEntries(es)
	return pager.RunBatch(t.store, func() error { return t.bulkLoad(es, fill) })
}

// BulkLoadSorted is BulkLoad for entries already in (Key, Val) order with
// keys and aux values already at codec precision (SortEntries on
// codec-rounded entries produces exactly this). It skips the copy and the
// sort — the fast path for dataset generators that emit sorted runs — and
// fails without touching the tree if the input breaks either premise.
func (t *Tree) BulkLoadSorted(entries []Entry, fill float64) error {
	fill, err := normFill(fill)
	if err != nil {
		return err
	}
	for i, e := range entries {
		if t.codec.roundKey(e.Key) != e.Key || t.codec.roundKey(e.Aux) != e.Aux {
			return fmt.Errorf("bptree: BulkLoadSorted entry %d not at codec precision", i)
		}
		if i > 0 && e.less(entries[i-1].Key, entries[i-1].Val) {
			return fmt.Errorf("bptree: BulkLoadSorted entries out of order at %d", i)
		}
	}
	return pager.RunBatch(t.store, func() error { return t.bulkLoad(entries, fill) })
}

// SortEntries sorts entries in place by (Key, Val) — the order
// BulkLoadSorted requires — with one scratch allocation regardless of
// input size.
func SortEntries(es []Entry) { sortEntries(es) }

// bulkLoad packs sorted, codec-rounded entries bottom-up. es is read, not
// modified or retained. Each node's slots are encoded into one scratch
// buffer and written through put; a leaf is written once the next one is
// allocated, so that it can link to it.
func (t *Tree) bulkLoad(es []Entry, fill float64) error {
	if err := t.destroy(t.root, t.height); err != nil {
		return err
	}
	sb := pager.GetPageBuf(t.store.PageSize())
	defer sb.Release()
	ies := t.codec.intEntrySize()
	// childRef is a node of the level being built: its first composite,
	// which becomes its separator in the level above, and its page.
	type childRef struct {
		firstK float64
		firstV uint64
		id     pager.PageID
	}
	var level []childRef
	perLeaf := max(1, int(fill*float64(t.leafCap)))
	var prev []Entry
	for start := 0; ; start += perLeaf {
		end := min(start+perLeaf, len(es))
		p, err := t.store.Allocate()
		if err != nil {
			return err
		}
		if len(level) > 0 {
			if err := t.put(level[len(level)-1].id, true, p.ID, t.encodeLeaf(sb.B, prev)); err != nil {
				return err
			}
		}
		ref := childRef{id: p.ID}
		if start < end {
			ref.firstK, ref.firstV = es[start].Key, es[start].Val
		}
		level, prev = append(level, ref), es[start:end]
		if end >= len(es) {
			break
		}
	}
	if err := t.put(level[len(level)-1].id, true, pager.NilPage, t.encodeLeaf(sb.B, prev)); err != nil {
		return err
	}
	height := 1
	perInt := max(2, int(fill*float64(t.intCap)))
	for len(level) > 1 {
		var next []childRef
		for start := 0; start < len(level); start += perInt {
			group := level[start:min(start+perInt, len(level))]
			p, err := t.store.Allocate()
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(sb.B[0:4], uint32(group[0].id))
			for i, c := range group[1:] {
				t.encodeSep(sb.B[4+i*ies:], c.firstK, c.firstV, c.id)
			}
			if err := t.put(p.ID, false, pager.NilPage, sb.B[:4+(len(group)-1)*ies]); err != nil {
				return err
			}
			next = append(next, childRef{firstK: group[0].firstK, firstV: group[0].firstV, id: p.ID})
		}
		level = next
		height++
	}
	t.root, t.height, t.size = level[0].id, height, len(es)
	return nil
}

// encodeLeaf encodes run as consecutive leaf entries at the start of b.
func (t *Tree) encodeLeaf(b []byte, run []Entry) []byte {
	es := t.codec.leafEntrySize()
	for i, e := range run {
		t.encodeEntry(b[i*es:], e)
	}
	return b[:len(run)*es]
}

// encodeSep encodes an internal slot: separator (k, v) and the child right
// of it.
func (t *Tree) encodeSep(b []byte, k float64, v uint64, kid pager.PageID) {
	if t.codec == Compact {
		binary.LittleEndian.PutUint32(b[0:4], math.Float32bits(float32(k)))
		binary.LittleEndian.PutUint32(b[4:8], uint32(v))
		binary.LittleEndian.PutUint32(b[8:12], uint32(kid))
		return
	}
	binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(k))
	binary.LittleEndian.PutUint64(b[8:16], v)
	binary.LittleEndian.PutUint32(b[16:20], uint32(kid))
}

// sortEntries orders entries by (Key, Val) with a simple merge sort (the
// stdlib sort is fine too; this keeps allocation predictable for large
// loads).
func sortEntries(es []Entry) {
	if len(es) < 2 {
		return
	}
	buf := make([]Entry, len(es))
	mergeSortEntries(es, buf)
}

func mergeSortEntries(es, buf []Entry) {
	if len(es) < 32 {
		// Insertion sort for small runs.
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && es[j].less(es[j-1].Key, es[j-1].Val); j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
		return
	}
	mid := len(es) / 2
	mergeSortEntries(es[:mid], buf[:mid])
	mergeSortEntries(es[mid:], buf[mid:])
	copy(buf, es)
	i, j, k := 0, mid, 0
	for i < mid && j < len(es) {
		if buf[j].less(buf[i].Key, buf[i].Val) {
			es[k] = buf[j]
			j++
		} else {
			es[k] = buf[i]
			i++
		}
		k++
	}
	for i < mid {
		es[k] = buf[i]
		i++
		k++
	}
}
