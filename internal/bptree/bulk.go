package bptree

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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
	SortEntries(es)
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
// BulkLoadSorted requires. The sort is stable: entries equal in (Key, Val)
// keep their input order, and a -0 key equals a +0 one. It is a
// least-significant-digit radix sort of (sort key, position) pairs
// followed by one gather of the entries: when every key is exactly a
// float32 and every val fits 32 bits (all a Compact tree holds) the two
// pack into one 64-bit sort key; otherwise the pairs are sorted by Val and
// then, stably, by Key. Slices shorter than radixMin, and a slice holding
// a NaN key (which has no place in the order), take a stable comparison
// sort instead.
func SortEntries(es []Entry) {
	if len(es) < radixMin || uint64(len(es)) > math.MaxUint32 {
		slices.SortStableFunc(es, compareEntries)
		return
	}
	ps, tmp := make([]radixPair, len(es)), make([]radixPair, len(es))
	packed := true
	for i, e := range es {
		if math.IsNaN(e.Key) {
			slices.SortStableFunc(es, compareEntries)
			return
		}
		packed = packed && float64(float32(e.Key)) == e.Key && e.Val <= math.MaxUint32
		ps[i] = radixPair{k: uint64(keyBits32(e.Key))<<32 | e.Val, i: uint32(i)}
	}
	if !packed {
		// By Val first; the Key round below keeps that order among equal keys.
		for i := range ps {
			ps[i].k = es[i].Val
		}
	}
	ps, tmp = radixSortPairs(ps, tmp)
	if !packed {
		for j, p := range ps {
			ps[j].k = keyBits64(es[p.i].Key)
		}
		ps, _ = radixSortPairs(ps, tmp)
	}
	out := make([]Entry, len(es))
	for j, p := range ps {
		out[j] = es[p.i]
	}
	copy(es, out)
}

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

// radixMin is the length below which SortEntries compares instead: on
// shorter slices the radix sort's histograms (eight of 256 counters) and
// scratch allocations cost more than the comparisons they save. Timed on
// Compact entries, the two break even near 80.
const radixMin = 80

// compareEntries is the (Key, Val) order as a three-way comparison.
func compareEntries(a, b Entry) int {
	switch {
	case a.less(b.Key, b.Val):
		return -1
	case b.less(a.Key, a.Val):
		return 1
	}
	return 0
}

// radixPair is one entry's sort key and its position in the input.
type radixPair struct {
	k uint64
	i uint32
}

// keyBits64 and keyBits32 map a key to an unsigned integer whose order is
// the keys' float order, -0 and +0 mapping alike: the float's bits with
// negatives inverted and the sign bit set on the rest. keyBits32 needs a
// key that is exactly a float32.
func keyBits64(k float64) uint64 {
	if k == 0 {
		k = 0 // -0 as +0
	}
	b := math.Float64bits(k)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

func keyBits32(k float64) uint32 {
	if k == 0 {
		k = 0
	}
	b := math.Float32bits(float32(k))
	if b&(1<<31) != 0 {
		return ^b
	}
	return b | 1<<31
}

// radixSortPairs sorts ps by k, stably, least significant byte first, one
// pass per byte that not every pair shares. tmp is scratch of ps's length.
// It returns the sorted pairs and the other buffer: the passes alternate
// between the two.
func radixSortPairs(ps, tmp []radixPair) (sorted, scratch []radixPair) {
	var counts [8][256]uint32
	for _, p := range ps {
		k := p.k
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	k0 := ps[0].k
	for d := range counts {
		c, sh := &counts[d], uint(8*d)
		if int(c[byte(k0>>sh)]) == len(ps) {
			continue
		}
		var sum uint32
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, p := range ps {
			b := byte(p.k >> sh)
			tmp[c[b]] = p
			c[b]++
		}
		ps, tmp = tmp, ps
	}
	return ps, tmp
}
