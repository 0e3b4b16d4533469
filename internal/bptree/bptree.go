// Package bptree implements a disk-paged B+-tree (Comer, "The Ubiquitous
// B-Tree") over float64 keys with a fixed-size payload per entry. It is the
// substrate of the paper's query-approximation method (§3.5.2): each of the
// c "observation" indices is one such tree keyed on the Hough-Y
// b-coordinate.
//
// Entries carry (key, val, aux): the b-coordinate, the object id, and the
// object's velocity, matching the paper's record layout of three 4-byte
// numbers. With the Compact codec and 4096-byte pages the leaf capacity is
// 340 entries (the paper computes B = 341, ignoring the page header).
//
// Entries are ordered by the composite (key, val), and separators carry
// both components. Mobile-object workloads create huge duplicate-key runs
// (every object bootstrapped at t=0 shares the same first crossing time),
// and ordering by key alone would force Delete to scan a run linearly;
// composite ordering keeps every operation a single O(log_B n) root-to-leaf
// descent.
//
// Nodes are serialized with encoding/binary into pages of a pager.Store;
// every node touch is a counted I/O. Deletion rebalances by borrowing from
// or merging with siblings, so space stays proportional to the live entry
// count under the heavy churn of mobile-object updates.
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"mobidx/internal/pager"
)

// Entry is one stored record.
type Entry struct {
	Key float64 // search key (b-coordinate in the paper's use)
	Val uint64  // object identifier; tiebreaker within equal keys
	Aux float64 // auxiliary payload (velocity in the paper's use)
}

// less orders entries by (Key, Val).
func (e Entry) less(k float64, v uint64) bool {
	if e.Key != k {
		return e.Key < k
	}
	return e.Val < v
}

// Codec selects the on-page precision of entries.
type Codec int

const (
	// Wide stores 8-byte keys/aux and 8-byte values (24-byte entries).
	Wide Codec = iota
	// Compact stores 4-byte keys/aux and 4-byte values (12-byte entries),
	// reproducing the record size of the paper's experiments (§5).
	Compact
)

func (c Codec) leafEntrySize() int {
	if c == Compact {
		return 12
	}
	return 24
}

// Internal entries hold a separator (key, val) plus a child pointer.
func (c Codec) intEntrySize() int {
	if c == Compact {
		return 12 // 4-byte key + 4-byte val + 4-byte child id
	}
	return 20 // 8-byte key + 8-byte val + 4-byte child id
}

// roundKey maps a key to the value it will compare as after a round trip
// through the codec; callers must compare against rounded keys.
func (c Codec) roundKey(k float64) float64 {
	if c == Compact {
		return float64(float32(k))
	}
	return k
}

// RoundKey maps a key (or Aux) to the value it will compare as after a
// round trip through the codec. Callers preparing input for BulkLoadSorted
// round with it before sorting, so the tree can skip its own copy-and-sort
// pass.
func (c Codec) RoundKey(k float64) float64 { return c.roundKey(k) }

// Config configures a tree.
type Config struct {
	Codec Codec
}

// Page layout. Header (12 bytes):
//
//	off 0: node type (1 = leaf, 2 = internal)
//	off 1: unused
//	off 2: entry count (uint16)
//	off 4: next-leaf page id (uint32; leaves only)
//	off 8: unused (uint32)
//
// Leaf body: count entries of leafEntrySize bytes.
// Internal body: leftmost child id (uint32) then count separator entries.
const headerSize = 12

const (
	typeLeaf     = 1
	typeInternal = 2
)

// Tree is a B+-tree rooted in a pager.Store.
type Tree struct {
	store   pager.Store
	codec   Codec
	root    pager.PageID
	height  int // 1 = root is a leaf
	size    int
	leafCap int
	intCap  int
}

// New creates an empty tree in store.
func New(store pager.Store, cfg Config) (*Tree, error) {
	t := &Tree{store: store, codec: cfg.Codec}
	body := store.PageSize() - headerSize
	t.leafCap = body / cfg.Codec.leafEntrySize()
	t.intCap = (body - 4) / cfg.Codec.intEntrySize()
	if t.leafCap < 4 || t.intCap < 4 {
		return nil, fmt.Errorf("bptree: page size %d too small", store.PageSize())
	}
	err := pager.RunBatch(store, func() error {
		p, err := store.Allocate()
		if err != nil {
			return err
		}
		root := &node{id: p.ID, leaf: true}
		if err := t.writeNode(root); err != nil {
			return err
		}
		t.root = p.ID
		t.height = 1
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of live entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 when the root is a leaf).
func (t *Tree) Height() int { return t.height }

// LeafCap returns the page capacity B for leaf entries.
func (t *Tree) LeafCap() int { return t.leafCap }

// node is the in-memory image of one page.
type node struct {
	id      pager.PageID
	leaf    bool
	entries []Entry        // leaf entries
	keys    []float64      // internal separator keys
	vals    []uint64       // internal separator vals (composite tiebreak)
	kids    []pager.PageID // internal children; len(kids) == len(keys)+1
	next    pager.PageID   // leaf chain
}

func (t *Tree) readNode(id pager.PageID) (*node, error) {
	p, err := t.store.Read(id)
	if err != nil {
		return nil, err
	}
	return t.decode(p)
}

// decode parses a page into a node. Every structural field read from the
// page is bounds-checked before use, so a corrupted page — torn write, bit
// rot, wrong page fed back by a broken store — yields a typed error
// wrapping pager.ErrPageCorrupt, never a slice-bounds panic.
func (t *Tree) decode(p *pager.Page) (*node, error) {
	d := p.Data
	if len(d) < headerSize {
		return nil, fmt.Errorf("bptree: page %d: %d bytes, want >= %d: %w",
			p.ID, len(d), headerSize, pager.ErrPageCorrupt)
	}
	n := &node{id: p.ID}
	switch d[0] {
	case typeLeaf:
		n.leaf = true
	case typeInternal:
	default:
		return nil, fmt.Errorf("bptree: page %d: bad node type %d: %w", p.ID, d[0], pager.ErrPageCorrupt)
	}
	count := int(binary.LittleEndian.Uint16(d[2:4]))
	n.next = pager.PageID(binary.LittleEndian.Uint32(d[4:8]))
	off := headerSize
	if n.leaf {
		es := t.codec.leafEntrySize()
		if count > (len(d)-headerSize)/es {
			return nil, fmt.Errorf("bptree: page %d: leaf count %d exceeds page capacity %d: %w",
				p.ID, count, (len(d)-headerSize)/es, pager.ErrPageCorrupt)
		}
		n.entries = make([]Entry, count)
		for i := 0; i < count; i++ {
			n.entries[i] = t.decodeEntry(d[off : off+es])
			off += es
		}
		return n, nil
	}
	es := t.codec.intEntrySize()
	if count > (len(d)-headerSize-4)/es {
		return nil, fmt.Errorf("bptree: page %d: internal count %d exceeds page capacity %d: %w",
			p.ID, count, (len(d)-headerSize-4)/es, pager.ErrPageCorrupt)
	}
	n.kids = make([]pager.PageID, 0, count+1)
	n.keys = make([]float64, 0, count)
	n.vals = make([]uint64, 0, count)
	n.kids = append(n.kids, pager.PageID(binary.LittleEndian.Uint32(d[off:off+4])))
	off += 4
	for i := 0; i < count; i++ {
		if t.codec == Compact {
			n.keys = append(n.keys, float64(math.Float32frombits(binary.LittleEndian.Uint32(d[off:off+4]))))
			n.vals = append(n.vals, uint64(binary.LittleEndian.Uint32(d[off+4:off+8])))
			n.kids = append(n.kids, pager.PageID(binary.LittleEndian.Uint32(d[off+8:off+12])))
			off += 12
		} else {
			n.keys = append(n.keys, math.Float64frombits(binary.LittleEndian.Uint64(d[off:off+8])))
			n.vals = append(n.vals, binary.LittleEndian.Uint64(d[off+8:off+16]))
			n.kids = append(n.kids, pager.PageID(binary.LittleEndian.Uint32(d[off+16:off+20])))
			off += 20
		}
	}
	for _, kid := range n.kids {
		if kid == pager.NilPage {
			return nil, fmt.Errorf("bptree: page %d: nil child pointer: %w", p.ID, pager.ErrPageCorrupt)
		}
	}
	return n, nil
}

// Meta captures the position and shape of a tree inside its store, so the
// tree can be reattached after the store is closed and reopened (see
// Attach). It fits in a pager.FileStore's user-metadata area.
type Meta struct {
	Root   pager.PageID
	Height int
	Size   int
}

// Meta returns the tree's current persistence metadata. Valid until the
// next mutating operation.
func (t *Tree) Meta() Meta { return Meta{Root: t.root, Height: t.height, Size: t.size} }

// Attach reattaches a tree previously built in store (same page size and
// codec) from its Meta, typically after a pager.OpenFileStore. The root
// page is read immediately to validate the metadata.
func Attach(store pager.Store, cfg Config, m Meta) (*Tree, error) {
	t := &Tree{store: store, codec: cfg.Codec}
	body := store.PageSize() - headerSize
	t.leafCap = body / cfg.Codec.leafEntrySize()
	t.intCap = (body - 4) / cfg.Codec.intEntrySize()
	if t.leafCap < 4 || t.intCap < 4 {
		return nil, fmt.Errorf("bptree: page size %d too small", store.PageSize())
	}
	if m.Root == pager.NilPage || m.Height < 1 || m.Size < 0 {
		return nil, fmt.Errorf("bptree: invalid meta %+v", m)
	}
	t.root, t.height, t.size = m.Root, m.Height, m.Size
	n, err := t.readNode(m.Root)
	if err != nil {
		return nil, fmt.Errorf("bptree: attach: %w", err)
	}
	if n.leaf != (m.Height == 1) {
		return nil, fmt.Errorf("bptree: attach: root leafness disagrees with height %d: %w",
			m.Height, pager.ErrPageCorrupt)
	}
	return t, nil
}

func (t *Tree) decodeEntry(b []byte) Entry {
	if t.codec == Compact {
		return Entry{
			Key: float64(math.Float32frombits(binary.LittleEndian.Uint32(b[0:4]))),
			Aux: float64(math.Float32frombits(binary.LittleEndian.Uint32(b[4:8]))),
			Val: uint64(binary.LittleEndian.Uint32(b[8:12])),
		}
	}
	return Entry{
		Key: math.Float64frombits(binary.LittleEndian.Uint64(b[0:8])),
		Aux: math.Float64frombits(binary.LittleEndian.Uint64(b[8:16])),
		Val: binary.LittleEndian.Uint64(b[16:24]),
	}
}

func (t *Tree) encodeEntry(b []byte, e Entry) {
	if t.codec == Compact {
		binary.LittleEndian.PutUint32(b[0:4], math.Float32bits(float32(e.Key)))
		binary.LittleEndian.PutUint32(b[4:8], math.Float32bits(float32(e.Aux)))
		binary.LittleEndian.PutUint32(b[8:12], uint32(e.Val))
		return
	}
	binary.LittleEndian.PutUint64(b[0:8], math.Float64bits(e.Key))
	binary.LittleEndian.PutUint64(b[8:16], math.Float64bits(e.Aux))
	binary.LittleEndian.PutUint64(b[16:24], e.Val)
}

func (t *Tree) writeNode(n *node) error {
	pb := pager.GetPageBuf(t.store.PageSize())
	data := pb.B
	if n.leaf {
		data[0] = typeLeaf
		binary.LittleEndian.PutUint16(data[2:4], uint16(len(n.entries)))
		binary.LittleEndian.PutUint32(data[4:8], uint32(n.next))
		off := headerSize
		es := t.codec.leafEntrySize()
		for _, e := range n.entries {
			t.encodeEntry(data[off:off+es], e)
			off += es
		}
	} else {
		data[0] = typeInternal
		binary.LittleEndian.PutUint16(data[2:4], uint16(len(n.keys)))
		off := headerSize
		binary.LittleEndian.PutUint32(data[off:off+4], uint32(n.kids[0]))
		off += 4
		for i, k := range n.keys {
			if t.codec == Compact {
				binary.LittleEndian.PutUint32(data[off:off+4], math.Float32bits(float32(k)))
				binary.LittleEndian.PutUint32(data[off+4:off+8], uint32(n.vals[i]))
				binary.LittleEndian.PutUint32(data[off+8:off+12], uint32(n.kids[i+1]))
				off += 12
			} else {
				binary.LittleEndian.PutUint64(data[off:off+8], math.Float64bits(k))
				binary.LittleEndian.PutUint64(data[off+8:off+16], n.vals[i])
				binary.LittleEndian.PutUint32(data[off+16:off+20], uint32(n.kids[i+1]))
				off += 20
			}
		}
	}
	err := t.store.Write(&pager.Page{ID: n.id, Data: data})
	pb.Release()
	return err
}

func (t *Tree) allocNode(leaf bool) (*node, error) {
	p, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	return &node{id: p.ID, leaf: leaf}, nil
}

// sepLess reports whether separator i of n is < (k, v).
func sepLess(n *node, i int, k float64, v uint64) bool {
	if n.keys[i] != k {
		return n.keys[i] < k
	}
	return n.vals[i] < v
}

// childIndex returns the child to descend into for composite (k, v): the
// first child whose separator exceeds (k, v); entries equal to a separator
// live in the subtree right of it.
func childIndex(n *node, k float64, v uint64) int {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if sepLess(n, mid, k, v) || (n.keys[mid] == k && n.vals[mid] == v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index whose entry is > (k, v).
func upperBound(es []Entry, k float64, v uint64) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if es[mid].less(k, v) || (es[mid].Key == k && es[mid].Val == v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first index whose entry is >= (k, v).
func lowerBound(es []Entry, k float64, v uint64) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := (lo + hi) / 2
		if es[mid].less(k, v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds an entry. Duplicate keys are allowed; the (key, val) pair
// need not be unique either (exact duplicates sit adjacent).
//
// On a store that supports atomic batches (pager.Batcher, e.g. a
// WALStore) the insert — including any cascade of leaf and internal
// splits — commits as one batch: a crash mid-split leaves no trace. On a
// failed mutation the store is rolled back, but the in-memory Tree may be
// stale; reopen it from the store (Attach) before further use.
func (t *Tree) Insert(e Entry) error {
	return pager.RunBatch(t.store, func() error { return t.insert(e) })
}

func (t *Tree) insert(e Entry) error {
	e.Key = t.codec.roundKey(e.Key)
	e.Aux = t.codec.roundKey(e.Aux)
	if done, err := t.insertLeafLocal(e); done || err != nil {
		return err
	}
	return t.insertRef(e)
}

// insertRef is the reference insertion of a codec-rounded entry: decode,
// modify and re-encode every node on the path, splitting as needed. insert
// reaches it for whatever the leaf-local path of leafedit.go declines;
// tests call it directly to hold that path to byte-identical store contents.
func (t *Tree) insertRef(e Entry) error {
	sepKey, sepVal, sepChild, err := t.insertAt(t.root, e, t.height)
	if err != nil {
		return err
	}
	if sepChild != pager.NilPage {
		nr, err := t.allocNode(false)
		if err != nil {
			return err
		}
		nr.kids = []pager.PageID{t.root, sepChild}
		nr.keys = []float64{sepKey}
		nr.vals = []uint64{sepVal}
		if err := t.writeNode(nr); err != nil {
			return err
		}
		t.root = nr.id
		t.height++
	}
	t.size++
	return nil
}

func (t *Tree) insertAt(id pager.PageID, e Entry, height int) (float64, uint64, pager.PageID, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, 0, pager.NilPage, err
	}
	if n.leaf {
		pos := upperBound(n.entries, e.Key, e.Val)
		n.entries = append(n.entries, Entry{})
		copy(n.entries[pos+1:], n.entries[pos:])
		n.entries[pos] = e
		if len(n.entries) <= t.leafCap {
			return 0, 0, pager.NilPage, t.writeNode(n)
		}
		right, err := t.allocNode(true)
		if err != nil {
			return 0, 0, pager.NilPage, err
		}
		mid := len(n.entries) / 2
		right.entries = append(right.entries, n.entries[mid:]...)
		n.entries = n.entries[:mid]
		right.next = n.next
		n.next = right.id
		if err := t.writeNode(n); err != nil {
			return 0, 0, pager.NilPage, err
		}
		if err := t.writeNode(right); err != nil {
			return 0, 0, pager.NilPage, err
		}
		// Separator: entries >= (sepKey, sepVal) live right of it. The
		// separator equals the right node's first entry, and childIndex
		// sends equal composites right — consistent.
		sep := right.entries[0]
		return sep.Key, sep.Val, right.id, nil
	}
	ci := childIndex(n, e.Key, e.Val)
	sepKey, sepVal, sepChild, err := t.insertAt(n.kids[ci], e, height-1)
	if err != nil || sepChild == pager.NilPage {
		return 0, 0, pager.NilPage, err
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = sepKey
	n.vals = append(n.vals, 0)
	copy(n.vals[ci+1:], n.vals[ci:])
	n.vals[ci] = sepVal
	n.kids = append(n.kids, pager.NilPage)
	copy(n.kids[ci+2:], n.kids[ci+1:])
	n.kids[ci+1] = sepChild
	if len(n.keys) <= t.intCap {
		return 0, 0, pager.NilPage, t.writeNode(n)
	}
	right, err := t.allocNode(false)
	if err != nil {
		return 0, 0, pager.NilPage, err
	}
	mid := len(n.keys) / 2
	upK, upV := n.keys[mid], n.vals[mid]
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.vals = append(right.vals, n.vals[mid+1:]...)
	right.kids = append(right.kids, n.kids[mid+1:]...)
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	n.kids = n.kids[:mid+1]
	if err := t.writeNode(n); err != nil {
		return 0, 0, pager.NilPage, err
	}
	if err := t.writeNode(right); err != nil {
		return 0, 0, pager.NilPage, err
	}
	return upK, upV, right.id, nil
}

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
// modified or retained.
func (t *Tree) bulkLoad(es []Entry, fill float64) error {
	if err := t.destroy(t.root, t.height); err != nil {
		return err
	}
	perLeaf := int(fill * float64(t.leafCap))
	if perLeaf < 1 {
		perLeaf = 1
	}
	// Build the leaf level.
	type childRef struct {
		firstK float64
		firstV uint64
		id     pager.PageID
	}
	var level []childRef
	var prev *node
	for start := 0; start < len(es) || start == 0; start += perLeaf {
		end := start + perLeaf
		if end > len(es) {
			end = len(es)
		}
		leaf, err := t.allocNode(true)
		if err != nil {
			return err
		}
		leaf.entries = append(leaf.entries, es[start:end]...)
		if prev != nil {
			prev.next = leaf.id
			if err := t.writeNode(prev); err != nil {
				return err
			}
		}
		var fk float64
		var fv uint64
		if len(leaf.entries) > 0 {
			fk, fv = leaf.entries[0].Key, leaf.entries[0].Val
		}
		level = append(level, childRef{firstK: fk, firstV: fv, id: leaf.id})
		prev = leaf
		if end >= len(es) {
			break
		}
	}
	if err := t.writeNode(prev); err != nil {
		return err
	}
	height := 1
	perInt := int(fill * float64(t.intCap))
	if perInt < 2 {
		perInt = 2
	}
	for len(level) > 1 {
		var next []childRef
		for start := 0; start < len(level); start += perInt {
			end := start + perInt
			if end > len(level) {
				end = len(level)
			}
			in, err := t.allocNode(false)
			if err != nil {
				return err
			}
			group := level[start:end]
			in.kids = append(in.kids, group[0].id)
			for _, c := range group[1:] {
				in.keys = append(in.keys, c.firstK)
				in.vals = append(in.vals, c.firstV)
				in.kids = append(in.kids, c.id)
			}
			if err := t.writeNode(in); err != nil {
				return err
			}
			next = append(next, childRef{firstK: group[0].firstK, firstV: group[0].firstV, id: in.id})
		}
		level = next
		height++
	}
	t.root = level[0].id
	t.height = height
	t.size = len(es)
	return nil
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

// ErrNotFound is returned by Delete when no matching entry exists.
var ErrNotFound = errors.New("bptree: entry not found")

// Delete removes one entry with the given key and value in a single
// root-to-leaf descent (composite ordering makes the position unique even
// among massive duplicate-key runs). Like Insert, the whole operation —
// deletion plus any rebalances and root collapses — is one atomic batch
// on a batching store.
func (t *Tree) Delete(key float64, val uint64) error {
	return pager.RunBatch(t.store, func() error { return t.deleteOne(key, val) })
}

func (t *Tree) deleteOne(key float64, val uint64) error {
	key = t.codec.roundKey(key)
	if done, err := t.deleteLeafLocal(key, val); done || err != nil {
		return err
	}
	return t.deleteRef(key, val)
}

// deleteRef is the reference deletion of a codec-rounded key, the
// counterpart of insertRef: rebalancing descent, then root collapse.
func (t *Tree) deleteRef(key float64, val uint64) error {
	deleted, _, err := t.deleteAt(t.root, key, val, t.height)
	if err != nil {
		return err
	}
	if !deleted {
		return ErrNotFound
	}
	t.size--
	return t.collapseRoot()
}

func (t *Tree) minLeaf() int { return t.leafCap / 2 }
func (t *Tree) minInt() int  { return t.intCap / 2 }

func (t *Tree) deleteAt(id pager.PageID, key float64, val uint64, height int) (bool, bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return false, false, err
	}
	if n.leaf {
		i := lowerBound(n.entries, key, val)
		if i >= len(n.entries) || n.entries[i].Key != key || n.entries[i].Val != val {
			return false, false, nil
		}
		n.entries = append(n.entries[:i], n.entries[i+1:]...)
		if err := t.writeNode(n); err != nil {
			return false, false, err
		}
		return true, len(n.entries) < t.minLeaf(), nil
	}
	ci := childIndex(n, key, val)
	deleted, under, err := t.deleteAt(n.kids[ci], key, val, height-1)
	if err != nil || !deleted {
		return deleted, false, err
	}
	if !under {
		return true, false, nil
	}
	under2, err := t.rebalanceChild(n, ci)
	if err != nil {
		return false, false, err
	}
	return true, under2, nil
}

// rebalanceChild fixes the underfull child at index ci of parent n by
// borrowing from or merging with an adjacent sibling.
func (t *Tree) rebalanceChild(n *node, ci int) (bool, error) {
	child, err := t.readNode(n.kids[ci])
	if err != nil {
		return false, err
	}
	var left, right *node
	if ci > 0 {
		if left, err = t.readNode(n.kids[ci-1]); err != nil {
			return false, err
		}
	}
	if ci < len(n.kids)-1 {
		if right, err = t.readNode(n.kids[ci+1]); err != nil {
			return false, err
		}
	}
	if child.leaf {
		switch {
		case left != nil && len(left.entries) > t.minLeaf():
			e := left.entries[len(left.entries)-1]
			left.entries = left.entries[:len(left.entries)-1]
			child.entries = append([]Entry{e}, child.entries...)
			n.keys[ci-1] = e.Key
			n.vals[ci-1] = e.Val
			return false, writeAll(t, left, child, n)
		case right != nil && len(right.entries) > t.minLeaf():
			e := right.entries[0]
			right.entries = right.entries[1:]
			child.entries = append(child.entries, e)
			n.keys[ci] = right.entries[0].Key
			n.vals[ci] = right.entries[0].Val
			return false, writeAll(t, right, child, n)
		case left != nil:
			left.entries = append(left.entries, child.entries...)
			left.next = child.next
			if err := t.store.Free(child.id); err != nil {
				return false, err
			}
			removeChild(n, ci)
			return len(n.keys) < t.minInt(), writeAll(t, left, n)
		case right != nil:
			child.entries = append(child.entries, right.entries...)
			child.next = right.next
			if err := t.store.Free(right.id); err != nil {
				return false, err
			}
			removeChild(n, ci+1)
			return len(n.keys) < t.minInt(), writeAll(t, child, n)
		default:
			return false, t.writeNode(child)
		}
	}
	switch {
	case left != nil && len(left.keys) > t.minInt():
		child.keys = append([]float64{n.keys[ci-1]}, child.keys...)
		child.vals = append([]uint64{n.vals[ci-1]}, child.vals...)
		child.kids = append([]pager.PageID{left.kids[len(left.kids)-1]}, child.kids...)
		n.keys[ci-1] = left.keys[len(left.keys)-1]
		n.vals[ci-1] = left.vals[len(left.vals)-1]
		left.keys = left.keys[:len(left.keys)-1]
		left.vals = left.vals[:len(left.vals)-1]
		left.kids = left.kids[:len(left.kids)-1]
		return false, writeAll(t, left, child, n)
	case right != nil && len(right.keys) > t.minInt():
		child.keys = append(child.keys, n.keys[ci])
		child.vals = append(child.vals, n.vals[ci])
		child.kids = append(child.kids, right.kids[0])
		n.keys[ci] = right.keys[0]
		n.vals[ci] = right.vals[0]
		right.keys = right.keys[1:]
		right.vals = right.vals[1:]
		right.kids = right.kids[1:]
		return false, writeAll(t, right, child, n)
	case left != nil:
		left.keys = append(left.keys, n.keys[ci-1])
		left.vals = append(left.vals, n.vals[ci-1])
		left.keys = append(left.keys, child.keys...)
		left.vals = append(left.vals, child.vals...)
		left.kids = append(left.kids, child.kids...)
		if err := t.store.Free(child.id); err != nil {
			return false, err
		}
		removeChild(n, ci)
		return len(n.keys) < t.minInt(), writeAll(t, left, n)
	case right != nil:
		child.keys = append(child.keys, n.keys[ci])
		child.vals = append(child.vals, n.vals[ci])
		child.keys = append(child.keys, right.keys...)
		child.vals = append(child.vals, right.vals...)
		child.kids = append(child.kids, right.kids...)
		if err := t.store.Free(right.id); err != nil {
			return false, err
		}
		removeChild(n, ci+1)
		return len(n.keys) < t.minInt(), writeAll(t, child, n)
	default:
		return false, t.writeNode(child)
	}
}

// removeChild removes child slot ci and the separator left of it.
func removeChild(n *node, ci int) {
	n.kids = append(n.kids[:ci], n.kids[ci+1:]...)
	n.keys = append(n.keys[:ci-1], n.keys[ci:]...)
	n.vals = append(n.vals[:ci-1], n.vals[ci:]...)
}

func writeAll(t *Tree, ns ...*node) error {
	for _, n := range ns {
		if err := t.writeNode(n); err != nil {
			return err
		}
	}
	return nil
}

// Range calls fn for every entry with lo <= key <= hi, in (key, val)
// order, until fn returns false. Keys are compared after codec rounding.
func (t *Tree) Range(lo, hi float64, fn func(Entry) bool) error {
	lo = t.codec.roundKey(lo)
	hi = t.codec.roundKey(hi)
	id := t.root
	height := t.height
	for height > 1 {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		id = n.kids[childIndex(n, lo, 0)]
		height--
	}
	for id != pager.NilPage {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for _, e := range n.entries[lowerBound(n.entries, lo, 0):] {
			if e.Key > hi {
				return nil
			}
			if !fn(e) {
				return nil
			}
		}
		id = n.next
	}
	return nil
}

// Floor returns the entry with the largest (key, val) whose key is <= key,
// or ok=false when every key exceeds key.
func (t *Tree) Floor(key float64) (Entry, bool, error) {
	key = t.codec.roundKey(key)
	return t.floorAt(t.root, t.height, key)
}

func (t *Tree) floorAt(id pager.PageID, height int, key float64) (Entry, bool, error) {
	n, err := t.readNode(id)
	if err != nil {
		return Entry{}, false, err
	}
	if n.leaf {
		i := upperBound(n.entries, key, math.MaxUint64)
		if i == 0 {
			return Entry{}, false, nil
		}
		return n.entries[i-1], true, nil
	}
	for ci := childIndex(n, key, math.MaxUint64); ci >= 0; ci-- {
		e, ok, err := t.floorAt(n.kids[ci], height-1, key)
		if err != nil {
			return Entry{}, false, err
		}
		if ok {
			return e, true, nil
		}
	}
	return Entry{}, false, nil
}

// Max returns the largest entry, or ok=false when the tree is empty.
func (t *Tree) Max() (Entry, bool, error) {
	return t.Floor(math.Inf(1))
}

// Min returns the smallest entry, or ok=false when the tree is empty.
func (t *Tree) Min() (Entry, bool, error) {
	id := t.root
	height := t.height
	for height > 1 {
		n, err := t.readNode(id)
		if err != nil {
			return Entry{}, false, err
		}
		id = n.kids[0]
		height--
	}
	for id != pager.NilPage {
		n, err := t.readNode(id)
		if err != nil {
			return Entry{}, false, err
		}
		if len(n.entries) > 0 {
			return n.entries[0], true, nil
		}
		id = n.next
	}
	return Entry{}, false, nil
}

// Destroy frees every page of the tree, atomically on a batching store;
// the tree must not be used after.
func (t *Tree) Destroy() error {
	return pager.RunBatch(t.store, func() error { return t.destroy(t.root, t.height) })
}

func (t *Tree) destroy(id pager.PageID, height int) error {
	if height > 1 {
		n, err := t.readNode(id)
		if err != nil {
			return err
		}
		for _, kid := range n.kids {
			if err := t.destroy(kid, height-1); err != nil {
				return err
			}
		}
	}
	return t.store.Free(id)
}

// CheckInvariants walks the whole tree verifying structural invariants:
// composite ordering, separator consistency, and entry count. It is
// exported for tests.
func (t *Tree) CheckInvariants() error {
	loK, loV := math.Inf(-1), uint64(0)
	hiK, hiV := math.Inf(1), uint64(math.MaxUint64)
	count, err := t.check(t.root, t.height, loK, loV, hiK, hiV)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("bptree: size %d but %d entries reachable", t.size, count)
	}
	return nil
}

// cmpKV compares composites (a, av) and (b, bv).
func cmpKV(a float64, av uint64, b float64, bv uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case av < bv:
		return -1
	case av > bv:
		return 1
	default:
		return 0
	}
}

func (t *Tree) check(id pager.PageID, height int, loK float64, loV uint64, hiK float64, hiV uint64) (int, error) {
	n, err := t.readNode(id)
	if err != nil {
		return 0, err
	}
	if n.leaf {
		if height != 1 {
			return 0, fmt.Errorf("bptree: leaf at height %d", height)
		}
		prevK, prevV := math.Inf(-1), uint64(0)
		for _, e := range n.entries {
			if cmpKV(e.Key, e.Val, prevK, prevV) < 0 {
				return 0, fmt.Errorf("bptree: leaf %d not sorted", id)
			}
			if cmpKV(e.Key, e.Val, loK, loV) < 0 || cmpKV(e.Key, e.Val, hiK, hiV) > 0 {
				return 0, fmt.Errorf("bptree: leaf %d entry (%v,%d) outside separators", id, e.Key, e.Val)
			}
			prevK, prevV = e.Key, e.Val
		}
		return len(n.entries), nil
	}
	if len(n.kids) != len(n.keys)+1 || len(n.vals) != len(n.keys) {
		return 0, fmt.Errorf("bptree: node %d malformed (%d kids, %d keys, %d vals)",
			id, len(n.kids), len(n.keys), len(n.vals))
	}
	total := 0
	for i, kid := range n.kids {
		cloK, cloV := loK, loV
		chiK, chiV := hiK, hiV
		if i > 0 {
			cloK, cloV = n.keys[i-1], n.vals[i-1]
		}
		if i < len(n.keys) {
			chiK, chiV = n.keys[i], n.vals[i]
		}
		if cmpKV(cloK, cloV, chiK, chiV) > 0 {
			return 0, fmt.Errorf("bptree: node %d separators out of order", id)
		}
		c, err := t.check(kid, height-1, cloK, cloV, chiK, chiV)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
