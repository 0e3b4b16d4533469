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
// A node is its page image. Every operation reads pages through
// pager.ViewBytes and binary searches the encoded separators and entries in
// place, after checkImage has bounds-checked the image, so a steady-state
// read whose pages sit in the buffer pool allocates nothing and a corrupted
// page yields an error wrapping pager.ErrPageCorrupt, never a panic. Every
// write builds a fresh image as a concatenation of slot runs copied from
// existing images and newly encoded slots (put), and hands it to the store
// through Write: a viewed image, which other readers may hold, is never
// written through. Deletion rebalances by borrowing from
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

// keySize is the width of one stored key, aux or val.
func (c Codec) keySize() int {
	if c == Compact {
		return 4
	}
	return 8
}

// Leaf entries hold (key, aux, val).
func (c Codec) leafEntrySize() int { return 3 * c.keySize() }

// Internal slots hold a separator (key, val) plus a child pointer.
func (c Codec) intEntrySize() int { return 2*c.keySize() + 4 }

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
// Leaf body: count entries of leafEntrySize bytes. Internal body: the
// leftmost child id (uint32), then count slots of intEntrySize bytes, slot
// i holding separator i and the child right of it — so dropping slot i
// drops a separator together with that child. Every byte past the body is
// zero.
const headerSize = 12

const (
	typeLeaf     = 1
	typeInternal = 2
)

// maxPath is the depth a recorded descent holds without allocating:
// 4 KiB pages reach it only past 10^30 entries.
const maxPath = 8

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

// open sizes a tree for store's pages; the caller places its root.
func open(store pager.Store, cfg Config) (*Tree, error) {
	t := &Tree{store: store, codec: cfg.Codec}
	body := store.PageSize() - headerSize
	t.leafCap = body / cfg.Codec.leafEntrySize()
	t.intCap = (body - 4) / cfg.Codec.intEntrySize()
	if t.leafCap < 4 || t.intCap < 4 {
		return nil, fmt.Errorf("bptree: page size %d too small", store.PageSize())
	}
	return t, nil
}

// New creates an empty tree in store.
func New(store pager.Store, cfg Config) (*Tree, error) {
	t, err := open(store, cfg)
	if err != nil {
		return nil, err
	}
	err = pager.RunBatch(store, func() error {
		p, err := store.Allocate()
		if err != nil {
			return err
		}
		t.root, t.height = p.ID, 1
		return t.write(p, true, pager.NilPage, 0)
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

func (t *Tree) minLeaf() int { return t.leafCap / 2 }
func (t *Tree) minInt() int  { return t.intCap / 2 }

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
// page is read immediately to validate the metadata: a root whose node
// type disagrees with the height is corruption.
func Attach(store pager.Store, cfg Config, m Meta) (*Tree, error) {
	t, err := open(store, cfg)
	if err != nil {
		return nil, err
	}
	if m.Root == pager.NilPage || m.Height < 1 || m.Size < 0 {
		return nil, fmt.Errorf("bptree: invalid meta %+v", m)
	}
	t.root, t.height, t.size = m.Root, m.Height, m.Size
	if _, err := t.view(m.Root, m.Height == 1); err != nil {
		return nil, fmt.Errorf("bptree: attach: %w", err)
	}
	return t, nil
}

// image is one node as an operation sees it: its page id, its page bytes —
// a read-only view — and its checked entry count.
type image struct {
	id pager.PageID
	d  []byte
	n  int
}

func (m image) leaf() bool { return m.d[0] == typeLeaf }

// next is a leaf's next-leaf link.
func (m image) next() pager.PageID { return pager.PageID(binary.LittleEndian.Uint32(m.d[4:8])) }

// view reads page id as a node of the expected kind.
func (t *Tree) view(id pager.PageID, leaf bool) (image, error) {
	d, err := pager.ViewBytes(t.store, id)
	if err != nil {
		return image{}, err
	}
	n, err := t.checkImage(d, id, leaf)
	return image{id: id, d: d, n: n}, err
}

// checkImage bounds-checks a page image of the expected node type and
// returns its entry count: the image is one page long, the type byte is the
// one expected, and the count fits the node's capacity. Every slot an
// operation reads afterwards lies inside the image, so a corrupted page —
// torn write, bit rot, a wrong page fed back by a broken store — yields an
// error wrapping pager.ErrPageCorrupt, never a slice-bounds panic.
func (t *Tree) checkImage(d []byte, id pager.PageID, leaf bool) (int, error) {
	if len(d) != t.store.PageSize() {
		return 0, fmt.Errorf("bptree: page %d: %d bytes, want %d: %w",
			id, len(d), t.store.PageSize(), pager.ErrPageCorrupt)
	}
	want, cap := byte(typeInternal), t.intCap
	if leaf {
		want, cap = typeLeaf, t.leafCap
	}
	if d[0] != want {
		return 0, fmt.Errorf("bptree: page %d: node type %d, want %d: %w", id, d[0], want, pager.ErrPageCorrupt)
	}
	count := int(binary.LittleEndian.Uint16(d[2:4]))
	if count > cap {
		return 0, fmt.Errorf("bptree: page %d: count %d exceeds page capacity %d: %w",
			id, count, cap, pager.ErrPageCorrupt)
	}
	return count, nil
}

// layout returns where m's slots start, their stride, and how far into a
// slot its val sits: a leaf entry holds (key, aux, val), an internal slot
// (key, val, child).
func (t *Tree) layout(m image) (base, stride, val int) {
	ks := t.codec.keySize()
	if m.leaf() {
		return headerSize, 3 * ks, 2 * ks
	}
	return headerSize + 4, 2*ks + 4, ks
}

// slot returns the offset of slot i of m: entry i of a leaf, separator i
// of an internal node. slot(m, m.n) is the end of the body.
func (t *Tree) slot(m image, i int) int {
	base, stride, _ := t.layout(m)
	return base + i*stride
}

// around returns m's body before slot i and from slot j on: the two runs
// around an insertion point (i == j) or a dropped slot (j == i+1).
func (t *Tree) around(m image, i, j int) ([]byte, []byte) {
	return m.d[headerSize:t.slot(m, i)], m.d[t.slot(m, j):t.slot(m, m.n)]
}

// kvOf returns the key and val bytes of slot i of m — what a separator
// made from that entry or separator holds.
func (t *Tree) kvOf(m image, i int) ([]byte, []byte) {
	base, stride, val := t.layout(m)
	at, ks := base+i*stride, t.codec.keySize()
	return m.d[at : at+ks], m.d[at+val : at+val+ks]
}

// kv decodes slot i's composite (key, val).
func (t *Tree) kv(m image, i int) (float64, uint64) {
	base, stride, val := t.layout(m)
	return t.kvAt(m.d, base+i*stride, val)
}

// kvAt decodes the composite of the slot at off whose val sits val bytes
// into it.
func (t *Tree) kvAt(d []byte, off, val int) (float64, uint64) {
	if t.codec == Compact {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(d[off:]))), uint64(binary.LittleEndian.Uint32(d[off+val:]))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d[off:])), binary.LittleEndian.Uint64(d[off+val:])
}

// entry decodes leaf entry i.
func (t *Tree) entry(m image, i int) Entry { return t.decodeEntry(m.d[t.slot(m, i):]) }

// child returns child ci (0 ≤ ci ≤ m.n) of internal node m: the leftmost
// child, then the one closing each slot, so child ci starts
// ci·intEntrySize bytes past the header. A nil pointer is corruption.
func (t *Tree) child(m image, ci int) (pager.PageID, error) {
	id := pager.PageID(binary.LittleEndian.Uint32(m.d[headerSize+ci*t.codec.intEntrySize():]))
	if id == pager.NilPage {
		return pager.NilPage, fmt.Errorf("bptree: page %d: nil child pointer: %w", m.id, pager.ErrPageCorrupt)
	}
	return id, nil
}

// kid views child ci of internal node m as a node of the expected kind.
func (t *Tree) kid(m image, ci int, leaf bool) (image, error) {
	id, err := t.child(m, ci)
	if err != nil {
		return image{}, err
	}
	return t.view(id, leaf)
}

// search returns the first slot of m whose composite is at or above (k, v),
// or with after set the first one above it — the child a descent takes:
// composites equal to a separator live right of it.
func (t *Tree) search(m image, k float64, v uint64, after bool) int {
	base, stride, val := t.layout(m)
	lo, hi := 0, m.n
	for lo < hi {
		mid := (lo + hi) / 2
		if mk, mv := t.kvAt(m.d, base+mid*stride, val); mk < k || (mk == k && (mv < v || (after && mv == v))) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// put writes page id as a node whose body is the concatenation of parts —
// runs copied from page images and freshly encoded slots; an internal
// node's first run starts with its leftmost child — behind the header
// (type, count, and for a leaf its next link) and ahead of a zero tail.
// The image is allocated here and handed to Write, which owns it from
// then on.
func (t *Tree) put(id pager.PageID, leaf bool, next pager.PageID, parts ...[]byte) error {
	data := make([]byte, t.store.PageSize())
	off := headerSize
	for _, part := range parts {
		off += copy(data[off:], part)
	}
	n := (off - headerSize) / t.codec.leafEntrySize()
	if !leaf {
		n = (off - headerSize - 4) / t.codec.intEntrySize()
	}
	return t.write(&pager.Page{ID: id, Data: data}, leaf, next, n)
}

// write stamps the header of a node of n slots (for a leaf, its next
// link) on p's image, whose body the caller has encoded behind a zero
// header and ahead of a zero tail, and hands p to Write, which owns the
// image from then on. It is the one place a node's header is encoded:
// put encodes into a fresh image, New and bulkLoad into the one Allocate
// returned.
func (t *Tree) write(p *pager.Page, leaf bool, next pager.PageID, n int) error {
	if leaf {
		p.Data[0] = typeLeaf
		binary.LittleEndian.PutUint32(p.Data[4:8], uint32(next))
	} else {
		p.Data[0] = typeInternal
	}
	binary.LittleEndian.PutUint16(p.Data[2:4], uint16(n))
	return t.store.Write(p)
}

// step is one internal node of a recorded descent and the child it took.
type step struct {
	image
	ci int
}

// descend walks from page id, height levels above the leaves, to the leaf
// that would hold composite (k, v), appending every internal node it
// passes and the child taken to path (a nil path records nothing).
func (t *Tree) descend(path []step, id pager.PageID, height int, k float64, v uint64) ([]step, image, error) {
	for ; height > 1; height-- {
		m, err := t.view(id, false)
		if err != nil {
			return path, image{}, err
		}
		ci := t.search(m, k, v, true)
		if id, err = t.child(m, ci); err != nil {
			return path, image{}, err
		}
		if path != nil {
			path = append(path, step{m, ci})
		}
	}
	leaf, err := t.view(id, true)
	return path, leaf, err
}

// find descends to a copy of composite (k, v) and returns the path, the
// leaf and the copy's slot, or slot -1 when the tree holds none. A leaf
// split through a run of exact duplicates leaves a separator equal to them
// with copies on both sides, and a descent goes right of it; once the
// right copies are gone, the left ones sit under the child left of the
// deepest separator equal to (k, v) on the path, so on a miss find backs
// up there and descends again. The first descent is all a composite the
// tree holds once ever takes.
func (t *Tree) find(path []step, k float64, v uint64) ([]step, image, int, error) {
	path, leaf, err := t.descend(path, t.root, t.height, k, v)
	for err == nil {
		if i := t.search(leaf, k, v, false); i < leaf.n {
			if ek, ev := t.kv(leaf, i); ek == k && ev == v {
				return path, leaf, i, nil
			}
		}
		h := len(path) - 1
		for ; h >= 0; h-- {
			if s := path[h]; s.ci > 0 {
				if sk, sv := t.kv(s.image, s.ci-1); sk == k && sv == v {
					break
				}
			}
		}
		if h < 0 {
			return path, leaf, -1, nil
		}
		path[h].ci--
		var id pager.PageID
		if id, err = t.child(path[h].image, path[h].ci); err == nil {
			path, leaf, err = t.descend(path[:h+1], id, t.height-1-h, k, v)
		}
	}
	return path, image{}, -1, err
}

// nextLeaf views the leaf after m in the chain, or returns a zero image at
// the chain's end. hops counts the links followed; a chain longer than the
// store has pages is a cycle, reported as corruption instead of a hang.
func (t *Tree) nextLeaf(m image, hops *int) (image, error) {
	id := m.next()
	if id == pager.NilPage {
		return image{}, nil
	}
	if *hops++; *hops >= t.store.PagesInUse() {
		return image{}, fmt.Errorf("bptree: page %d: leaf chain longer than the store: %w", m.id, pager.ErrPageCorrupt)
	}
	return t.view(id, true)
}

// Get returns the entry with exactly the given (key, val) composite, in
// one root-to-leaf descent: the steady-state point query performs zero
// heap allocations when the path is resident in the buffer pool. The key
// is compared after codec rounding.
func (t *Tree) Get(key float64, val uint64) (Entry, bool, error) {
	_, leaf, i, err := t.find(make([]step, 0, maxPath), t.codec.roundKey(key), val)
	if err != nil || i < 0 {
		return Entry{}, false, err
	}
	return t.entry(leaf, i), true, nil
}

// Ceil returns the smallest entry whose key is >= key, or ok=false when
// every key is below it: one root-to-leaf descent, plus a next-leaf hop
// when the target leaf's tail was deleted — the successor probe kinetic
// certificate scheduling leans on, zero-alloc when the path is
// pool-resident.
func (t *Tree) Ceil(key float64) (Entry, bool, error) {
	key = t.codec.roundKey(key)
	_, leaf, err := t.descend(nil, t.root, t.height, key, 0)
	for hops := 0; err == nil && leaf.d != nil; leaf, err = t.nextLeaf(leaf, &hops) {
		if i := t.search(leaf, key, 0, false); i < leaf.n {
			return t.entry(leaf, i), true, nil
		}
	}
	return Entry{}, false, err
}

// Floor returns the entry with the largest (key, val) whose key is <= key,
// or ok=false when every key exceeds it. Leaves carry no back-pointers, so
// when the target leaf holds nothing at or below the key the answer ends
// the rightmost leaf under the child left of the deepest step that did
// not take its first child.
func (t *Tree) Floor(key float64) (Entry, bool, error) {
	key = t.codec.roundKey(key)
	path, leaf, err := t.descend(make([]step, 0, maxPath), t.root, t.height, key, math.MaxUint64)
	if err != nil {
		return Entry{}, false, err
	}
	if i := t.search(leaf, key, math.MaxUint64, true); i > 0 {
		return t.entry(leaf, i-1), true, nil
	}
	h := len(path) - 1
	for h >= 0 && path[h].ci == 0 {
		h--
	}
	if h < 0 {
		return Entry{}, false, nil
	}
	id, err := t.child(path[h].image, path[h].ci-1)
	if err == nil {
		_, leaf, err = t.descend(nil, id, t.height-1-h, math.Inf(1), math.MaxUint64)
	}
	if err != nil || leaf.n == 0 {
		return Entry{}, false, err
	}
	return t.entry(leaf, leaf.n-1), true, nil
}

// Range calls fn for every entry with lo <= key <= hi, in (key, val)
// order, until fn returns false: one descent to the first leaf, then the
// leaf chain, decoding entries straight from the page images. Keys are
// compared after codec rounding.
func (t *Tree) Range(lo, hi float64, fn func(Entry) bool) error {
	lo, hi = t.codec.roundKey(lo), t.codec.roundKey(hi)
	_, leaf, err := t.descend(nil, t.root, t.height, lo, 0)
	es := t.codec.leafEntrySize()
	for hops := 0; err == nil && leaf.d != nil; leaf, err = t.nextLeaf(leaf, &hops) {
		for off, end := t.slot(leaf, t.search(leaf, lo, 0, false)), t.slot(leaf, leaf.n); off < end; off += es {
			if e := t.decodeEntry(leaf.d[off:]); e.Key > hi || !fn(e) {
				return nil
			}
		}
	}
	return err
}

// Destroy frees every page of the tree, atomically on a batching store;
// the tree must not be used after.
func (t *Tree) Destroy() error {
	return pager.RunBatch(t.store, func() error { return t.destroy(t.root, t.height) })
}

// destroy frees the subtree at id, children before their parent. Leaves
// are freed without being read.
func (t *Tree) destroy(id pager.PageID, height int) error {
	if height > 1 {
		m, err := t.view(id, false)
		if err != nil {
			return err
		}
		for ci := 0; ci <= m.n; ci++ {
			kid, err := t.child(m, ci)
			if err != nil {
				return err
			}
			if err := t.destroy(kid, height-1); err != nil {
				return err
			}
		}
	}
	return t.store.Free(id)
}

// ErrNotFound is returned by Delete when no matching entry exists.
var ErrNotFound = errors.New("bptree: entry not found")

// CheckInvariants walks the whole tree verifying structural invariants:
// node types against heights, composite ordering, separator consistency,
// and entry count. It is exported for tests.
func (t *Tree) CheckInvariants() error {
	count, err := t.check(t.root, t.height, math.Inf(-1), 0, math.Inf(1), math.MaxUint64)
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

// check verifies the subtree at id, whose composites must lie within
// [(loK, loV), (hiK, hiV)], and returns its entry count.
func (t *Tree) check(id pager.PageID, height int, loK float64, loV uint64, hiK float64, hiV uint64) (int, error) {
	m, err := t.view(id, height == 1)
	if err != nil {
		return 0, err
	}
	if height == 1 {
		prevK, prevV := loK, loV
		for i := 0; i < m.n; i++ {
			k, v := t.kv(m, i)
			if cmpKV(k, v, prevK, prevV) < 0 || cmpKV(k, v, hiK, hiV) > 0 {
				return 0, fmt.Errorf("bptree: leaf %d entry (%v,%d) out of order or outside separators", id, k, v)
			}
			prevK, prevV = k, v
		}
		return m.n, nil
	}
	total := 0
	for ci := 0; ci <= m.n; ci++ {
		cloK, cloV, chiK, chiV := loK, loV, hiK, hiV
		if ci > 0 {
			cloK, cloV = t.kv(m, ci-1)
		}
		if ci < m.n {
			chiK, chiV = t.kv(m, ci)
		}
		if cmpKV(cloK, cloV, chiK, chiV) > 0 {
			return 0, fmt.Errorf("bptree: node %d separators out of order", id)
		}
		kid, err := t.child(m, ci)
		if err != nil {
			return 0, err
		}
		c, err := t.check(kid, height-1, cloK, cloV, chiK, chiV)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
