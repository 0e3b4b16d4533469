// Package kdtree implements a disk-based adaptive k-d tree point access
// method in the spirit of the LSD-tree (Henrich, Six, Widmayer, VLDB 1989)
// and the hBΠ-tree used in the paper's experiments: a binary k-d directory
// packed into disk pages, with data buckets of page capacity B.
//
// The paper argues (§3.5.1, Figure 3) that a k-d-tree based method splits
// the skewed dual (v, a) point set along *both* dimensions, unlike R-tree
// style clustering, and therefore answers the MOR wedge query with fewer
// I/Os. This package provides exactly that: data-dependent splits at the
// median of the wider-spread dimension, and linear-constraint (simplex)
// search with subtree pruning à la Goldstein et al.
//
// The tree is d-dimensional, 1 ≤ d ≤ geom.MaxDims. The 1-dimensional MOR
// indexes use d = 2 over the dual plane (v, a); §4.2 maps 2-dimensional
// motion to (vx, ax, vy, ay) and answers its query with the same structure
// at d = 4. What differs between the two is only how a query classifies a
// k-d cell, which is the caller's geom.Region.
//
// On-page layout. Directory pages hold up to ~255 binary split nodes,
// forming one subtree per page (fanout between pages is therefore up to
// 256, giving a directory height comparable to a B-tree's). Bucket pages
// hold points of 4d+4 bytes (d 4-byte coordinates and a 4-byte reference):
// at d = 2 that is B = 340 points of 12 bytes, the same record size as the
// paper's B+-tree method; at d = 4, B = 204 points of 20 bytes, the record
// size of the R*-tree baseline.
package kdtree

import (
	"fmt"
	"math"
	"sort"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

// Point is the point record this tree shares with the other paged point
// index, so one caller can sit on either.
type Point = geom.GridPoint

// Pt snaps c to the float32 grid used on page.
func Pt(c geom.Vec, val uint64) Point { return geom.Pt(c, val) }

// Tree is a paged k-d tree.
type Tree struct {
	store     pager.Store
	dims      int
	world     geom.Box
	rootRef   ref
	size      int
	pointSize int // bytes per bucket record: 4·dims + 4
	bucketCap int
	nodeCap   int
}

// ref addresses either a node within the current directory page, a bucket
// page, or another directory page. Packed as tag<<30 | value.
type ref uint32

const (
	tagNode   = 0 // value = node slot index in the same directory page
	tagBucket = 1 // value = bucket page id
	tagDir    = 2 // value = directory page id (enter at its root slot)
)

func mkRef(tag int, v uint32) ref { return ref(uint32(tag)<<30 | v) }
func (r ref) tag() int            { return int(r >> 30) }
func (r ref) value() uint32       { return uint32(r) & 0x3fffffff }

// Directory page layout:
//
//	off 0: page type (3)
//	off 2: live node count (uint16)
//	off 4: root slot index (uint16)
//	off 6: first free slot index (uint16, 0xffff = none)
//	off 8: allocated slot high-water mark (uint16)
//	off 12: slots, 16 bytes each:
//	        dim uint8, pad, pad, pad, split float32, left ref, right ref
//
// Free slots are chained through their left field.
//
// Bucket page layout:
//
//	off 0: page type (4)
//	off 2: point count (uint16)
//	off 4: overflow-chain next bucket page id (uint32; 0 = none)
//	off 8: points, 4d+4 bytes each: d × float32, val uint32
//
// The record stride depends on d, so it is the constructor, not a
// constant the codecbounds lint can fold, that guarantees
// header + cap·stride ≤ PageSize; and since a page comes back from the
// store as whatever bytes the medium kept, readBucket and readDir check
// every count and index they are about to trust and report a violation as
// pager.ErrPageCorrupt.
const (
	dirHeader    = 12
	slotSize     = 16
	bucketHeader = 8

	typeDir    = 3
	typeBucket = 4

	noSlot = 0xffff
)

type slot struct {
	dim         int
	split       float64
	left, right ref
}

type dirPage struct {
	id    pager.PageID
	count int
	root  int
	free  int // first free slot or noSlot
	high  int // slots ever allocated
	slots []slot
}

type bucket struct {
	id     pager.PageID
	next   pager.PageID // overflow chain for degenerate duplicates
	points []Point
}

// New creates an empty dims-dimensional tree whose points all lie within
// world. Search prunes from world as the root cell, and its per-dimension
// extents normalize the choice of split dimension.
func New(store pager.Store, dims int, world geom.Box) (*Tree, error) {
	if dims < 1 || dims > geom.MaxDims {
		return nil, fmt.Errorf("kdtree: dims must be in [1, %d], got %d", geom.MaxDims, dims)
	}
	for i := 0; i < dims; i++ {
		if !(world.Lo[i] < world.Hi[i]) {
			return nil, fmt.Errorf("kdtree: empty world extent in dimension %d", i)
		}
	}
	ps := store.PageSize()
	t := &Tree{store: store, dims: dims, world: world, pointSize: 4*dims + 4}
	t.bucketCap = (ps - bucketHeader) / t.pointSize
	t.nodeCap = (ps - dirHeader) / slotSize
	// The second line is the bound every codec write relies on, asserted
	// here because no lint can fold a stride that depends on dims.
	if t.bucketCap < 4 || t.nodeCap < 4 ||
		bucketHeader+t.bucketCap*t.pointSize > ps || dirHeader+t.nodeCap*slotSize > ps {
		return nil, fmt.Errorf("kdtree: page size %d too small for %d dims", ps, dims)
	}
	b, err := t.allocBucket()
	if err != nil {
		return nil, err
	}
	if err := t.writeBucket(b); err != nil {
		return nil, err
	}
	t.rootRef = mkRef(tagBucket, uint32(b.id))
	return t, nil
}

// Len returns the number of stored points.
func (t *Tree) Len() int { return t.size }

// BucketCap returns the page capacity B for data points.
func (t *Tree) BucketCap() int { return t.bucketCap }

// corrupt reports a page whose bytes cannot have been written by this
// codec.
func corrupt(id pager.PageID, format string, args ...any) error {
	return fmt.Errorf("kdtree: %w: page %d %s", pager.ErrPageCorrupt, id, fmt.Sprintf(format, args...))
}

// walk bounds the page reads of one traversal. No traversal reads a page
// twice, so one that has read more pages than the store holds is going
// round a reference cycle that only a corrupt page can have planted. A nil
// walk bounds nothing: it is for the single reads outside a traversal.
type walk struct{ left int }

func (t *Tree) newWalk() *walk { return &walk{left: t.store.PagesInUse()} }

func (w *walk) step(id pager.PageID) error {
	if w == nil {
		return nil
	}
	if w.left--; w.left < 0 {
		return corrupt(id, "is reached again: page references form a cycle")
	}
	return nil
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

func put16(b []byte, v int) { b[0] = byte(v); b[1] = byte(v >> 8) }
func get16(b []byte) int    { return int(b[0]) | int(b[1])<<8 }
func put32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
func putf32(b []byte, f float64) { put32(b, math.Float32bits(float32(f))) }
func getf32(b []byte) float64    { return float64(math.Float32frombits(get32(b))) }

func (t *Tree) allocBucket() (*bucket, error) {
	p, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	return &bucket{id: p.ID}, nil
}

func (t *Tree) writeBucket(b *bucket) error {
	data := make([]byte, t.store.PageSize())
	data[0] = typeBucket
	put16(data[2:], len(b.points))
	put32(data[4:], uint32(b.next))
	off := bucketHeader
	for _, pt := range b.points {
		for k := 0; k < t.dims; k++ {
			put32(data[off+4*k:], math.Float32bits(pt.C[k]))
		}
		put32(data[off+4*t.dims:], uint32(pt.Val))
		off += t.pointSize
	}
	return t.store.Write(&pager.Page{ID: b.id, Data: data})
}

// readPage reads page id, charging the read to traversal w when it is not
// nil, and checks that the image is a whole page of the wanted type.
func (t *Tree) readPage(w *walk, id pager.PageID, typ byte) ([]byte, error) {
	if err := w.step(id); err != nil {
		return nil, err
	}
	p, err := t.store.Read(id)
	if err != nil {
		return nil, err
	}
	if len(p.Data) < t.store.PageSize() {
		return nil, corrupt(id, "is %d bytes long", len(p.Data))
	}
	if p.Data[0] != typ {
		return nil, corrupt(id, "has type %d, want %d", p.Data[0], typ)
	}
	return p.Data, nil
}

func (t *Tree) readBucket(w *walk, id pager.PageID) (*bucket, error) {
	d, err := t.readPage(w, id, typeBucket)
	if err != nil {
		return nil, err
	}
	b := &bucket{id: id, next: pager.PageID(get32(d[4:]))}
	count := get16(d[2:])
	if count > t.bucketCap {
		return nil, corrupt(id, "holds %d points, capacity %d", count, t.bucketCap)
	}
	if b.next == id {
		return nil, corrupt(id, "chains to itself")
	}
	b.points = make([]Point, count)
	off := bucketHeader
	for i := range b.points {
		for k := 0; k < t.dims; k++ {
			b.points[i].C[k] = math.Float32frombits(get32(d[off+4*k:]))
		}
		b.points[i].Val = uint64(get32(d[off+4*t.dims:]))
		off += t.pointSize
	}
	return b, nil
}

func (t *Tree) allocDir() (*dirPage, error) {
	p, err := t.store.Allocate()
	if err != nil {
		return nil, err
	}
	dp := &dirPage{id: p.ID, free: noSlot}
	dp.slots = make([]slot, t.nodeCap)
	return dp, nil
}

func (t *Tree) writeDir(dp *dirPage) error {
	data := make([]byte, t.store.PageSize())
	data[0] = typeDir
	put16(data[2:], dp.count)
	put16(data[4:], dp.root)
	put16(data[6:], dp.free)
	put16(data[8:], dp.high)
	off := dirHeader
	for i := 0; i < dp.high; i++ {
		s := dp.slots[i]
		data[off] = byte(s.dim)
		putf32(data[off+4:], s.split)
		put32(data[off+8:], uint32(s.left))
		put32(data[off+12:], uint32(s.right))
		off += slotSize
	}
	return t.store.Write(&pager.Page{ID: dp.id, Data: data})
}

// readDir decodes directory page id. Beyond the header bounds it checks
// that the in-page nodes reachable from the root and the free chain
// together account for every allocated slot, so no later walk of the page
// can index past it or loop inside it.
func (t *Tree) readDir(w *walk, id pager.PageID) (*dirPage, error) {
	d, err := t.readPage(w, id, typeDir)
	if err != nil {
		return nil, err
	}
	dp := &dirPage{
		id:    id,
		count: get16(d[2:]),
		root:  get16(d[4:]),
		free:  get16(d[6:]),
		high:  get16(d[8:]),
	}
	if dp.high > t.nodeCap || dp.count > dp.high || dp.root >= dp.high {
		return nil, corrupt(id, "has count %d, root %d, high %d; capacity %d", dp.count, dp.root, dp.high, t.nodeCap)
	}
	dp.slots = make([]slot, t.nodeCap)
	off := dirHeader
	for i := 0; i < dp.high; i++ {
		dp.slots[i] = slot{
			dim:   int(d[off]),
			split: getf32(d[off+4:]),
			left:  ref(get32(d[off+8:])),
			right: ref(get32(d[off+12:])),
		}
		off += slotSize
	}
	nodes := 0
	if !dp.countNodes(dp.root, t.dims, &nodes) || nodes != dp.count {
		return nil, corrupt(id, "has a node with a bad dimension or in-page link, or not %d nodes under its root", dp.count)
	}
	free := 0
	for i := dp.free; i != noSlot; i = int(dp.slots[i].left) {
		if free++; i >= dp.high || free > dp.high-dp.count {
			return nil, corrupt(id, "has a broken free-slot chain")
		}
	}
	if free != dp.high-dp.count {
		return nil, corrupt(id, "has %d free slots on its chain, want %d", free, dp.high-dp.count)
	}
	return dp, nil
}

// countNodes adds the in-page nodes under slot i to *n. It reports false
// on a split dimension the tree does not have, a link of no known kind, an
// in-page link past the allocated slots, or more than count nodes (a link
// cycle).
func (dp *dirPage) countNodes(i, dims int, n *int) bool {
	s := dp.slots[i]
	if *n++; *n > dp.count || s.dim >= dims {
		return false
	}
	for _, c := range [2]ref{s.left, s.right} {
		switch {
		case c.tag() > tagDir:
			return false
		case c.tag() == tagNode && (int(c.value()) >= dp.high || !dp.countNodes(int(c.value()), dims, n)):
			return false
		}
	}
	return true
}

// allocSlot grabs a free slot in dp; ok is false when the page is full.
func (dp *dirPage) allocSlot(cap int) (int, bool) {
	if dp.free != noSlot {
		i := dp.free
		dp.free = int(dp.slots[i].left)
		dp.count++
		return i, true
	}
	if dp.high < cap {
		i := dp.high
		dp.high++
		dp.count++
		return i, true
	}
	return 0, false
}

func (dp *dirPage) freeSlot(i int) {
	dp.slots[i] = slot{left: ref(uint32(dp.free))}
	dp.free = i
	dp.count--
}

// ---------------------------------------------------------------------------
// Insert
// ---------------------------------------------------------------------------

// pathStep records how we reached a child: the directory page and slot
// whose side we took. For the tree root, page is nil.
type pathStep struct {
	page  *dirPage
	slot  int
	right bool
}

// checkDims rejects a point of more dimensions than the tree has.
func (t *Tree) checkDims(p Point) error {
	for _, c := range p.C[t.dims:] {
		if c != 0 {
			return fmt.Errorf("kdtree: point %v has coordinates past the tree's %d dims", p.C, t.dims)
		}
	}
	return nil
}

// checkPoint rejects a point the page format or the tree cannot hold.
func (t *Tree) checkPoint(p Point) error {
	if p.Val > math.MaxUint32 {
		return fmt.Errorf("kdtree: value %d does not fit in the 32-bit page slot", p.Val)
	}
	if err := t.checkDims(p); err != nil {
		return err
	}
	if !t.world.Contains(p.Vec(), t.dims) {
		return fmt.Errorf("kdtree: point %v outside world %+v", p.C, t.world)
	}
	return nil
}

// Insert adds a point.
func (t *Tree) Insert(p Point) error {
	if err := t.checkPoint(p); err != nil {
		return err
	}
	w := t.newWalk()
	path, bid, err := t.descend(w, p)
	if err != nil {
		return err
	}
	b, err := t.readBucket(w, bid)
	if err != nil {
		return err
	}
	if len(b.points) < t.bucketCap {
		b.points = append(b.points, p)
		if err := t.writeBucket(b); err != nil {
			return err
		}
		t.size++
		return nil
	}
	// Bucket overflow: split it.
	if err := t.splitBucket(w, path, b, p); err != nil {
		return err
	}
	t.size++
	return nil
}

// descend walks from the root to the bucket responsible for p, returning
// the directory path taken.
func (t *Tree) descend(w *walk, p Point) ([]pathStep, pager.PageID, error) {
	var path []pathStep
	r := t.rootRef
	var dp *dirPage
	var err error
	for {
		switch r.tag() {
		case tagBucket:
			return path, pager.PageID(r.value()), nil
		case tagDir:
			dp, err = t.readDir(w, pager.PageID(r.value()))
			if err != nil {
				return nil, 0, err
			}
			r = mkRef(tagNode, uint32(dp.root))
		case tagNode:
			s := dp.slots[r.value()]
			step := pathStep{page: dp, slot: int(r.value())}
			if float64(p.C[s.dim]) <= s.split {
				r = s.left
			} else {
				step.right = true
				r = s.right
			}
			path = append(path, step)
		}
	}
}

// chooseSplit picks where to cut pts in two: at the median of the
// dimension with the largest spread *relative to the world extent of that
// dimension*. Raw spread would never split a dimension whose domain is
// narrow (velocities span ~1.5 while intercepts span ~1000), defeating the
// both-dimensions splitting the paper's §3.5.1 argues for; normalizing
// makes the domains comparable. The ratios are compared cross-multiplied.
// A dimension in which all of pts coincide cannot be cut and the next one
// is tried; ok is false when the points are identical in every dimension.
func (t *Tree) chooseSplit(pts []Point) (dim int, split float64, ok bool) {
	var spread, extent float64
	for k := 0; k < t.dims; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, q := range pts {
			lo, hi = math.Min(lo, float64(q.C[k])), math.Max(hi, float64(q.C[k]))
		}
		if e := t.world.Hi[k] - t.world.Lo[k]; k == 0 || (hi-lo)*extent > spread*e {
			dim, spread, extent = k, hi-lo, e
		}
	}
	for try := 0; try < t.dims; try++ {
		k := (dim + try) % t.dims
		if split, ok = medianSplit(pts, k); ok {
			return k, split, true
		}
	}
	return 0, 0, false
}

// cut distributes pts around a split: coordinate <= split goes left.
func cut(pts []Point, dim int, split float64) (left, right []Point) {
	for _, q := range pts {
		if float64(q.C[dim]) <= split {
			left = append(left, q)
		} else {
			right = append(right, q)
		}
	}
	return left, right
}

// splitBucket splits the full bucket b (receiving newcomer p), installing
// a new directory node.
func (t *Tree) splitBucket(w *walk, path []pathStep, b *bucket, p Point) error {
	pts := append(append([]Point(nil), b.points...), p)
	dim, split, ok := t.chooseSplit(pts)
	if !ok {
		// All points identical: chain an overflow bucket.
		return t.chainOverflow(w, b, p)
	}
	left, right := cut(pts, dim, split)
	// Reuse b as the left bucket; allocate the right.
	rb, err := t.allocBucket()
	if err != nil {
		return err
	}
	b.points = left
	rb.points = right
	if err := t.writeBucket(b); err != nil {
		return err
	}
	if err := t.writeBucket(rb); err != nil {
		return err
	}
	ns := slot{
		dim:   dim,
		split: split,
		left:  mkRef(tagBucket, uint32(b.id)),
		right: mkRef(tagBucket, uint32(rb.id)),
	}
	return t.installNode(path, ns)
}

// medianSplit returns a split value that separates pts into two non-empty
// groups along dim; ok is false when all coordinates are equal.
func medianSplit(pts []Point, dim int) (float64, bool) {
	cs := make([]float64, len(pts))
	for i, q := range pts {
		cs[i] = float64(q.C[dim])
	}
	sort.Float64s(cs)
	if cs[0] == cs[len(cs)-1] {
		return 0, false
	}
	m := cs[len(cs)/2]
	if m == cs[len(cs)-1] {
		// Everything <= m would swallow all points; step down to the
		// largest value strictly below the maximum.
		i := sort.SearchFloat64s(cs, m)
		m = cs[i-1]
	}
	return m, true
}

// chainOverflow appends p to b's overflow chain.
func (t *Tree) chainOverflow(w *walk, b *bucket, p Point) error {
	for b.next != 0 {
		nb, err := t.readBucket(w, b.next)
		if err != nil {
			return err
		}
		if len(nb.points) < t.bucketCap {
			nb.points = append(nb.points, p)
			return t.writeBucket(nb)
		}
		b = nb
	}
	nb, err := t.allocBucket()
	if err != nil {
		return err
	}
	nb.points = []Point{p}
	if err := t.writeBucket(nb); err != nil {
		return err
	}
	b.next = nb.id
	return t.writeBucket(b)
}

// installNode places the new split node ns where the split bucket used to
// hang: in the parent's directory page if there is room, in a fresh root
// page when the tree had no directory, or after splitting a full page.
func (t *Tree) installNode(path []pathStep, ns slot) error {
	if len(path) == 0 {
		// The split bucket was the tree root.
		dp, err := t.allocDir()
		if err != nil {
			return err
		}
		i, _ := dp.allocSlot(t.nodeCap)
		dp.slots[i] = ns
		dp.root = i
		if err := t.writeDir(dp); err != nil {
			return err
		}
		t.rootRef = mkRef(tagDir, uint32(dp.id))
		return nil
	}
	last := path[len(path)-1]
	dp := last.page
	if i, ok := dp.allocSlot(t.nodeCap); ok {
		dp.slots[i] = ns
		if last.right {
			dp.slots[last.slot].right = mkRef(tagNode, uint32(i))
		} else {
			dp.slots[last.slot].left = mkRef(tagNode, uint32(i))
		}
		return t.writeDir(dp)
	}
	// Directory page full: evict a subtree to a fresh page, then retry.
	if err := t.splitDirPage(dp); err != nil {
		return err
	}
	// The split invalidated in-page slot indexes along the path; re-locate
	// the bucket being replaced by walking the directory. (Rare event:
	// happens once per ~nodeCap bucket splits.)
	path2, err := t.findBucketPath(ns.left.value())
	if err != nil {
		return err
	}
	return t.installNode(path2, ns)
}

// findBucketPath locates the directory path leading to bucket id (used
// only on the rare page-split retry; cost is a directory walk).
func (t *Tree) findBucketPath(bucketID uint32) ([]pathStep, error) {
	var out []pathStep
	found, err := t.findBucketWalk(t.newWalk(), t.rootRef, nil, bucketID, &out)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("kdtree: bucket %d unreachable", bucketID)
	}
	return out, nil
}

func (t *Tree) findBucketWalk(w *walk, r ref, dp *dirPage, bucketID uint32, out *[]pathStep) (bool, error) {
	switch r.tag() {
	case tagBucket:
		return r.value() == bucketID, nil
	case tagDir:
		ndp, err := t.readDir(w, pager.PageID(r.value()))
		if err != nil {
			return false, err
		}
		return t.findBucketWalk(w, mkRef(tagNode, uint32(ndp.root)), ndp, bucketID, out)
	default:
		s := dp.slots[r.value()]
		*out = append(*out, pathStep{page: dp, slot: int(r.value())})
		ok, err := t.findBucketWalk(w, s.left, dp, bucketID, out)
		if err != nil || ok {
			return ok, err
		}
		(*out)[len(*out)-1].right = true
		ok, err = t.findBucketWalk(w, s.right, dp, bucketID, out)
		if err != nil || ok {
			return ok, err
		}
		*out = (*out)[:len(*out)-1]
		return false, nil
	}
}

// splitDirPage moves a roughly half-size in-page subtree of dp to a new
// directory page and replaces its slot with a tagDir reference.
func (t *Tree) splitDirPage(dp *dirPage) error {
	// Find the best eviction root: a non-root slot whose subtree is close
	// to half the page.
	target := dp.count / 2
	bestSlot, bestDiff := -1, 1<<30
	var walk func(i int) int
	walk = func(i int) int {
		s := dp.slots[i]
		n := 1
		if s.left.tag() == tagNode {
			n += walk(int(s.left.value()))
		}
		if s.right.tag() == tagNode {
			n += walk(int(s.right.value()))
		}
		if i != dp.root {
			d := n - target
			if d < 0 {
				d = -d
			}
			if d < bestDiff {
				bestDiff = d
				bestSlot = i
			}
		}
		return n
	}
	walk(dp.root)
	if bestSlot < 0 {
		return fmt.Errorf("kdtree: directory page %d cannot split", dp.id)
	}
	np, err := t.allocDir()
	if err != nil {
		return err
	}
	// Move the subtree rooted at bestSlot into np.
	var move func(i int) int
	move = func(i int) int {
		s := dp.slots[i]
		ni, _ := np.allocSlot(t.nodeCap)
		ns := s
		if s.left.tag() == tagNode {
			ns.left = mkRef(tagNode, uint32(move(int(s.left.value()))))
		}
		if s.right.tag() == tagNode {
			ns.right = mkRef(tagNode, uint32(move(int(s.right.value()))))
		}
		np.slots[ni] = ns
		dp.freeSlot(i)
		return ni
	}
	// Find the parent of bestSlot to relink.
	pSlot, pRight, found := dp.findParent(bestSlot)
	if !found {
		return fmt.Errorf("kdtree: slot %d has no parent in page %d", bestSlot, dp.id)
	}
	nRoot := move(bestSlot)
	np.root = nRoot
	if pRight {
		dp.slots[pSlot].right = mkRef(tagDir, uint32(np.id))
	} else {
		dp.slots[pSlot].left = mkRef(tagDir, uint32(np.id))
	}
	if err := t.writeDir(np); err != nil {
		return err
	}
	return t.writeDir(dp)
}

// findParent locates the in-page parent of slot i.
func (dp *dirPage) findParent(i int) (parent int, right bool, found bool) {
	var walk func(j int) bool
	walk = func(j int) bool {
		s := dp.slots[j]
		if s.left.tag() == tagNode {
			if int(s.left.value()) == i {
				parent, right, found = j, false, true
				return true
			}
			if walk(int(s.left.value())) {
				return true
			}
		}
		if s.right.tag() == tagNode {
			if int(s.right.value()) == i {
				parent, right, found = j, true, true
				return true
			}
			if walk(int(s.right.value())) {
				return true
			}
		}
		return false
	}
	if dp.root == i {
		return 0, false, false
	}
	walk(dp.root)
	return parent, right, found
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

// Delete removes one point equal to p in coordinates and reference; it
// reports whether a point was removed.
func (t *Tree) Delete(p Point) (bool, error) {
	if err := t.checkDims(p); err != nil {
		return false, err
	}
	w := t.newWalk()
	path, bid, err := t.descend(w, p)
	if err != nil {
		return false, err
	}
	// Walk the bucket chain.
	prevID := pager.PageID(0)
	id := bid
	for id != 0 {
		b, err := t.readBucket(w, id)
		if err != nil {
			return false, err
		}
		for i, q := range b.points {
			if q == p {
				b.points = append(b.points[:i], b.points[i+1:]...)
				if len(b.points) == 0 && b.next == 0 && prevID == 0 {
					// Primary bucket empty with no chain: collapse.
					err = t.collapseBucket(path, b)
				} else if len(b.points) == 0 && prevID != 0 {
					// Empty chained bucket: unlink it.
					err = t.unlinkBucket(prevID, b)
				} else {
					err = t.writeBucket(b)
				}
				if err != nil {
					return false, err
				}
				t.size--
				return true, nil
			}
		}
		prevID = id
		id = b.next
	}
	return false, nil
}

// unlinkBucket drops the empty chained bucket b from behind bucket prevID.
func (t *Tree) unlinkBucket(prevID pager.PageID, b *bucket) error {
	pb, err := t.readBucket(nil, prevID)
	if err != nil {
		return err
	}
	pb.next = b.next
	if err := t.writeBucket(pb); err != nil {
		return err
	}
	return t.store.Free(b.id)
}

// collapseBucket removes an empty bucket, replacing its parent split node
// with the sibling subtree.
func (t *Tree) collapseBucket(path []pathStep, b *bucket) error {
	if len(path) == 0 {
		// Empty tree: keep the root bucket.
		return t.writeBucket(b)
	}
	if err := t.store.Free(b.id); err != nil {
		return err
	}
	last := path[len(path)-1]
	dp := last.page
	s := dp.slots[last.slot]
	sibling := s.left
	if !last.right {
		sibling = s.right
	}
	// Find what references the parent node.
	if last.slot == dp.root {
		// The parent node is the page root.
		if sibling.tag() == tagNode {
			dp.root = int(sibling.value())
			dp.freeSlot(last.slot)
			return t.writeDir(dp)
		}
		// Page holds exactly this node (all in-page nodes live under the
		// root, and both of its children are external): drop the page and
		// point the page's referrer at the sibling directly.
		if err := t.store.Free(dp.id); err != nil {
			return err
		}
		if len(path) == 1 {
			t.rootRef = sibling
			return nil
		}
		prev := path[len(path)-2]
		if prev.right {
			prev.page.slots[prev.slot].right = sibling
		} else {
			prev.page.slots[prev.slot].left = sibling
		}
		return t.writeDir(prev.page)
	}
	pSlot, pRight, found := dp.findParent(last.slot)
	if !found {
		return fmt.Errorf("kdtree: parent of slot %d not found in page %d", last.slot, dp.id)
	}
	if pRight {
		dp.slots[pSlot].right = sibling
	} else {
		dp.slots[pSlot].left = sibling
	}
	dp.freeSlot(last.slot)
	return t.writeDir(dp)
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

// SearchRegion reports every stored point inside the region, pruning
// subtrees whose k-d cell the region classifies as Outside and reporting
// wholesale those it classifies as Inside.
func (t *Tree) SearchRegion(reg geom.Region, fn func(Point) bool) error {
	if reg.Dims() != t.dims {
		return fmt.Errorf("kdtree: region has %d dims, tree has %d", reg.Dims(), t.dims)
	}
	_, err := t.searchRef(t.newWalk(), t.rootRef, nil, t.world, reg, fn)
	return err
}

func (t *Tree) searchRef(w *walk, r ref, dp *dirPage, cell geom.Box, reg geom.Region, fn func(Point) bool) (bool, error) {
	switch reg.ClassifyBox(cell) {
	case geom.Outside:
		return true, nil
	case geom.Inside:
		return t.reportAll(w, r, dp, fn)
	}
	switch r.tag() {
	case tagBucket:
		return t.scanBucketChain(w, pager.PageID(r.value()), reg, fn)
	case tagDir:
		ndp, err := t.readDir(w, pager.PageID(r.value()))
		if err != nil {
			return false, err
		}
		return t.searchRef(w, mkRef(tagNode, uint32(ndp.root)), ndp, cell, reg, fn)
	default:
		s := dp.slots[r.value()]
		lcell, rcell := cell, cell
		lcell.Hi[s.dim] = s.split
		rcell.Lo[s.dim] = s.split
		cont, err := t.searchRef(w, s.left, dp, lcell, reg, fn)
		if err != nil || !cont {
			return cont, err
		}
		return t.searchRef(w, s.right, dp, rcell, reg, fn)
	}
}

func (t *Tree) reportAll(w *walk, r ref, dp *dirPage, fn func(Point) bool) (bool, error) {
	switch r.tag() {
	case tagBucket:
		return t.scanBucketChain(w, pager.PageID(r.value()), nil, fn)
	case tagDir:
		ndp, err := t.readDir(w, pager.PageID(r.value()))
		if err != nil {
			return false, err
		}
		return t.reportAll(w, mkRef(tagNode, uint32(ndp.root)), ndp, fn)
	default:
		s := dp.slots[r.value()]
		cont, err := t.reportAll(w, s.left, dp, fn)
		if err != nil || !cont {
			return cont, err
		}
		return t.reportAll(w, s.right, dp, fn)
	}
}

// scanBucketChain reports the points of a bucket and its overflow chain
// that reg contains; a nil reg reports them all.
func (t *Tree) scanBucketChain(w *walk, id pager.PageID, reg geom.Region, fn func(Point) bool) (bool, error) {
	for id != 0 {
		b, err := t.readBucket(w, id)
		if err != nil {
			return false, err
		}
		for _, p := range b.points {
			if reg != nil && !reg.ContainsVec(p.Vec()) {
				continue
			}
			if !fn(p) {
				return false, nil
			}
		}
		id = b.next
	}
	return true, nil
}

// Destroy frees every page of the tree; the tree must not be used after.
func (t *Tree) Destroy() error { return t.destroyRef(t.newWalk(), t.rootRef, nil) }

func (t *Tree) destroyRef(w *walk, r ref, dp *dirPage) error {
	switch r.tag() {
	case tagBucket:
		id := pager.PageID(r.value())
		for id != 0 {
			b, err := t.readBucket(w, id)
			if err != nil {
				return err
			}
			if err := t.store.Free(id); err != nil {
				return err
			}
			id = b.next
		}
		return nil
	case tagDir:
		ndp, err := t.readDir(w, pager.PageID(r.value()))
		if err != nil {
			return err
		}
		if err := t.destroyRef(w, mkRef(tagNode, uint32(ndp.root)), ndp); err != nil {
			return err
		}
		return t.store.Free(ndp.id)
	default:
		s := dp.slots[r.value()]
		if err := t.destroyRef(w, s.left, dp); err != nil {
			return err
		}
		return t.destroyRef(w, s.right, dp)
	}
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

// CheckInvariants verifies the structure: every point lies in its k-d cell,
// directory pages are internally consistent, and the reachable point count
// matches Len.
func (t *Tree) CheckInvariants() error {
	count, err := t.checkRef(t.rootRef, nil, t.world, make(map[pager.PageID]bool))
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("kdtree: size %d but %d points reachable", t.size, count)
	}
	return nil
}

func (t *Tree) checkRef(r ref, dp *dirPage, cell geom.Box, seen map[pager.PageID]bool) (int, error) {
	switch r.tag() {
	case tagBucket:
		total := 0
		id := pager.PageID(r.value())
		for id != 0 {
			if seen[id] {
				return 0, fmt.Errorf("kdtree: bucket %d visited twice", id)
			}
			seen[id] = true
			b, err := t.readBucket(nil, id)
			if err != nil {
				return 0, err
			}
			for _, p := range b.points {
				if !cell.Contains(p.Vec(), t.dims) {
					return 0, fmt.Errorf("kdtree: point %v outside cell %+v", p.C, cell)
				}
			}
			total += len(b.points)
			id = b.next
		}
		return total, nil
	case tagDir:
		id := pager.PageID(r.value())
		if seen[id] {
			return 0, fmt.Errorf("kdtree: directory page %d visited twice", id)
		}
		seen[id] = true
		ndp, err := t.readDir(nil, id)
		if err != nil {
			return 0, err
		}
		return t.checkRef(mkRef(tagNode, uint32(ndp.root)), ndp, cell, seen)
	default:
		s := dp.slots[r.value()]
		if s.split < cell.Lo[s.dim]-geom.Eps || s.split > cell.Hi[s.dim]+geom.Eps {
			return 0, fmt.Errorf("kdtree: split %v outside cell range in dimension %d", s.split, s.dim)
		}
		lcell, rcell := cell, cell
		lcell.Hi[s.dim] = s.split
		rcell.Lo[s.dim] = s.split
		lc, err := t.checkRef(s.left, dp, lcell, seen)
		if err != nil {
			return 0, err
		}
		rc, err := t.checkRef(s.right, dp, rcell, seen)
		if err != nil {
			return 0, err
		}
		return lc + rc, nil
	}
}
