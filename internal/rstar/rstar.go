// Package rstar implements a disk-paged R*-tree (Beckmann, Kriegel,
// Schneider, Seeger, SIGMOD 1990): ChooseSubtree with overlap-enlargement
// at the leaf level, margin-driven split-axis selection, and forced
// reinsertion on first overflow per level.
//
// It is the "traditional indexing" baseline of the paper's §3.1/§5
// experiments, where each mobile object's trajectory is stored as a line
// segment approximated by its minimum bounding rectangle. Leaf entries are
// four 4-byte coordinates plus a 4-byte pointer — 20 bytes — so a 4096-byte
// page holds B = 204 entries exactly as computed in §5. Its one query is
// SearchRect, the (t, y) rectangle search of §3.1.
//
// Every page is checked as it is read: an image shorter than a page, an
// entry count past the page capacity, or a level other than the one its
// parent implies yields an error wrapping pager.ErrPageCorrupt, never a
// panic or an endless descent.
package rstar

import (
	"fmt"
	"math"
	"sort"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

// Item is one indexed object: a rectangle and an opaque 32-bit reference
// (stored on page as 4 bytes, mirroring the paper's record layout).
type Item struct {
	Rect geom.Rect
	Val  uint64 // must fit in 32 bits
}

// The R*-paper's recommended tuning: the minimum node fill m/M and the
// fraction p of entries removed on forced reinsert.
const (
	minFill      = 0.4
	reinsertFrac = 0.3
)

// Tree is an R*-tree stored in a pager.Store.
type Tree struct {
	store  pager.Store
	root   pager.PageID
	height int // 1 = root is leaf
	size   int
	maxCap int
	minCap int
	pReins int
}

// node is the in-memory image of one page. Level 0 is a leaf; leaves hold
// items (child == val), internal nodes hold child page ids.
type node struct {
	id    pager.PageID
	level int
	rects []geom.Rect
	refs  []uint32 // child page id or item value
}

const headerSize = 8 // type/level byte, pad, count uint16, pad uint32
const entrySize = 20 // four float32 coords + uint32 ref

// New creates an empty tree.
func New(store pager.Store) (*Tree, error) {
	maxCap := (store.PageSize() - headerSize) / entrySize
	if maxCap < 8 {
		return nil, fmt.Errorf("rstar: page size %d too small", store.PageSize())
	}
	t := &Tree{
		store:  store,
		maxCap: maxCap,
		minCap: int(minFill * float64(maxCap)),
		pReins: int(reinsertFrac * float64(maxCap)),
	}
	p, err := store.Allocate()
	if err != nil {
		return nil, err
	}
	root := &node{id: p.ID, level: 0}
	if err := t.writeNode(root); err != nil {
		return nil, err
	}
	t.root = p.ID
	t.height = 1
	return t, nil
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 = root is a leaf).
func (t *Tree) Height() int { return t.height }

// Capacity returns the page capacity B for entries.
func (t *Tree) Capacity() int { return t.maxCap }

// ---------------------------------------------------------------------------
// Page serialization
// ---------------------------------------------------------------------------

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

func (t *Tree) writeNode(n *node) error {
	data := make([]byte, t.store.PageSize())
	data[0] = byte(n.level)
	data[2] = byte(len(n.rects))
	data[3] = byte(len(n.rects) >> 8)
	off := headerSize
	for i, r := range n.rects {
		putf32(data[off:], r.MinX)
		putf32(data[off+4:], r.MinY)
		putf32(data[off+8:], r.MaxX)
		putf32(data[off+12:], r.MaxY)
		put32(data[off+16:], n.refs[i])
		off += entrySize
	}
	return t.store.Write(&pager.Page{ID: n.id, Data: data})
}

// corrupt reports a page whose bytes cannot have been written by this tree.
func corrupt(id pager.PageID, format string, args ...any) error {
	return fmt.Errorf("rstar: %w: page %d %s", pager.ErrPageCorrupt, id, fmt.Sprintf(format, args...))
}

// readNode reads the node of page id, which its parent places at the given
// level (the root at height − 1). Levels fall by one per step down, so a
// child reference that leads back up the tree, a cycle included, fails the
// level check instead of recursing forever.
func (t *Tree) readNode(id pager.PageID, level int) (*node, error) {
	p, err := t.store.Read(id)
	if err != nil {
		return nil, err
	}
	d := p.Data
	if len(d) < t.store.PageSize() {
		return nil, corrupt(id, "is %d bytes, want %d", len(d), t.store.PageSize())
	}
	if int(d[0]) != level {
		return nil, corrupt(id, "is at level %d, want %d", d[0], level)
	}
	count := int(d[2]) | int(d[3])<<8
	if count > t.maxCap {
		return nil, corrupt(id, "holds %d entries, past the capacity %d", count, t.maxCap)
	}
	if count == 0 && level > 0 {
		return nil, corrupt(id, "is an internal node with no entries")
	}
	n := &node{id: id, level: level}
	n.rects = make([]geom.Rect, count)
	n.refs = make([]uint32, count)
	off := headerSize
	for i := 0; i < count; i++ {
		n.rects[i] = geom.Rect{
			MinX: getf32(d[off:]), MinY: getf32(d[off+4:]),
			MaxX: getf32(d[off+8:]), MaxY: getf32(d[off+12:]),
		}
		n.refs[i] = get32(d[off+16:])
		off += entrySize
	}
	return n, nil
}

func (n *node) mbr() geom.Rect {
	r := geom.EmptyRect()
	for _, e := range n.rects {
		r = r.Union(e)
	}
	return r
}

func (n *node) add(r geom.Rect, ref uint32) {
	n.rects = append(n.rects, r)
	n.refs = append(n.refs, ref)
}

func (n *node) remove(i int) {
	n.rects = append(n.rects[:i], n.rects[i+1:]...)
	n.refs = append(n.refs[:i], n.refs[i+1:]...)
}

// roundRect snaps r to the float32 grid used on page (the paper stores
// 4-byte coordinates); Insert applies it so Delete and Search compare
// against exactly the values a page round-trip produces.
func roundRect(r geom.Rect) geom.Rect {
	return geom.Rect{
		MinX: float64(float32(r.MinX)), MinY: float64(float32(r.MinY)),
		MaxX: float64(float32(r.MaxX)), MaxY: float64(float32(r.MaxY)),
	}
}

// ---------------------------------------------------------------------------
// Insertion
// ---------------------------------------------------------------------------

// Insert adds an item to the tree.
func (t *Tree) Insert(it Item) error {
	if it.Val > math.MaxUint32 {
		return fmt.Errorf("rstar: value %d does not fit in the 32-bit page slot", it.Val)
	}
	// One forced reinsert permitted per level per top-level insertion.
	reinserted := make(map[int]bool)
	if err := t.insert(it.Rect, uint32(it.Val), 0, reinserted); err != nil {
		return err
	}
	t.size++
	return nil
}

// insert places (r, ref) at the target level.
func (t *Tree) insert(r geom.Rect, ref uint32, level int, reinserted map[int]bool) error {
	r = roundRect(r)
	path, err := t.choosePath(r, level)
	if err != nil {
		return err
	}
	n := path[len(path)-1].n
	n.add(r, ref)
	return t.propagate(path, reinserted)
}

type pathEl struct {
	n   *node
	idx int // index of this node's entry within its parent
}

// choosePath descends from the root to the node at targetLevel using the
// R* ChooseSubtree criteria, returning the visited path.
func (t *Tree) choosePath(r geom.Rect, targetLevel int) ([]pathEl, error) {
	if targetLevel >= t.height {
		return nil, fmt.Errorf("rstar: no level %d in a tree of height %d", targetLevel, t.height)
	}
	var path []pathEl
	id := t.root
	idxInParent := -1
	for level := t.height - 1; ; level-- {
		n, err := t.readNode(id, level)
		if err != nil {
			return nil, err
		}
		path = append(path, pathEl{n: n, idx: idxInParent})
		if level == targetLevel {
			return path, nil
		}
		ci := t.chooseSubtree(n, r)
		idxInParent = ci
		id = pager.PageID(n.refs[ci])
	}
}

// overlapFast returns the overlap area of two rectangles without the
// generality (empty-rect handling, function-call overhead) of
// geom.Rect.OverlapArea — ChooseSubtree evaluates it O(M·p) times per
// insertion and dominates the R*-tree's CPU profile.
func overlapFast(a, b geom.Rect) float64 {
	minX := a.MinX
	if b.MinX > minX {
		minX = b.MinX
	}
	maxX := a.MaxX
	if b.MaxX < maxX {
		maxX = b.MaxX
	}
	if maxX <= minX {
		return 0
	}
	minY := a.MinY
	if b.MinY > minY {
		minY = b.MinY
	}
	maxY := a.MaxY
	if b.MaxY < maxY {
		maxY = b.MaxY
	}
	if maxY <= minY {
		return 0
	}
	return (maxX - minX) * (maxY - minY)
}

// chooseSubtree picks the child of n to descend into for rectangle r. It
// starts from a valid child, since with NaN or infinite coordinates no
// comparison below may hold.
func (t *Tree) chooseSubtree(n *node, r geom.Rect) int {
	if n.level == 1 {
		// Children are leaves: minimize overlap enlargement, then area
		// enlargement, then area. Computing overlap enlargement for every
		// child is O(M²); following the R*-paper's own optimization, only
		// the p=32 children with least area enlargement are examined.
		const p = 32
		cand := make([]int, len(n.rects))
		for i := range cand {
			cand[i] = i
		}
		if len(cand) > p {
			deltas := make([]float64, len(n.rects))
			for i, cr := range n.rects {
				deltas[i] = cr.Union(r).Area() - cr.Area()
			}
			sort.Slice(cand, func(a, b int) bool { return deltas[cand[a]] < deltas[cand[b]] })
			cand = cand[:p]
		}
		best, bestOverlapDelta, bestAreaDelta, bestArea := cand[0], math.Inf(1), math.Inf(1), math.Inf(1)
		for _, i := range cand {
			cr := n.rects[i]
			enlarged := cr.Union(r)
			var ovBefore, ovAfter float64
			for j, or := range n.rects {
				if j == i {
					continue
				}
				ovBefore += overlapFast(cr, or)
				ovAfter += overlapFast(enlarged, or)
			}
			od := ovAfter - ovBefore
			ad := enlarged.Area() - cr.Area()
			a := cr.Area()
			if od < bestOverlapDelta-geom.Eps ||
				(math.Abs(od-bestOverlapDelta) <= geom.Eps && ad < bestAreaDelta-geom.Eps) ||
				(math.Abs(od-bestOverlapDelta) <= geom.Eps && math.Abs(ad-bestAreaDelta) <= geom.Eps && a < bestArea) {
				best, bestOverlapDelta, bestAreaDelta, bestArea = i, od, ad, a
			}
		}
		return best
	}
	// Children are internal: minimize area enlargement, then area.
	best, bestAreaDelta, bestArea := 0, math.Inf(1), math.Inf(1)
	for i, cr := range n.rects {
		ad := cr.Union(r).Area() - cr.Area()
		a := cr.Area()
		if ad < bestAreaDelta-geom.Eps ||
			(math.Abs(ad-bestAreaDelta) <= geom.Eps && a < bestArea) {
			best, bestAreaDelta, bestArea = i, ad, a
		}
	}
	return best
}

// propagate writes the modified tail node of path and handles overflow,
// updating ancestor rectangles on the way up.
func (t *Tree) propagate(path []pathEl, reinserted map[int]bool) error {
	for depth := len(path) - 1; depth >= 0; depth-- {
		n := path[depth].n
		if len(n.rects) <= t.maxCap {
			if err := t.writeNode(n); err != nil {
				return err
			}
			continue
		}
		isRoot := depth == 0
		if !isRoot && !reinserted[n.level] {
			reinserted[n.level] = true
			if err := t.forcedReinsert(path[:depth+1], reinserted); err != nil {
				return err
			}
			// forcedReinsert finished the whole propagation.
			return nil
		}
		// Split.
		left, right := t.split(n)
		path[depth].n = left // ancestors must see the shrunken node
		if err := t.writeNode(left); err != nil {
			return err
		}
		rp, err := t.store.Allocate()
		if err != nil {
			return err
		}
		right.id = rp.ID
		if err := t.writeNode(right); err != nil {
			return err
		}
		if isRoot {
			np, err := t.store.Allocate()
			if err != nil {
				return err
			}
			newRoot := &node{
				id:    np.ID,
				level: n.level + 1,
				rects: []geom.Rect{left.mbr(), right.mbr()},
				refs:  []uint32{uint32(left.id), uint32(right.id)},
			}
			if err := t.writeNode(newRoot); err != nil {
				return err
			}
			t.root = newRoot.id
			t.height++
			return nil
		}
		parent := path[depth-1].n
		parent.rects[path[depth].idx] = left.mbr()
		parent.refs[path[depth].idx] = uint32(left.id)
		parent.add(right.mbr(), uint32(right.id))
		// Loop continues: parent may now overflow.
	}
	// Update ancestor MBRs (the loop above wrote nodes but parent rects of
	// non-overflowing nodes still need refresh).
	return t.refreshPathRects(path)
}

// refreshPathRects recomputes each parent entry rect along the path.
func (t *Tree) refreshPathRects(path []pathEl) error {
	for depth := len(path) - 1; depth >= 1; depth-- {
		child := path[depth].n
		parent := path[depth-1].n
		m := child.mbr()
		if parent.rects[path[depth].idx] != m {
			parent.rects[path[depth].idx] = m
			if err := t.writeNode(parent); err != nil {
				return err
			}
		}
	}
	return nil
}

// forcedReinsert removes the p entries of the overflowing tail node whose
// centers are farthest from the node's center, shrinks the node, fixes
// ancestor rects, and reinserts the removed entries (closest first).
func (t *Tree) forcedReinsert(path []pathEl, reinserted map[int]bool) error {
	n := path[len(path)-1].n
	center := n.mbr().Center()
	type de struct {
		r    geom.Rect
		ref  uint32
		dist float64
	}
	all := make([]de, len(n.rects))
	for i := range n.rects {
		c := n.rects[i].Center()
		dx, dy := c.X-center.X, c.Y-center.Y
		all[i] = de{n.rects[i], n.refs[i], dx*dx + dy*dy}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].dist < all[j].dist })
	keep := all[:len(all)-t.pReins]
	out := all[len(all)-t.pReins:]
	n.rects = n.rects[:0]
	n.refs = n.refs[:0]
	for _, e := range keep {
		n.add(e.r, e.ref)
	}
	if err := t.writeNode(n); err != nil {
		return err
	}
	if err := t.refreshPathRects(path); err != nil {
		return err
	}
	// Close reinsert: nearest first.
	for _, e := range out {
		if err := t.insert(e.r, e.ref, n.level, reinserted); err != nil {
			return err
		}
	}
	return nil
}

// split performs the R* topological split of an overflowing node: pick the
// axis minimizing the margin sum over all legal distributions, then the
// distribution with minimum overlap (ties: minimum total area). The left
// half reuses n's page. Like chooseSubtree it starts from a legal choice,
// so an infinite coordinate, whose margins and areas compare false, still
// splits the node instead of emptying both halves.
func (t *Tree) split(n *node) (left, right *node) {
	type ent struct {
		r   geom.Rect
		ref uint32
	}
	es := make([]ent, len(n.rects))
	for i := range n.rects {
		es[i] = ent{n.rects[i], n.refs[i]}
	}
	m := t.minCap
	M := len(es)

	bestAxisMargin := math.Inf(1)
	var bestSorted []ent
	var bestSplitAt int

	for axis := 0; axis < 2; axis++ {
		for _, byUpper := range []bool{false, true} {
			sorted := make([]ent, len(es))
			copy(sorted, es)
			sort.Slice(sorted, func(i, j int) bool {
				a, b := sorted[i].r, sorted[j].r
				switch {
				case axis == 0 && !byUpper:
					if a.MinX != b.MinX {
						return a.MinX < b.MinX
					}
					return a.MaxX < b.MaxX
				case axis == 0:
					return a.MaxX < b.MaxX
				case !byUpper:
					if a.MinY != b.MinY {
						return a.MinY < b.MinY
					}
					return a.MaxY < b.MaxY
				default:
					return a.MaxY < b.MaxY
				}
			})
			// Prefix/suffix MBRs for O(M) distribution evaluation.
			pre := make([]geom.Rect, len(sorted)+1)
			suf := make([]geom.Rect, len(sorted)+1)
			pre[0] = geom.EmptyRect()
			for i := range sorted {
				pre[i+1] = pre[i].Union(sorted[i].r)
			}
			suf[len(sorted)] = geom.EmptyRect()
			for i := len(sorted) - 1; i >= 0; i-- {
				suf[i] = suf[i+1].Union(sorted[i].r)
			}
			marginSum := 0.0
			localBestOverlap, localBestArea, localSplit := math.Inf(1), math.Inf(1), m
			for k := m; k <= M-m; k++ {
				l, r := pre[k], suf[k]
				marginSum += l.Margin() + r.Margin()
				ov := l.OverlapArea(r)
				ar := l.Area() + r.Area()
				if ov < localBestOverlap-geom.Eps ||
					(math.Abs(ov-localBestOverlap) <= geom.Eps && ar < localBestArea) {
					localBestOverlap, localBestArea, localSplit = ov, ar, k
				}
			}
			if bestSorted == nil || marginSum < bestAxisMargin {
				bestAxisMargin = marginSum
				bestSorted = sorted
				bestSplitAt = localSplit
			}
		}
	}

	left = &node{id: n.id, level: n.level}
	right = &node{level: n.level}
	for i, e := range bestSorted {
		if i < bestSplitAt {
			left.add(e.r, e.ref)
		} else {
			right.add(e.r, e.ref)
		}
	}
	return left, right
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

// SearchRect calls fn for every item whose rectangle intersects q; fn
// returning false stops the search.
func (t *Tree) SearchRect(q geom.Rect, fn func(Item) bool) error {
	_, err := t.searchRect(t.root, t.height-1, q, fn)
	return err
}

func (t *Tree) searchRect(id pager.PageID, level int, q geom.Rect, fn func(Item) bool) (bool, error) {
	n, err := t.readNode(id, level)
	if err != nil {
		return false, err
	}
	for i, r := range n.rects {
		if !r.Intersects(q) {
			continue
		}
		if level == 0 {
			if !fn(Item{Rect: r, Val: uint64(n.refs[i])}) {
				return false, nil
			}
			continue
		}
		cont, err := t.searchRect(pager.PageID(n.refs[i]), level-1, q, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// ---------------------------------------------------------------------------
// Deletion
// ---------------------------------------------------------------------------

// Delete removes one item matching it exactly (rectangle after float32
// rounding, and value). It returns pager.ErrPageNotFound-free semantics:
// a boolean found result.
func (t *Tree) Delete(it Item) (bool, error) {
	r := roundRect(it.Rect)
	path, idx, err := t.findLeaf(t.root, t.height-1, nil, r, uint32(it.Val))
	if err != nil {
		return false, err
	}
	if path == nil {
		return false, nil
	}
	leaf := path[len(path)-1].n
	leaf.remove(idx)
	// Condense: collect orphaned entries from underfull nodes bottom-up.
	type orphan struct {
		r     geom.Rect
		ref   uint32
		level int
	}
	var orphans []orphan
	for depth := len(path) - 1; depth >= 1; depth-- {
		n := path[depth].n
		parent := path[depth-1].n
		if len(n.rects) < t.minCap {
			for i := range n.rects {
				orphans = append(orphans, orphan{n.rects[i], n.refs[i], n.level})
			}
			parent.remove(path[depth].idx)
			if err := t.store.Free(n.id); err != nil {
				return false, err
			}
		} else {
			if err := t.writeNode(n); err != nil {
				return false, err
			}
			parent.rects[path[depth].idx] = n.mbr()
		}
	}
	if err := t.writeNode(path[0].n); err != nil {
		return false, err
	}
	// Shrink the root if it is internal with a single child.
	for {
		rn, err := t.readNode(t.root, t.height-1)
		if err != nil {
			return false, err
		}
		if rn.level == 0 || len(rn.rects) > 1 {
			break
		}
		old := t.root
		t.root = pager.PageID(rn.refs[0])
		t.height--
		if err := t.store.Free(old); err != nil {
			return false, err
		}
	}
	// Reinsert orphans at their original levels.
	for _, o := range orphans {
		reinserted := make(map[int]bool)
		if err := t.insert(o.r, o.ref, o.level, reinserted); err != nil {
			return false, err
		}
	}
	t.size--
	return true, nil
}

// findLeaf locates the leaf containing (r, ref), returning the path and
// entry index, or a nil path when absent.
func (t *Tree) findLeaf(id pager.PageID, level int, path []pathEl, r geom.Rect, ref uint32) ([]pathEl, int, error) {
	n, err := t.readNode(id, level)
	if err != nil {
		return nil, 0, err
	}
	if n.level == 0 {
		for i := range n.rects {
			if n.refs[i] == ref && rectsEqual(n.rects[i], r) {
				return append(path, pathEl{n: n}), i, nil
			}
		}
		return nil, 0, nil
	}
	for i := range n.rects {
		if !n.rects[i].ContainsRect(r) {
			continue
		}
		got, idx, err := t.findLeaf(pager.PageID(n.refs[i]), level-1, append(path, pathEl{n: n}), r, ref)
		if err != nil {
			return nil, 0, err
		}
		if got != nil {
			// Record which child we descended into for condense.
			got[len(path)+1].idx = i
			return got, idx, nil
		}
	}
	return nil, 0, nil
}

func rectsEqual(a, b geom.Rect) bool {
	return math.Abs(a.MinX-b.MinX) <= geom.Eps && math.Abs(a.MinY-b.MinY) <= geom.Eps &&
		math.Abs(a.MaxX-b.MaxX) <= geom.Eps && math.Abs(a.MaxY-b.MaxY) <= geom.Eps
}

// ---------------------------------------------------------------------------
// Invariants
// ---------------------------------------------------------------------------

// CheckInvariants verifies structure: levels decrease, parent rects contain
// children, entry counts within bounds, and the reachable item count equals
// Len.
func (t *Tree) CheckInvariants() error {
	count, err := t.checkNode(t.root, t.height-1, nil)
	if err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("rstar: size %d but %d items reachable", t.size, count)
	}
	return nil
}

// checkNode checks the subtree at id, reading each page once: a node is
// checked against within, its parent's entry rect (nil at the root), from
// the page read here.
func (t *Tree) checkNode(id pager.PageID, level int, within *geom.Rect) (int, error) {
	n, err := t.readNode(id, level)
	if err != nil {
		return 0, err
	}
	if within != nil {
		if len(n.rects) < t.minCap {
			return 0, fmt.Errorf("rstar: node %d underfull (%d < %d)", id, len(n.rects), t.minCap)
		}
		if !within.ContainsRect(n.mbr()) {
			return 0, fmt.Errorf("rstar: node %d mbr %v lies outside its parent entry rect %v", id, n.mbr(), *within)
		}
	}
	if n.level == 0 {
		return len(n.rects), nil
	}
	total := 0
	for i := range n.rects {
		c, err := t.checkNode(pager.PageID(n.refs[i]), level-1, &n.rects[i])
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}
