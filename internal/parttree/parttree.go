// Package parttree implements the (almost) optimal simplex range searching
// structure of §3.3-3.4: a partition tree in the style of Matousek
// ("Efficient Partition Trees"), externalized following Agarwal et al.
// ("Efficient Searching with Linear Constraints") and made dynamic with the
// logarithmic method of Overmars ("The Design of Dynamic Data Structures").
//
// Each internal node holds a balanced partition of its points into up to B
// cells (B = page fanout); a simplex query recurses only into cells whose
// boundary the query crosses, reports whole subtrees for cells inside the
// region, and skips cells outside it. Because a line crosses O(√r) cells
// of a balanced r-cell partition, the query time is O(n^(1/2+ε) + k) I/Os —
// matching the Theorem 1 lower bound for linear space up to ε.
//
// The tree is d-dimensional, 1 ≤ d ≤ geom.MaxDims: d = 2 over the dual plane
// (v, a) for the 1-dimensional MOR query, and d = 4 over (vx, ax, vy, ay)
// for the §4.2 remark that a 4-dimensional partition tree answers the
// 2-dimensional query in O(n^(3/4+ε) + k) I/Os. How a query classifies a
// cell is the caller's geom.Region.
//
// Construction note (documented substitution): cells are produced by
// recursive median subdivision on the widest axis — a balanced partition
// whose cells are boxes — rather than by Matousek's test-set/cutting
// construction with triangle cells. The O(√r) crossing bound for balanced
// median subdivisions is the classic k-d partition bound; the package
// exposes MaxLineCrossings so tests (and EXPERIMENTS.md) verify the
// crossing number empirically instead of assuming it.
//
// Dynamization: the tree is a collection of static blocks with strictly
// growing sizes. An insert rebuilds the smallest prefix of blocks into one
// (O(log²) amortized I/Os); a delete removes the point from its static
// block in place (weak deletion — cells only ever shrink logically) and a
// global rebuild is triggered once half the points are gone.
package parttree

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

// Page layout:
//
// Internal (type 9): off 0 type, off 2 count u16;
//
//	entries at off 8, 8d+4 bytes: cell box lo (d × f32), hi (d × f32),
//	child page u32.
//
// Leaf (type 10): off 0 type, off 2 count u16;
//
//	points at off 8, 4d+4 bytes: d × f32, val u32.
//
// At d = 2 that is the 20-byte cell and the paper's 12-byte record. Both
// strides depend on d, so it is the constructor, not a constant the
// codecbounds lint can fold, that guarantees header + cap·stride ≤
// PageSize; and since a page comes back from the store as whatever bytes
// the medium kept, readNode checks the type and count it is about to trust
// and reports a violation as pager.ErrPageCorrupt.
const (
	typeInternal = 9
	typeLeaf     = 10

	headerSize = 8
)

// Tree is a dynamized partition tree.
type Tree struct {
	store     pager.Store
	dims      int
	cellSize  int // bytes per internal entry: 8·dims + 4
	pointSize int // bytes per leaf record: 4·dims + 4
	fanout    int
	leafCap   int
	blocks    []*block // sorted by size ascending after maintenance
	size      int      // live points
	dead      int      // weak-deleted points since last global rebuild
}

// block is one static partition tree.
type block struct {
	root   pager.PageID
	height int // 1 = root is leaf
	size   int // live points in the block
}

// New creates an empty dims-dimensional tree with one page per node.
func New(store pager.Store, dims int) (*Tree, error) {
	if dims < 1 || dims > geom.MaxDims {
		return nil, fmt.Errorf("parttree: dims must be in [1, %d], got %d", geom.MaxDims, dims)
	}
	ps := store.PageSize()
	t := &Tree{store: store, dims: dims, cellSize: 8*dims + 4, pointSize: 4*dims + 4}
	t.fanout = (ps - headerSize) / t.cellSize
	t.leafCap = (ps - headerSize) / t.pointSize
	// The second line is the bound every codec write relies on, asserted
	// here because no lint can fold a stride that depends on dims.
	if t.fanout < 2 || t.leafCap < 2 ||
		headerSize+t.fanout*t.cellSize > ps || headerSize+t.leafCap*t.pointSize > ps {
		return nil, fmt.Errorf("parttree: page size %d too small for %d dims", ps, dims)
	}
	return t, nil
}

// Len returns the number of live points.
func (t *Tree) Len() int { return t.size }

// Blocks returns the number of static blocks (O(log n)).
func (t *Tree) Blocks() int { return len(t.blocks) }

// checkPoint rejects a point of more dimensions than the tree has or one
// whose reference the page format cannot hold.
func (t *Tree) checkPoint(p Point) error {
	if p.Val > math.MaxUint32 {
		return fmt.Errorf("parttree: value %d does not fit in the 32-bit page slot", p.Val)
	}
	for _, c := range p.C[t.dims:] {
		if c != 0 {
			return fmt.Errorf("parttree: point %v has coordinates past the tree's %d dims", p.C, t.dims)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Static block construction
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

// bound returns the bounding box of pts in the first d dimensions.
func bound(pts []Point, d int) geom.Box {
	var b geom.Box
	for k := 0; k < d; k++ {
		b.Lo[k], b.Hi[k] = math.Inf(1), math.Inf(-1)
		for _, p := range pts {
			b.Lo[k], b.Hi[k] = math.Min(b.Lo[k], float64(p.C[k])), math.Max(b.Hi[k], float64(p.C[k]))
		}
	}
	return b
}

// partition splits pts into at most fanout balanced cells by recursive
// median subdivision on the widest axis.
func partition(pts []Point, fanout, d int) [][]Point {
	out := [][]Point{pts}
	for len(out) < fanout {
		// Split the largest cell.
		bi, bn := -1, 1
		for i, c := range out {
			if len(c) > bn {
				bi, bn = i, len(c)
			}
		}
		if bi < 0 {
			break // all cells are singletons or empty
		}
		c := out[bi]
		b := bound(c, d)
		dim := 0
		for k := 1; k < d; k++ {
			if b.Hi[k]-b.Lo[k] > b.Hi[dim]-b.Lo[dim] {
				dim = k
			}
		}
		mid := len(c) / 2
		nthElement(c, mid, dim)
		out[bi] = c[:mid]
		out = append(out, c[mid:])
	}
	// Drop empties (possible with heavy duplication).
	keep := out[:0]
	for _, c := range out {
		if len(c) > 0 {
			keep = append(keep, c)
		}
	}
	return keep
}

// nthElement partially orders c by the dim coordinate so that c[k] holds
// the value it would have after a full sort, everything before it compares
// <= and everything after >=. Expected O(n) — a three-way-partition
// quickselect — where the full sort each median split previously paid is
// O(n log n); across the O(fanout) splits of one node that asymptotic gap
// dominated static-block construction time.
func nthElement(c []Point, k, dim int) {
	lo, hi := 0, len(c)
	for hi-lo > 1 {
		// Median-of-three pivot guards against sorted runs.
		a, b, d := c[lo].C[dim], c[(lo+hi)/2].C[dim], c[hi-1].C[dim]
		pv := a
		switch {
		case (a <= b && b <= d) || (d <= b && b <= a):
			pv = b
		case (a <= d && d <= b) || (b <= d && d <= a):
			pv = d
		}
		// Dutch-flag partition into < pv | == pv | > pv; duplicate-heavy
		// inputs collapse into the middle band instead of degrading to
		// quadratic behaviour.
		lt, i, gt := lo, lo, hi
		for i < gt {
			v := c[i].C[dim]
			switch {
			case v < pv:
				c[lt], c[i] = c[i], c[lt]
				lt++
				i++
			case v > pv:
				gt--
				c[i], c[gt] = c[gt], c[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// buildStatic writes a static partition tree for pts and returns its root
// and height.
func (t *Tree) buildStatic(pts []Point) (pager.PageID, int, error) {
	if len(pts) <= t.leafCap {
		id, err := t.writeLeaf(0, pts)
		return id, 1, err
	}
	// Cap the partition arity so cells stay at least a leaf-page large:
	// over-splitting would leave leaves nearly empty and multiply the
	// boundary I/O, destroying the √n query bound.
	r := (len(pts) + t.leafCap - 1) / t.leafCap
	if r > t.fanout {
		r = t.fanout
	}
	if r < 2 {
		r = 2
	}
	cells := partition(pts, r, t.dims)
	if len(cells) == 1 {
		// All points identical: overflow leaf chainless fallback — split
		// arbitrarily to respect the page bound.
		cells = nil
		for i := 0; i < len(pts); i += t.leafCap {
			j := i + t.leafCap
			if j > len(pts) {
				j = len(pts)
			}
			cells = append(cells, pts[i:j])
		}
	}
	p, err := t.store.Allocate()
	if err != nil {
		return 0, 0, err
	}
	d := p.Data
	d[0] = typeInternal
	maxH := 0
	off := headerSize
	for _, c := range cells {
		child, h, err := t.buildStatic(c)
		if err != nil {
			return 0, 0, err
		}
		if h > maxH {
			maxH = h
		}
		b := bound(c, t.dims)
		for k := 0; k < t.dims; k++ {
			putf32(d[off+4*k:], b.Lo[k])
			putf32(d[off+4*(t.dims+k):], b.Hi[k])
		}
		put32(d[off+8*t.dims:], uint32(child))
		off += t.cellSize
	}
	put16(d[2:], len(cells))
	if err := t.store.Write(p); err != nil {
		return 0, 0, err
	}
	return p.ID, maxH + 1, nil
}

// writeLeaf writes pts as leaf page id, or as a freshly allocated leaf
// when id is 0, and returns the page written.
func (t *Tree) writeLeaf(id pager.PageID, pts []Point) (pager.PageID, error) {
	if id == 0 {
		p, err := t.store.Allocate()
		if err != nil {
			return 0, err
		}
		id = p.ID
	}
	d := make([]byte, t.store.PageSize())
	d[0] = typeLeaf
	put16(d[2:], len(pts))
	off := headerSize
	for _, q := range pts {
		for k := 0; k < t.dims; k++ {
			put32(d[off+4*k:], math.Float32bits(q.C[k]))
		}
		put32(d[off+4*t.dims:], uint32(q.Val))
		off += t.pointSize
	}
	return id, t.store.Write(&pager.Page{ID: id, Data: d})
}

type cellEntry struct {
	box   geom.Box
	child pager.PageID
}

func corrupt(id pager.PageID, format string, args ...any) error {
	return fmt.Errorf("parttree: %w: page %d %s", pager.ErrPageCorrupt, id, fmt.Sprintf(format, args...))
}

// readNode reads and decodes the node at page id, h levels above the
// deepest leaf its block may have. A block records its height when it is
// built, so a descent that runs out of levels has followed a child
// reference no builder wrote — a cycle included.
func (t *Tree) readNode(id pager.PageID, h int) (leafPts []Point, cells []cellEntry, err error) {
	if h < 1 {
		return nil, nil, corrupt(id, "lies below its block's recorded height")
	}
	p, err := t.store.Read(id)
	if err != nil {
		return nil, nil, err
	}
	d := p.Data
	if len(d) < t.store.PageSize() {
		return nil, nil, corrupt(id, "is %d bytes long", len(d))
	}
	count := get16(d[2:])
	off := headerSize
	switch d[0] {
	case typeLeaf:
		if count > t.leafCap {
			return nil, nil, corrupt(id, "holds %d points, capacity %d", count, t.leafCap)
		}
		pts := make([]Point, count)
		for i := range pts {
			for k := 0; k < t.dims; k++ {
				pts[i].C[k] = math.Float32frombits(get32(d[off+4*k:]))
			}
			pts[i].Val = uint64(get32(d[off+4*t.dims:]))
			off += t.pointSize
		}
		return pts, nil, nil
	case typeInternal:
		if count > t.fanout {
			return nil, nil, corrupt(id, "holds %d cells, fanout %d", count, t.fanout)
		}
		cs := make([]cellEntry, count)
		for i := range cs {
			for k := 0; k < t.dims; k++ {
				cs[i].box.Lo[k] = getf32(d[off+4*k:])
				cs[i].box.Hi[k] = getf32(d[off+4*(t.dims+k):])
			}
			cs[i].child = pager.PageID(get32(d[off+8*t.dims:]))
			off += t.cellSize
		}
		return nil, cs, nil
	default:
		return nil, nil, corrupt(id, "has unknown type %d", d[0])
	}
}

func (t *Tree) freeSubtree(id pager.PageID, h int) error {
	_, cells, err := t.readNode(id, h)
	if err != nil {
		return err
	}
	for _, c := range cells {
		if err := t.freeSubtree(c.child, h-1); err != nil {
			return err
		}
	}
	return t.store.Free(id)
}

// collect gathers every live point of a subtree.
func (t *Tree) collect(id pager.PageID, h int, out *[]Point) error {
	pts, cells, err := t.readNode(id, h)
	if err != nil {
		return err
	}
	*out = append(*out, pts...)
	for _, c := range cells {
		if err := t.collect(c.child, h-1, out); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Dynamization (Overmars logarithmic method)
// ---------------------------------------------------------------------------

// Insert adds a point, rebuilding the smallest prefix of blocks whose
// total (plus the new point) fits the next power-of-two budget.
func (t *Tree) Insert(p Point) error {
	if err := t.checkPoint(p); err != nil {
		return err
	}
	sort.Slice(t.blocks, func(a, b int) bool { return t.blocks[a].size < t.blocks[b].size })
	// Binary-counter merge: absorb every block no larger than the running
	// total, so block sizes keep (at least) doubling and at most
	// O(log n) blocks exist; each point is rebuilt O(log n) times.
	total := 1
	prefix := 0
	for prefix < len(t.blocks) && t.blocks[prefix].size <= total {
		total += t.blocks[prefix].size
		prefix++
	}
	pts := []Point{p}
	if err := t.drain(t.blocks[:prefix], &pts); err != nil {
		return err
	}
	root, h, err := t.buildStatic(pts)
	if err != nil {
		return err
	}
	nb := &block{root: root, height: h, size: len(pts)}
	t.blocks = append(t.blocks[prefix:], nb)
	t.size++
	return nil
}

// drain appends the live points of blocks to out and frees their pages,
// one block after the other.
func (t *Tree) drain(blocks []*block, out *[]Point) error {
	for _, b := range blocks {
		if err := t.collect(b.root, b.height, out); err != nil {
			return err
		}
		if err := t.freeSubtree(b.root, b.height); err != nil {
			return err
		}
	}
	return nil
}

// Delete removes one point equal to p in coordinates and reference from
// whichever block holds it; it reports whether a point was removed. Once
// half the inserted points have been deleted the whole structure is
// rebuilt, keeping space linear in the live count.
func (t *Tree) Delete(p Point) (bool, error) {
	if err := t.checkPoint(p); err != nil {
		return false, err
	}
	for _, b := range t.blocks {
		found, err := t.deleteFrom(b.root, b.height, p)
		if err != nil {
			return false, err
		}
		if found {
			b.size--
			t.size--
			t.dead++
			if t.dead > t.size {
				if err := t.rebuildAll(); err != nil {
					return false, err
				}
			}
			return true, nil
		}
	}
	return false, nil
}

func (t *Tree) deleteFrom(id pager.PageID, h int, p Point) (bool, error) {
	pts, cells, err := t.readNode(id, h)
	if err != nil {
		return false, err
	}
	if cells == nil {
		for i, q := range pts {
			if q == p {
				// Rewrite the leaf in place (static structure, weak delete).
				_, err := t.writeLeaf(id, append(pts[:i], pts[i+1:]...))
				return err == nil, err
			}
		}
		return false, nil
	}
	for _, c := range cells {
		if !c.box.Contains(p.Vec(), t.dims) {
			continue
		}
		found, err := t.deleteFrom(c.child, h-1, p)
		if err != nil || found {
			return found, err
		}
	}
	return false, nil
}

// BulkLoad replaces the tree's contents with pts in a single static block —
// the fastest way to construct a large tree (the dynamic Insert path pays
// the logarithmic method's amortized rebuilds). The input slice is not
// modified.
func (t *Tree) BulkLoad(pts []Point) error {
	for _, p := range pts {
		if err := t.checkPoint(p); err != nil {
			return err
		}
	}
	if err := t.Destroy(); err != nil {
		return err
	}
	return t.buildBlock(append([]Point(nil), pts...))
}

// buildBlock makes pts, which it reorders, the tree's only block; with no
// points the tree is left empty.
func (t *Tree) buildBlock(pts []Point) error {
	t.blocks, t.size, t.dead = nil, len(pts), 0
	if len(pts) == 0 {
		return nil
	}
	root, h, err := t.buildStatic(pts)
	if err != nil {
		return err
	}
	t.blocks = []*block{{root: root, height: h, size: len(pts)}}
	return nil
}

// Destroy frees every page of every block, leaving the tree empty.
func (t *Tree) Destroy() error {
	for _, b := range t.blocks {
		if err := t.freeSubtree(b.root, b.height); err != nil {
			return err
		}
	}
	return t.buildBlock(nil)
}

func (t *Tree) rebuildAll() error {
	var pts []Point
	if err := t.drain(t.blocks, &pts); err != nil {
		return err
	}
	return t.buildBlock(pts)
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

// SearchRegion reports every live point inside the region: the simplex
// range query of §3.3.
func (t *Tree) SearchRegion(reg geom.Region, fn func(Point) bool) error {
	if reg.Dims() != t.dims {
		return fmt.Errorf("parttree: region has %d dims, tree has %d", reg.Dims(), t.dims)
	}
	for _, b := range t.blocks {
		cont, err := t.searchNode(b.root, b.height, reg, fn)
		if err != nil || !cont {
			return err
		}
	}
	return nil
}

// searchNode reports the points of a subtree that reg contains; a nil reg
// reports them all.
func (t *Tree) searchNode(id pager.PageID, h int, reg geom.Region, fn func(Point) bool) (bool, error) {
	pts, cells, err := t.readNode(id, h)
	if err != nil {
		return false, err
	}
	for _, p := range pts {
		if reg != nil && !reg.ContainsVec(p.Vec()) {
			continue
		}
		if !fn(p) {
			return false, nil
		}
	}
	for _, c := range cells {
		sub := reg
		if reg != nil {
			switch reg.ClassifyBox(c.box) {
			case geom.Outside:
				continue
			case geom.Inside:
				sub = nil
			}
		}
		cont, err := t.searchNode(c.child, h-1, sub, fn)
		if err != nil || !cont {
			return cont, err
		}
	}
	return true, nil
}

// MaxLineCrossings returns, for the root partition of the largest block,
// the number of cells the hyperplane Coef·x = C crosses — the quantity
// Matousek bounds by O(√r) in the plane. Tests use it to validate the
// construction empirically.
func (t *Tree) MaxLineCrossings(line geom.HalfSpace) (crossed, cells int, err error) {
	if len(t.blocks) == 0 {
		return 0, 0, nil
	}
	big := t.blocks[0]
	for _, b := range t.blocks {
		if b.size > big.size {
			big = b
		}
	}
	_, cs, err := t.readNode(big.root, big.height)
	if err != nil {
		return 0, 0, err
	}
	for _, c := range cs {
		// The cell has corners strictly on both sides of the hyperplane.
		if lo, hi := line.Extremes(c.box, t.dims); lo-line.C < -geom.Eps && hi-line.C > geom.Eps {
			crossed++
		}
	}
	return crossed, len(cs), nil
}
