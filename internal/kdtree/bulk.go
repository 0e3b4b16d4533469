// Bulk construction. Where Insert grows the directory one median split at
// a time — rewriting a bucket page per point and a directory page per
// split — BulkLoad performs the same recursive median partitioning wholly
// in memory and then writes each bucket and directory page exactly once.
// The resulting tree obeys the identical split discipline as incremental
// growth (normalized-spread dimension choice, median split, points with
// coordinate <= split to the left), so searches are indistinguishable; only
// the construction cost differs.
package kdtree

import "mobidx/internal/pager"

// bchild is a link in the in-memory build tree: an internal split when n is
// non-nil, otherwise a concrete bucket reference.
type bchild struct {
	n *bnode
	r ref
}

// bnode is one split of the in-memory build tree, packed into a directory
// page slot at the end of the build.
type bnode struct {
	dim   int
	split float64
	l, r  bchild
}

// bulkFill is the fraction of a bucket BulkLoad fills: the slack keeps the
// Inserts that follow a bulk load from splitting every bucket at once.
const bulkFill = 0.9

// BulkLoad replaces the tree's contents with the given points, splitting
// until every bucket holds at most bulkFill·BucketCap points. On a batching
// store the whole rebuild commits atomically. The input slice is not
// modified.
func (t *Tree) BulkLoad(points []Point) error {
	for _, p := range points {
		if err := t.checkPoint(p); err != nil {
			return err
		}
	}
	return pager.RunBatch(t.store, func() error { return t.bulkLoad(points, int(bulkFill*float64(t.bucketCap))) })
}

func (t *Tree) bulkLoad(pts []Point, per int) error {
	if err := t.Destroy(); err != nil {
		return err
	}
	c, err := t.buildSub(pts, per)
	if err != nil {
		return err
	}
	if c.n != nil {
		if c.r, err = t.packDir(c.n); err != nil {
			return err
		}
	}
	t.rootRef = c.r
	t.size = len(pts)
	return nil
}

// buildSub recursively partitions pts exactly as splitBucket would have,
// producing buckets of at most per points (or overflow chains for point
// sets identical in every dimension).
func (t *Tree) buildSub(pts []Point, per int) (bchild, error) {
	if len(pts) <= per {
		return t.packBucketChain(pts)
	}
	dim, split, ok := t.chooseSplit(pts)
	if !ok {
		// All points identical: an overflow chain, as chainOverflow builds.
		return t.packBucketChain(pts)
	}
	left, right := cut(pts, dim, split)
	lc, err := t.buildSub(left, per)
	if err != nil {
		return bchild{}, err
	}
	rc, err := t.buildSub(right, per)
	if err != nil {
		return bchild{}, err
	}
	return bchild{n: &bnode{dim: dim, split: split, l: lc, r: rc}}, nil
}

// packBucketChain writes pts into one bucket, or a chain of full buckets
// when pts exceeds page capacity (the all-identical degenerate case). Tail
// buckets are written first so each page is written exactly once, already
// holding its successor link.
func (t *Tree) packBucketChain(pts []Point) (bchild, error) {
	chunks := (len(pts) + t.bucketCap - 1) / t.bucketCap
	if chunks == 0 {
		chunks = 1
	}
	next := pager.PageID(0)
	for i := chunks - 1; i >= 0; i-- {
		lo := i * t.bucketCap
		hi := lo + t.bucketCap
		if hi > len(pts) {
			hi = len(pts)
		}
		b, err := t.allocBucket()
		if err != nil {
			return bchild{}, err
		}
		b.points = pts[lo:hi]
		b.next = next
		if err := t.writeBucket(b); err != nil {
			return bchild{}, err
		}
		next = b.id
	}
	return bchild{r: mkRef(tagBucket, uint32(next))}, nil
}

// packDir packs the build tree rooted at root into directory pages: a
// breadth-first prefix of up to nodeCap splits shares this page, and each
// remaining subtree recurses into its own page, mirroring the one-subtree-
// per-page discipline splitDirPage maintains incrementally.
func (t *Tree) packDir(root *bnode) (ref, error) {
	dp, err := t.allocDir()
	if err != nil {
		return 0, err
	}
	queue := []*bnode{root}
	idx := map[*bnode]int{root: 0}
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		for _, c := range [2]*bnode{n.l.n, n.r.n} {
			if c != nil && len(queue) < t.nodeCap {
				idx[c] = len(queue)
				queue = append(queue, c)
			}
		}
	}
	for _, n := range queue {
		// The page is fresh, so allocSlot hands out indexes in queue order,
		// matching idx.
		i, _ := dp.allocSlot(t.nodeCap)
		s := slot{dim: n.dim, split: n.split}
		if s.left, err = t.resolveChild(n.l, idx); err != nil {
			return 0, err
		}
		if s.right, err = t.resolveChild(n.r, idx); err != nil {
			return 0, err
		}
		dp.slots[i] = s
	}
	dp.root = 0
	if err := t.writeDir(dp); err != nil {
		return 0, err
	}
	return mkRef(tagDir, uint32(dp.id)), nil
}

// resolveChild turns a build-tree link into an on-page reference: an
// in-page slot when the child was packed into the same page, a new
// directory page otherwise, or the bucket reference it already carries.
func (t *Tree) resolveChild(c bchild, idx map[*bnode]int) (ref, error) {
	if c.n == nil {
		return c.r, nil
	}
	if j, ok := idx[c.n]; ok {
		return mkRef(tagNode, uint32(j)), nil
	}
	return t.packDir(c.n)
}
