// Sort-Tile-Recursive bulk load (Leutenegger, Edgington, Lopez, ICDE
// 1997). Where Insert pays an R* ChooseSubtree descent, possible forced
// reinsertion, and a split cascade per item — O(n log_B n) page writes
// for n items — STR sorts the items once into √L vertical slabs by
// x-center, tiles each slab by y-center into runs of one leaf each, and
// repeats the same packing on the node rectangles level by level: exactly
// one sequential page write per node.
package rstar

import (
	"fmt"
	"math"
	"sort"

	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

// strEnt is one entry being packed: an item (ref = value) at level 0, a
// node (ref = page id) above.
type strEnt struct {
	r   geom.Rect
	ref uint32
}

// bulkFill is the fraction of a node BulkLoad fills: the slack keeps the
// Inserts that follow a bulk load from splitting every node at once.
// Balanced packing makes groups of at least half that many entries, and
// 0.9·M/2 ≥ 0.4·M meets the R* minimum fill m at every capacity M ≥ 8.
const bulkFill = 0.9

// BulkLoad replaces the tree's contents with the given items, packed
// bottom-up with STR, each node filled to bulkFill. Group sizes are
// balanced so every node — even a slab tail — meets the R* minimum fill,
// keeping the loaded tree indistinguishable from an incrementally grown
// one to CheckInvariants and to subsequent Insert/Delete traffic. On a
// batching store the whole rebuild commits atomically. The input slice is
// not modified.
func (t *Tree) BulkLoad(items []Item) error {
	for _, it := range items {
		if it.Val > math.MaxUint32 {
			return fmt.Errorf("rstar: value %d does not fit in the 32-bit page slot", it.Val)
		}
	}
	return pager.RunBatch(t.store, func() error { return t.bulkLoad(items, int(bulkFill*float64(t.maxCap))) })
}

func (t *Tree) bulkLoad(items []Item, per int) error {
	if err := t.destroy(t.root, t.height-1); err != nil {
		return err
	}
	es := make([]strEnt, len(items))
	for i, it := range items {
		es[i] = strEnt{r: roundRect(it.Rect), ref: uint32(it.Val)}
	}
	level := 0
	for {
		nodes, err := t.strPackLevel(es, level, per)
		if err != nil {
			return err
		}
		if len(nodes) == 1 {
			t.root = pager.PageID(nodes[0].ref)
			t.height = level + 1
			t.size = len(items)
			return nil
		}
		es = nodes
		level++
	}
}

// strPackLevel tiles one level's entries into nodes and returns the node
// entries (MBR + page id) for the level above. A single (possibly empty)
// node is produced for an input that fits one page.
func (t *Tree) strPackLevel(es []strEnt, level, per int) ([]strEnt, error) {
	if groups := (len(es) + per - 1) / per; groups > 1 {
		slabs := int(math.Ceil(math.Sqrt(float64(groups))))
		sort.Slice(es, func(i, j int) bool {
			return es[i].r.MinX+es[i].r.MaxX < es[j].r.MinX+es[j].r.MaxX
		})
		var out []strEnt
		for _, slab := range balancedCuts(es, slabs) {
			sort.Slice(slab, func(i, j int) bool {
				return slab[i].r.MinY+slab[i].r.MaxY < slab[j].r.MinY+slab[j].r.MaxY
			})
			for _, run := range balancedCuts(slab, (len(slab)+per-1)/per) {
				ne, err := t.packNode(run, level)
				if err != nil {
					return nil, err
				}
				out = append(out, ne)
			}
		}
		return out, nil
	}
	ne, err := t.packNode(es, level)
	if err != nil {
		return nil, err
	}
	return []strEnt{ne}, nil
}

// balancedCuts splits es into k contiguous pieces whose sizes differ by
// at most one, so no piece is left pathologically small. k is at least
// one and at most len(es).
func balancedCuts(es []strEnt, k int) [][]strEnt {
	out := make([][]strEnt, 0, k)
	base, rem := len(es)/k, len(es)%k
	start := 0
	for i := 0; i < k; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out = append(out, es[start:start+sz])
		start += sz
	}
	return out
}

// packNode writes one node holding exactly the given entries.
func (t *Tree) packNode(es []strEnt, level int) (strEnt, error) {
	p, err := t.store.Allocate()
	if err != nil {
		return strEnt{}, err
	}
	n := &node{id: p.ID, level: level}
	for _, e := range es {
		n.add(e.r, e.ref)
	}
	if err := t.writeNode(n); err != nil {
		return strEnt{}, err
	}
	return strEnt{r: n.mbr(), ref: uint32(n.id)}, nil
}

// destroy frees every page of the subtree rooted at id, a node at the given
// level.
func (t *Tree) destroy(id pager.PageID, level int) error {
	n, err := t.readNode(id, level)
	if err != nil {
		return err
	}
	if level > 0 {
		for _, ref := range n.refs {
			if err := t.destroy(pager.PageID(ref), level-1); err != nil {
				return err
			}
		}
	}
	return t.store.Free(id)
}
