// Bulk (re)construction of the assembled indexes. A full reindex — the
// paper's workload after a terrain-wide batch of forced updates, or the
// serving layer refreshing a replica — pays the per-motion descent cost c
// times over in DualBPlus if done with Insert. The BulkLoad entry points
// instead group motions by rotation epoch, materialize every underlying
// tree's entries in memory, sort each slice once, and hand them to the
// structures' bottom-up builders, writing every index page exactly once.
package core

import (
	"slices"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/rstar"
)

// BulkLoad replaces the index's contents with the given motions using the
// B+-trees' bottom-up builders: per generation, each of the 2c observation
// trees and c interval indexes receives its full entry slice, sorted once,
// and is packed leaf-by-leaf. On a batching store the whole reindex
// commits atomically. The input slice is not modified.
func (d *DualBPlus) BulkLoad(ms []dual.Motion) error {
	for _, m := range ms {
		if err := ValidateMotion(m, d.cfg.Terrain); err != nil {
			return err
		}
	}
	return pager.RunBatch(d.store, func() error {
		return d.rot.BulkLoad(ms, (*dualBPGen).bulkLoad)
	})
}

// bulkLoad fills a fresh generation's trees bottom-up from the motions of
// its epoch. A counting pass sizes each of the 3c entry slices exactly, so
// each is allocated once.
func (g *dualBPGen) bulkLoad(ms []dual.Motion) error {
	c := g.cfg.C
	codec := g.cfg.Codec
	nPos := 0
	nSub := make([]int, c)
	for _, m := range ms {
		if m.V > 0 {
			nPos++
		}
		err := g.eachResidence(m, func(i int, _, _ float64) error {
			nSub[i]++
			return nil
		})
		if err != nil {
			return err
		}
	}
	pos := make([][]bptree.Entry, c)
	neg := make([][]bptree.Entry, c)
	sub := make([][]bptree.Entry, c)
	for i := 0; i < c; i++ {
		pos[i] = make([]bptree.Entry, 0, nPos)
		neg[i] = make([]bptree.Entry, 0, len(ms)-nPos)
		sub[i] = make([]bptree.Entry, 0, nSub[i])
	}
	for _, m := range ms {
		for i := 0; i < c; i++ {
			_, b := dual.HoughY(m, g.yr(i))
			e := bptree.Entry{
				Key: codec.RoundKey(b - g.tref),
				Val: uint64(m.OID),
				Aux: codec.RoundKey(m.V),
			}
			if m.V > 0 {
				pos[i] = append(pos[i], e)
			} else {
				neg[i] = append(neg[i], e)
			}
		}
		err := g.eachResidence(m, func(i int, in, out float64) error {
			sub[i] = append(sub[i], bptree.Entry{
				Key: codec.RoundKey(in - g.tref),
				Val: uint64(m.OID),
				Aux: codec.RoundKey(out - g.tref),
			})
			return nil
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < c; i++ {
		bptree.SortEntries(pos[i])
		if err := g.pos[i].BulkLoadSorted(pos[i], 0); err != nil {
			return err
		}
		bptree.SortEntries(neg[i])
		if err := g.neg[i].BulkLoadSorted(neg[i], 0); err != nil {
			return err
		}
		bptree.SortEntries(sub[i])
		if err := g.sub[i].BulkLoadSorted(sub[i], 0); err != nil {
			return err
		}
	}
	g.size = len(ms)
	return nil
}

// QueryAppend answers q like Query but appends the matching OIDs to dst,
// returning the extended slice with the appended tail sorted ascending and
// deduplicated (the same order QueryParallelCtx produces). A serving loop
// that reuses dst's capacity avoids the per-call result-set and seen-map
// allocations Query pays.
func (d *DualBPlus) QueryAppend(dst []dual.OID, q dual.MORQuery) ([]dual.OID, error) {
	if err := ValidateQuery(q); err != nil {
		return dst, err
	}
	d.candidates.Store(0)
	base := len(dst)
	for _, sub := range d.Subqueries(q) {
		if err := sub(func(id dual.OID) { dst = append(dst, id) }); err != nil {
			return dst, err
		}
	}
	tail := dst[base:]
	slices.Sort(tail)
	return dst[:base+len(slices.Compact(tail))], nil
}

// BulkLoad replaces the baseline's contents with the given motions via the
// R*-tree's STR packing.
func (r *RStarSeg) BulkLoad(ms []dual.Motion) error {
	items := make([]rstar.Item, len(ms))
	for i, m := range ms {
		if err := ValidateMotion(m, r.cfg.Terrain); err != nil {
			return err
		}
		seg, err := r.segment(m)
		if err != nil {
			return err
		}
		items[i] = segItem(m, seg)
	}
	return r.tree.BulkLoad(items, 0)
}
