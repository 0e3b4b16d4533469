// Bulk (re)construction of the assembled indexes. A full reindex — the
// paper's workload after a terrain-wide batch of forced updates, or the
// serving layer refreshing a replica — pays the per-motion descent cost c
// times over in DualBPlus if done with Insert. The BulkLoad entry points
// instead group motions by rotation epoch, collect each underlying tree's
// entries in turn, sort them once, and hand them to the structures'
// bottom-up builders, writing every index page exactly once. A build
// allocates the pages it writes and one set of scratch buffers, sized for
// its largest tree, reused tree after tree and dropped when it returns.
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
// trees and c interval indexes receives its full entry run, sorted once,
// and is packed leaf-by-leaf. On a batching store the whole reindex
// commits atomically. The input slice is not modified.
func (d *DualBPlus) BulkLoad(ms []dual.Motion) error {
	for _, m := range ms {
		if err := ValidateMotion(m, d.cfg.Terrain); err != nil {
			return err
		}
	}
	var s bulkScratch
	return pager.RunBatch(d.store, func() error {
		return d.rot.BulkLoad(ms, func(g *dualBPGen, ms []dual.Motion) error {
			return g.bulkLoad(ms, &s)
		})
	})
}

// Build is BulkLoad split in two, for a caller whose readers keep querying
// d while the new contents are built. Build loads ms into a new index of
// d's configuration on d's store, whose pages no reader of d reaches, and
// leaves d answering as before. The install step it returns makes those
// contents d's and frees d's old pages. Run both steps in one batch on a
// batching store: a batch that fails between them leaves d as it was and
// its rollback returns the new pages. Such a batch stages the page ids,
// images and frees of BulkLoad(ms), because a batch never reuses a page
// it frees. The caller keeps readers of d out of the install step.
func (d *DualBPlus) Build(ms []dual.Motion) (install func() error, err error) {
	n, err := NewDualBPlus(d.store, d.cfg)
	if err != nil {
		return nil, err
	}
	if err := n.BulkLoad(ms); err != nil {
		return nil, err
	}
	return func() error {
		return pager.RunBatch(d.store, func() error {
			for len(d.rot.gens) > 0 {
				if err := d.rot.retire(0); err != nil {
					return err
				}
			}
			for _, g := range n.rot.gens {
				g.cand = &d.candidates
			}
			d.rot.epochs, d.rot.gens, d.rot.size = n.rot.epochs, n.rot.gens, n.rot.size
			return nil
		})
	}, nil
}

// bulkScratch is what one BulkLoad fills its trees through: the buffer
// each tree's entries are collected in, one tree at a time, and the sort's
// scratch. BulkLoad makes one per call and drops it on return.
type bulkScratch struct {
	entries []bptree.Entry
	sort    bptree.SortScratch
}

// bulkLoad fills a fresh generation's trees bottom-up from the motions of
// its epoch, one tree at a time in a fixed order — for each i, the
// positive and negative observation trees, then subterrain i's interval
// index. Each tree's entries are collected into s.entries in ms's order,
// sorted through s.sort, and packed from the sorted run, so the build
// holds the entries of one tree at a time. A counting pass sizes both
// buffers for the generation's largest tree up front.
func (g *dualBPGen) bulkLoad(ms []dual.Motion, s *bulkScratch) error {
	c := g.cfg.C
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
	most := max(nPos, len(ms)-nPos, slices.Max(nSub))
	s.entries = slices.Grow(s.entries[:0], most)
	s.sort.Grow(most)
	for i := 0; i < c; i++ {
		for _, positive := range [2]bool{true, false} {
			es := g.observations(s.entries[:0], ms, i, positive)
			if err := g.obs(i, positive).BulkLoadSorted(bptree.SortEntries(es, &s.sort), 0); err != nil {
				return err
			}
		}
		es, err := g.residences(s.entries[:0], ms, i)
		if err != nil {
			return err
		}
		if err := g.sub[i].BulkLoadSorted(bptree.SortEntries(es, &s.sort), 0); err != nil {
			return err
		}
	}
	g.size = len(ms)
	return nil
}

// observations appends to es the entries of observation index i's tree of
// one velocity sign for the motions of ms with that sign, in ms's order.
func (g *dualBPGen) observations(es []bptree.Entry, ms []dual.Motion, i int, positive bool) []bptree.Entry {
	codec := g.cfg.Codec
	for _, m := range ms {
		if m.V > 0 != positive {
			continue
		}
		_, b := dual.HoughY(m, g.yr(i))
		es = append(es, bptree.Entry{
			Key: codec.RoundKey(b - g.tref),
			Val: uint64(m.OID),
			Aux: codec.RoundKey(m.V),
		})
	}
	return es
}

// residences appends to es the entries of subterrain i's interval index:
// the residence interval there of each motion of ms that traverses it, in
// ms's order.
func (g *dualBPGen) residences(es []bptree.Entry, ms []dual.Motion, i int) ([]bptree.Entry, error) {
	codec := g.cfg.Codec
	for _, m := range ms {
		err := g.eachResidence(m, func(j int, in, out float64) error {
			if j == i {
				es = append(es, bptree.Entry{
					Key: codec.RoundKey(in - g.tref),
					Val: uint64(m.OID),
					Aux: codec.RoundKey(out - g.tref),
				})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return es, nil
}

// QueryAppend answers q like Query but appends the matching OIDs to dst,
// returning the extended slice with the appended tail sorted ascending and
// deduplicated (the same order QueryParallelCtx produces). A serving loop
// that reuses dst's capacity avoids the per-call result slice Query pays.
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
	return r.tree.BulkLoad(items)
}
