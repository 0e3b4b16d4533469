// Router-level continuous queries: the router owns one subscribe.Engine
// for the whole cluster, and every write is fed to it once, after the
// shard batches have committed and released their latches. A motion the
// partitioner replicates across k bands is one engine object, not k, so a
// standing query's deltas need no cross-shard merge: they are the
// engine's own stream, renumbered per subscription.
//
// The engine tracks motions only while it has standing queries. The
// first Subscribe seeds the idle engine from every serving shard's
// catalog, read under each shard's read latch, so queries keep flowing;
// the last Unsubscribe empties it. A split or a revive changes which
// shard holds a motion, not which motions the cluster holds, so
// subscriptions survive topology changes.
//
// Stale bands. The engine vouches only for shards whose contents it
// agrees with. A shard that is down when the engine seeds, whose write
// failed (which leaves it down), or whose catalog disagrees with its
// replicas' is marked stale (Router.stale), and only the subscriptions
// whose range overlaps its band are refused: every motion that can match
// a range is held by a band the range overlaps (the witness-band argument
// behind Partitioner.Assign), so a subscription over agreeing bands stays
// exact however stale the rest of the cluster is. A reseed reads the
// catalogs again and recomputes the marks: after ReplaceShard, after a
// topology swap while a mark is set, and in a Subscribe while a marked
// shard serves again. A router BulkLoad every shard commits clears them.
//
// The feed latch (Router.feedMu) keeps writes out of a seeding: writes
// share it, and Subscribe, Unsubscribe and a reseed hold it exclusively.
// Queries never take it, and AdvanceSubs, DrainSubs and SubMembers touch
// only the engine and the marks.

package shard

import (
	"errors"
	"fmt"
	"slices"

	"mobidx/internal/dual"
	"mobidx/internal/subscribe"
)

// routerSub is the router's record of one standing query: its range, for
// the bands it depends on, and its own delta numbering.
type routerSub struct {
	y1, y2 float64
	seq    uint64 // deltas handed out so far
}

// Subscribe registers the standing query [y1, y2] with the given sliding
// window across the cluster; the current answer set arrives as Enter
// deltas (see subscribe.Engine.Subscribe). The first standing query pays
// one catalog read per shard and one engine object per distinct motion;
// writes wait for it, queries do not. A range overlapping a stale band is
// refused, and so is every range while a serving shard's catalog cannot
// be read; a refused call registers nothing.
func (r *Router) Subscribe(y1, y2, window float64) (subscribe.SubID, error) {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	r.feedMu.Lock()
	defer r.feedMu.Unlock()
	r.subMu.Lock()
	reseed := r.subs.Subs() == 0 || r.mendable(r.topo)
	r.subMu.Unlock()
	if reseed {
		if err := r.seedSubs(); err != nil {
			return 0, errors.Join(fmt.Errorf("shard: seed subscriptions: %w", err), r.dropIdleSubs())
		}
	}
	r.subMu.Lock()
	err := r.unknownBand(r.topo, y1, y2)
	r.subMu.Unlock()
	if err != nil {
		return 0, errors.Join(fmt.Errorf("shard: subscribe [%v,%v]: %w", y1, y2, err), r.dropIdleSubs())
	}
	id, err := r.subs.Subscribe(y1, y2, window)
	if err != nil {
		return 0, errors.Join(err, r.dropIdleSubs())
	}
	r.subMu.Lock()
	r.standing[id] = &routerSub{y1: y1, y2: y2}
	r.subMu.Unlock()
	return id, nil
}

// seedSubs resets the engine to the union of the serving shards' catalogs
// and recomputes the stale marks: every down shard, and every shard that
// holds, or should hold, a motion some replica of it lacks or an object
// another shard holds in a second version. A serving shard's catalog that
// cannot be read fails the seeding and changes nothing. Caller holds
// topoMu and, exclusively, feedMu.
func (r *Router) seedSubs() error {
	topo := r.topo
	held := make([][]dual.Motion, len(topo.shards))
	stale := make(map[*Shard]error)
	var all []dual.Motion
	for band, s := range topo.shards {
		ms, err := s.Motions()
		if errors.Is(err, ErrShardDown) {
			stale[s] = fmt.Errorf("band %d: %w", band, err)
			continue
		}
		if err != nil {
			return fmt.Errorf("band %d: %w", band, err)
		}
		held[band] = ms
		all = append(all, ms...)
	}
	slices.SortFunc(all, compareMotions)
	all = slices.Compact(all)
	disagree := func(ms ...dual.Motion) {
		for _, m := range ms {
			for band, s := range topo.shards {
				if stale[s] == nil && (holds(held[band], m) || assignedTo(topo.part, m, band)) {
					stale[s] = fmt.Errorf("band %d disagrees with its replicas on object %d", band, m.OID)
				}
			}
		}
	}
	for i, m := range all {
		if i > 0 && all[i-1].OID == m.OID {
			disagree(all[i-1], m)
		}
		for _, band := range topo.part.Assign(m) {
			if stale[topo.shards[band]] == nil && !holds(held[band], m) {
				disagree(m)
				break
			}
		}
	}
	r.subMu.Lock()
	r.stale = stale
	r.subMu.Unlock()
	if err := r.subs.Reset(all); err != nil {
		r.markStale(topo, allBands(topo), fmt.Errorf("subscription seed: %w", err))
		return err
	}
	return nil
}

// holds reports whether ms, a catalog enumeration in catalog order,
// contains m.
func holds(ms []dual.Motion, m dual.Motion) bool {
	_, ok := slices.BinarySearchFunc(ms, m, compareMotions)
	return ok
}

// mendable reports whether a reseed could clear a stale mark: a marked
// shard serves again, or has left topo. Caller holds subMu.
func (r *Router) mendable(topo topology) bool {
	for s := range r.stale {
		if s.Health().Healthy || !slices.Contains(topo.shards, s) {
			return true
		}
	}
	return false
}

// unknownBand reports why the engine cannot answer for the range [y1, y2]
// under topo: a band the range overlaps is stale, or a stale shard has
// left the topology and the reseed that follows has not run yet. Caller
// holds subMu.
func (r *Router) unknownBand(topo topology, y1, y2 float64) error {
	if len(r.stale) == 0 {
		return nil
	}
	for s, err := range r.stale {
		if !slices.Contains(topo.shards, s) {
			return fmt.Errorf("subscriptions reseeding after a topology change: %w", err)
		}
	}
	for _, band := range topo.part.Overlapping(dual.MORQuery{Y1: y1, Y2: y2}) {
		if err := r.stale[topo.shards[band]]; err != nil {
			return err
		}
	}
	return nil
}

// Unsubscribe tears the standing query down, whatever the state of its
// bands; the last one takes the engine's copy of the cluster's motions
// with it.
func (r *Router) Unsubscribe(id subscribe.SubID) error {
	r.feedMu.Lock()
	defer r.feedMu.Unlock()
	err := r.subs.Unsubscribe(id)
	r.subMu.Lock()
	delete(r.standing, id)
	r.subMu.Unlock()
	return errors.Join(err, r.dropIdleSubs())
}

// dropIdleSubs empties an engine left with no standing query, and forgets
// the stale marks with it: the next Subscribe seeds afresh from the
// shards. Caller holds feedMu exclusively.
func (r *Router) dropIdleSubs() error {
	if r.subs.Subs() > 0 {
		return nil
	}
	r.subMu.Lock()
	clear(r.stale)
	r.subMu.Unlock()
	return r.subs.Reset(nil)
}

// reseedSubs re-evaluates every standing query against the motions the
// shards hold now, emitting the net transitions, and recomputes the stale
// marks (an idle engine just forgets them). It holds the topology latch
// shared, so queries keep flowing.
func (r *Router) reseedSubs() {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	r.feedMu.Lock()
	defer r.feedMu.Unlock()
	if r.subs.Subs() == 0 {
		r.subMu.Lock()
		clear(r.stale)
		r.subMu.Unlock()
		return
	}
	if err := r.seedSubs(); err != nil {
		r.markStale(r.topo, allBands(r.topo), fmt.Errorf("reseed subscriptions: %w", err))
	}
}

// markStale records that the engine no longer vouches for the shards
// serving the given bands of topo, keeping the first cause for each.
func (r *Router) markStale(topo topology, bands []int, cause error) {
	r.subMu.Lock()
	defer r.subMu.Unlock()
	for _, band := range bands {
		if s := topo.shards[band]; r.stale[s] == nil {
			r.stale[s] = fmt.Errorf("band %d: %w", band, cause)
		}
	}
}

func allBands(topo topology) []int {
	out := make([]int, len(topo.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// fed records the outcome of feeding the engine a committed write: a
// feed the engine refused leaves it behind every shard until a reseed.
func (r *Router) fed(topo topology, err error) {
	if err != nil {
		r.markStale(topo, allBands(topo), fmt.Errorf("subscription feed: %w", err))
	}
}

// failedBands returns the bands whose write was tried and failed. Every
// one of them is down: the router admits a write once and runs its shard
// batches to their end, and a shard batch that fails quarantines its
// shard (see Shard.Apply), so its contents are known to nobody.
func failedBands(writes []func() error, ok []bool) []int {
	var out []int
	for band, w := range writes {
		if w != nil && !ok[band] {
			out = append(out, band)
		}
	}
	return out
}

// feedApply feeds the engine a router Apply once its shard writes have
// returned (ok: which committed): every op when all did; otherwise the
// ops some band committed, after marking stale the bands whose write
// failed. An op no band committed changed nothing the engine vouches for.
// Caller holds topoMu and feedMu shared.
func (r *Router) feedApply(topo topology, ops []Op, writes []func() error, ok []bool, werr error) {
	feed := ops
	if werr != nil {
		r.markStale(topo, failedBands(writes, ok), werr)
		feed = slices.DeleteFunc(slices.Clone(ops), func(op Op) bool {
			return !slices.ContainsFunc(topo.part.Assign(op.M), func(b int) bool { return ok[b] })
		})
	}
	if len(feed) > 0 {
		r.fed(topo, r.subs.Apply(feed))
	}
}

// feedBulkLoad resets the engine to a router BulkLoad's motions once its
// shard writes have returned, unless no band committed. Every band that
// did holds its part of ms; one that did not is down and marked stale.
// When every band committed, the engine and the cluster agree again and
// all marks are cleared. Caller holds topoMu and feedMu shared.
func (r *Router) feedBulkLoad(topo topology, ms []dual.Motion, writes []func() error, ok []bool, werr error) {
	if werr != nil {
		r.markStale(topo, failedBands(writes, ok), werr)
	}
	if !slices.Contains(ok, true) {
		return
	}
	if err := r.subs.Reset(ms); err != nil {
		r.fed(topo, err)
		return
	}
	if werr == nil {
		r.subMu.Lock()
		clear(r.stale)
		r.subMu.Unlock()
	}
}

// AdvanceSubs moves the subscription clock to now, firing due kinetic
// boundary crossings cluster-wide.
func (r *Router) AdvanceSubs(now float64) error {
	return r.subs.Advance(now)
}

// DrainSubs returns the subscription's deltas accumulated since the last
// drain, in emission order, numbered 1, 2, 3, … per subscription. While a
// band its range overlaps is stale, it returns that band's error and
// keeps the deltas: the drain after the reseed that clears the band
// carries them with the reseed's corrections, so the set they rebuild is
// exact again.
func (r *Router) DrainSubs(id subscribe.SubID) ([]subscribe.Delta, error) {
	topo := r.snapshot()
	r.subMu.Lock()
	defer r.subMu.Unlock()
	rs, err := r.answerable(topo, id)
	if err != nil {
		return nil, err
	}
	ds, err := r.subs.Drain(id)
	if err != nil {
		return nil, err
	}
	for i := range ds {
		rs.seq++
		ds[i].Seq = rs.seq
	}
	return ds, nil
}

// SubMembers returns the subscription's current cluster-wide answer set,
// sorted — the contract Query's answers follow — or, while a band its
// range overlaps is stale, that band's error.
func (r *Router) SubMembers(id subscribe.SubID) ([]dual.OID, error) {
	topo := r.snapshot()
	r.subMu.Lock()
	defer r.subMu.Unlock()
	if _, err := r.answerable(topo, id); err != nil {
		return nil, err
	}
	return r.subs.Members(id)
}

// answerable returns the standing query id, or why the engine cannot
// answer for it under topo. Caller holds subMu.
func (r *Router) answerable(topo topology, id subscribe.SubID) (*routerSub, error) {
	rs, ok := r.standing[id]
	if !ok {
		return nil, fmt.Errorf("shard: subscription %d: %w", id, subscribe.ErrUnknownSub)
	}
	if err := r.unknownBand(topo, rs.y1, rs.y2); err != nil {
		return nil, fmt.Errorf("shard: subscription %d: %w", id, err)
	}
	return rs, nil
}
