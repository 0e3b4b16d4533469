// Router-level continuous queries: a standing query subscribed through
// the router fans to a per-shard matcher on every band overlapping its
// range, and the per-shard delta streams are merged back into one with a
// membership refcount — exactly the sort+dedup discipline Query uses for
// one-shot answers, lifted to streams. A motion replicated across k
// overlapping bands produces k per-shard Enters; the router emits the
// first (count 0→1) and swallows the rest, and symmetrically emits only
// the Leave that drops the count back to zero. Shards are processed in
// ascending band order and each shard's stream is already in emission
// order, so the merged stream is deterministic. A subscription with one
// leg — every range that does not straddle a band cut — has nothing to
// merge: its deltas are forwarded re-sequenced, without the refcount.
//
// Subscriptions pin the shards they were created on: a shard revived by
// ReplaceShard or a migration has a fresh matcher that knows nothing of
// older subscriptions, so router subscriptions do not survive topology
// swaps — tear them down first and re-subscribe after, like any other
// serving-side session state.

package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/subscribe"
)

// subLeg is one band's share of a router subscription: the shard it was
// created on (pinned — see the package comment above) and its per-shard
// subscription id there.
type subLeg struct {
	band  int
	shard *Shard
	id    subscribe.SubID
}

// routerSub is the router's bookkeeping for one standing query.
type routerSub struct {
	legs []subLeg         // ascending by band
	ref  map[dual.OID]int // shard-membership count per object; nil with one leg
	seq  uint64           // merged-stream emission counter
}

// subState is the router's subscription table, created lazily.
type subState struct {
	mu    sync.Mutex
	next  subscribe.SubID
	table map[subscribe.SubID]*routerSub
}

func (r *Router) subsTable() *subState {
	r.subOnce.Do(func() {
		r.subState = &subState{table: make(map[subscribe.SubID]*routerSub)}
	})
	return r.subState
}

// Subscribe registers the standing query [y1, y2] with the given sliding
// window across the cluster: one per-shard matcher subscription on every
// band overlapping the range. On partial failure the already-created legs
// are torn down and the error returned. The returned id is router-scoped.
func (r *Router) Subscribe(y1, y2, window float64) (subscribe.SubID, error) {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	topo := r.topo
	bands := topo.part.Overlapping(dual.MORQuery{Y1: y1, Y2: y2})
	legs := make([]subLeg, 0, len(bands))
	for _, band := range bands {
		s := topo.shards[band]
		id, err := s.Subscribe(y1, y2, window)
		if err != nil {
			errs := []error{fmt.Errorf("shard: subscribe band %d: %w", band, err)}
			for _, leg := range legs {
				if uerr := leg.shard.Unsubscribe(leg.id); uerr != nil {
					errs = append(errs, uerr)
				}
			}
			return 0, errors.Join(errs...)
		}
		legs = append(legs, subLeg{band: band, shard: s, id: id})
	}
	st := r.subsTable()
	st.mu.Lock()
	defer st.mu.Unlock()
	st.next++
	rid := st.next
	rs := &routerSub{legs: legs}
	if len(legs) > 1 {
		rs.ref = make(map[dual.OID]int)
	}
	st.table[rid] = rs
	return rid, nil
}

// Unsubscribe tears the router subscription down on every leg. Legs that
// fail (a shard down mid-teardown) are reported joined, but the
// subscription is forgotten either way.
func (r *Router) Unsubscribe(id subscribe.SubID) error {
	st := r.subsTable()
	st.mu.Lock()
	rs, ok := st.table[id]
	if ok {
		delete(st.table, id)
	}
	st.mu.Unlock()
	if !ok {
		return fmt.Errorf("shard: router unsubscribe %d: %w", id, subscribe.ErrUnknownSub)
	}
	var errs []error
	for _, leg := range rs.legs {
		if err := leg.shard.Unsubscribe(leg.id); err != nil {
			errs = append(errs, fmt.Errorf("shard: unsubscribe band %d: %w", leg.band, err))
		}
	}
	return errors.Join(errs...)
}

// AdvanceSubs moves every shard's subscription clock to now, firing due
// kinetic boundary crossings cluster-wide.
func (r *Router) AdvanceSubs(now float64) error {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	var errs []error
	for _, s := range r.topo.shards {
		if err := s.AdvanceSubs(now); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// DrainSubs returns the router subscription's merged deltas accumulated
// since the last drain. Per-shard streams are folded through the
// membership refcount in ascending band order: Enter is forwarded only
// when an object becomes visible on its first shard, Leave only when it
// vanishes from its last, so replicas never double-report and the merged
// stream reconstructs exactly the cluster-wide answer set.
func (r *Router) DrainSubs(id subscribe.SubID) ([]subscribe.Delta, error) {
	st := r.subsTable()
	st.mu.Lock()
	defer st.mu.Unlock()
	rs, ok := st.table[id]
	if !ok {
		return nil, fmt.Errorf("shard: router drain %d: %w", id, subscribe.ErrUnknownSub)
	}
	var out []subscribe.Delta
	for _, leg := range rs.legs {
		ds, err := leg.shard.DrainSubs(leg.id)
		if err != nil {
			return nil, fmt.Errorf("shard: drain band %d: %w", leg.band, err)
		}
		if rs.ref == nil {
			// One leg cannot double-report. The drained slice is the
			// caller's (Engine.Drain hands its buffer over): restamp it.
			for i := range ds {
				rs.seq++
				ds[i].Seq, ds[i].Sub = rs.seq, id
			}
			return ds, nil
		}
		for _, d := range ds {
			switch d.Kind {
			case subscribe.Enter:
				rs.ref[d.OID]++
				if rs.ref[d.OID] == 1 {
					rs.seq++
					out = append(out, subscribe.Delta{
						Seq: rs.seq, Time: d.Time, Sub: id, OID: d.OID, Kind: subscribe.Enter})
				}
			case subscribe.Leave:
				rs.ref[d.OID]--
				if rs.ref[d.OID] == 0 {
					delete(rs.ref, d.OID)
					rs.seq++
					out = append(out, subscribe.Delta{
						Seq: rs.seq, Time: d.Time, Sub: id, OID: d.OID, Kind: subscribe.Leave})
				}
			default:
				return nil, fmt.Errorf("shard: drain band %d: bad delta kind %v", leg.band, d.Kind)
			}
		}
	}
	return out, nil
}

// SubMembers returns the router subscription's current cluster-wide
// answer set: the per-shard member sets merged sorted and deduplicated,
// the same contract Query's answers follow.
func (r *Router) SubMembers(id subscribe.SubID) ([]dual.OID, error) {
	st := r.subsTable()
	st.mu.Lock()
	rs, ok := st.table[id]
	st.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("shard: router members %d: %w", id, subscribe.ErrUnknownSub)
	}
	buckets := make([][]dual.OID, 0, len(rs.legs))
	for _, leg := range rs.legs {
		ms, err := leg.shard.SubMembers(leg.id)
		if err != nil {
			return nil, fmt.Errorf("shard: members band %d: %w", leg.band, err)
		}
		buckets = append(buckets, ms)
	}
	return core.MergeOIDs(buckets), nil
}

// Subs returns the number of live router subscriptions, ascending ids
// first for inspection convenience.
func (r *Router) Subs() []subscribe.SubID {
	st := r.subsTable()
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]subscribe.SubID, 0, len(st.table))
	for id := range st.table {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
