package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/ingest"
	"mobidx/internal/pager"
	"mobidx/internal/shard"
	"mobidx/internal/subscribe"
)

// legUpdates caps how many of the script's motion updates an isolation leg
// replays: enough for a steady mean, small enough that per-write tree
// mutation (a millisecond each on a 150k-motion replica) stays in budget.
const legUpdates = 1000

// legQueries caps the script's queries an isolation leg replays.
const legQueries = 400

// isolationLegs times the layers no interface lets the benchmark
// intercept, by replaying the script's inputs against each layer's public
// API on in-memory stores: device cost is zero there, so what is left is
// the layer's own CPU and allocation. It fills vals and returns the page
// writes per update the bare index made, which is not a metric of its own
// but what fromSpans subtracts from the shard's.
func isolationLegs(sp *spec, s *script, vals map[string]float64) (replicaWrites float64, err error) {
	if replicaWrites, err = coreLegs(s, vals); err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	if err := bptreeLegs(s, vals); err != nil {
		return 0, fmt.Errorf("bptree: %w", err)
	}
	if sp.ingest {
		if err := ingestLegs(s, vals); err != nil {
			return 0, fmt.Errorf("ingest: %w", err)
		}
	}
	if sp.peer == peerFeed {
		if err := subscribeLegs(s, vals); err != nil {
			return 0, fmt.Errorf("subscribe: %w", err)
		}
	}
	return replicaWrites, nil
}

// sink keeps results the legs compute only to time them from being
// optimized away.
var sink int

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func newReplica(store pager.Store) (*core.DualBPlus, error) {
	return core.NewDualBPlus(store, core.DualBPlusConfig{Terrain: terrain, C: observationC, Codec: recordCodec})
}

// firstUpdates returns the script's first n motion updates as whole
// delete+insert pairs, in order.
func firstUpdates(s *script, n int) []shard.Op {
	var ops []shard.Op
	for _, r := range s.rounds {
		for _, op := range r.ops {
			if len(ops) == 2*n {
				return ops
			}
			ops = append(ops, op)
		}
	}
	return ops
}

func firstQueries(s *script, n int) []dual.MORQuery {
	qs := s.queries()
	if len(qs) > n {
		qs = qs[:n]
	}
	return qs
}

// coreLegs replays queries and updates on one bare core.DualBPlus per
// band, holding what the partitioner assigns that band — the index work
// of the deployment with shard, WAL, pool and files taken away.
func coreLegs(s *script, vals map[string]float64) (replicaWrites float64, err error) {
	part, err := shard.NewPartitioner(terrain.YMax, bands)
	if err != nil {
		return 0, err
	}
	perBand := make([][]dual.Motion, bands)
	for _, m := range s.initial {
		for _, b := range part.Assign(m) {
			perBand[b] = append(perBand[b], m)
		}
	}
	stores := make([]*pager.MemStore, bands)
	replicas := make([]*core.DualBPlus, bands)
	held := 0
	var loadDur time.Duration
	for b := range replicas {
		stores[b] = pager.NewMemStore(pageSize)
		if replicas[b], err = newReplica(stores[b]); err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := replicas[b].BulkLoad(perBand[b]); err != nil {
			return 0, err
		}
		loadDur += time.Since(t0)
		held += len(perBand[b])
	}
	vals["core.bulkload.ms_per_100k"] = ratio(ms(loadDur), float64(held)/1e5)

	qs := firstQueries(s, legQueries)
	var queryDur, mergeDur time.Duration
	var subqueries, candidates, results, merged int
	for _, q := range qs {
		var buckets [][]dual.OID
		for _, b := range part.Overlapping(q) {
			ix := replicas[b]
			subqueries += len(ix.Subqueries(q))
			t0 := time.Now()
			ids, err := ix.QueryAppend(nil, q)
			queryDur += time.Since(t0)
			if err != nil {
				return 0, err
			}
			candidates += ix.LastQueryCandidates()
			results += len(ids)
			buckets = append(buckets, ids)
		}
		t0 := time.Now()
		merged += len(core.MergeOIDs(buckets))
		mergeDur += time.Since(t0)
	}
	vals["core.query.us"] = ratio(us(queryDur), float64(len(qs)))
	vals["core.query.subqueries"] = ratio(float64(subqueries), float64(len(qs)))
	vals["core.query.candidates_per_result"] = ratio(float64(candidates), float64(results))
	vals["core.merge.us_per_1k_ids"] = ratio(us(mergeDur), float64(results)/1e3)

	// Motion.Matches over every initial motion, for a handful of queries.
	if len(qs) > 16 {
		qs = qs[:16]
	}
	matched := 0
	t0 := time.Now()
	for _, q := range qs {
		for _, m := range s.initial {
			if m.Matches(q) {
				matched++
			}
		}
	}
	vals["dual.matches.ns"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(len(qs)*len(s.initial)))
	sink += merged + matched

	ops := firstUpdates(s, legUpdates)
	writes := func() (n int64) {
		for _, st := range stores {
			n += st.Stats().Writes
		}
		return n
	}
	w0, a0 := writes(), totalAlloc()
	t0 = time.Now()
	for _, op := range ops {
		for _, b := range part.Assign(op.M) {
			if op.Insert {
				err = replicas[b].Insert(op.M)
			} else {
				err = replicas[b].Delete(op.M)
			}
			if err != nil {
				return 0, err
			}
		}
	}
	updDur := time.Since(t0)
	updates := float64(len(ops) / 2)
	vals["core.update.us"] = ratio(us(updDur), updates)
	vals["core.update.alloc_bytes"] = ratio(float64(totalAlloc()-a0), updates)
	return ratio(float64(writes()-w0), updates), nil
}

// bptreeLegs exercises one B+-tree the size of one observation index (a
// band's motions of one velocity sign) on a MemStore.
func bptreeLegs(s *script, vals map[string]float64) error {
	n := len(s.initial) * 3 / 4 // a band holds ~1.5/2 of the objects, a sign half of those
	if n < 64 {
		n = 64
	}
	rng := rand.New(rand.NewSource(int64(n)))
	period := terrain.YMax / terrain.VMin
	entry := func(val int) bptree.Entry {
		return bptree.Entry{
			Key: recordCodec.RoundKey((rng.Float64()*2 - 1) * period),
			Val: uint64(val),
			Aux: recordCodec.RoundKey(terrain.VMin + rng.Float64()*(terrain.VMax-terrain.VMin)),
		}
	}
	entries := make([]bptree.Entry, n)
	for i := range entries {
		entries[i] = entry(i)
	}
	store := pager.NewMemStore(pageSize)
	tree, err := bptree.New(store, bptree.Config{Codec: recordCodec})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := tree.BulkLoad(entries, 0); err != nil {
		return err
	}
	vals["bptree.bulkload.ns_per_entry"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(n))

	const probes = 20000
	picks := make([]bptree.Entry, probes)
	for i := range picks {
		picks[i] = entries[rng.Intn(n)]
	}
	r0 := store.Stats().Reads
	t0 = time.Now()
	for _, e := range picks {
		if _, ok, err := tree.Get(e.Key, e.Val); err != nil || !ok {
			return fmt.Errorf("get %v/%d: found %v, err %v", e.Key, e.Val, ok, err)
		}
	}
	vals["bptree.get.ns"] = float64(time.Since(t0).Nanoseconds()) / probes
	vals["bptree.pages_per_get"] = float64(store.Stats().Reads-r0) / probes
	t0 = time.Now()
	for _, e := range picks {
		if _, _, err := tree.Ceil(e.Key + 0.5); err != nil {
			return err
		}
	}
	vals["bptree.ceil.ns"] = float64(time.Since(t0).Nanoseconds()) / probes

	// Range scans a few leaves wide, the shape of a sign scan.
	width := 2 * period * 1000 / float64(n)
	scanned := 0
	t0 = time.Now()
	for i := 0; i < 400; i++ {
		lo := picks[i].Key
		if err := tree.Range(lo, lo+width, func(bptree.Entry) bool { scanned++; return true }); err != nil {
			return err
		}
	}
	vals["bptree.range.ns_per_entry"] = ratio(float64(time.Since(t0).Nanoseconds()), float64(scanned))

	const mutations = 2000
	fresh := make([]bptree.Entry, mutations)
	for i := range fresh {
		fresh[i] = entry(n + i)
	}
	a0 := totalAlloc()
	t0 = time.Now()
	for _, e := range fresh {
		if err := tree.Insert(e); err != nil {
			return err
		}
	}
	vals["bptree.insert.us"] = us(time.Since(t0)) / mutations
	vals["bptree.insert.alloc_bytes"] = float64(totalAlloc()-a0) / mutations
	t0 = time.Now()
	for _, e := range fresh {
		if err := tree.Delete(e.Key, e.Val); err != nil {
			return err
		}
	}
	vals["bptree.delete.us"] = us(time.Since(t0)) / mutations
	return nil
}

// ingestLegs times the write tier alone: Add into the memtable and runs,
// and a query through the overlay against the same query on the base the
// tier fronts, in the same state.
func ingestLegs(s *script, vals map[string]float64) error {
	base, err := newReplica(pager.NewMemStore(pageSize))
	if err != nil {
		return err
	}
	tier, err := ingest.New(base, ingest.Config{Terrain: terrain})
	if err != nil {
		return err
	}
	if err := tier.Load(s.initial); err != nil {
		return err
	}
	// Stay below the fold threshold so the delta the queries overlay is
	// non-empty; a call that folds is bulk-load time, reported elsewhere.
	ops := firstUpdates(s, 3*legUpdates)
	var addDur time.Duration
	added := 0
	for len(ops) > 0 {
		n := 2 * updatesPerCall
		if n > len(ops) {
			n = len(ops)
		}
		batch := make([]ingest.Op, n)
		for i, op := range ops[:n] {
			batch[i] = ingest.Op{Insert: op.Insert, M: op.M}
		}
		ops = ops[n:]
		t0 := time.Now()
		merged, err := tier.Add(batch)
		d := time.Since(t0)
		if err != nil {
			return err
		}
		if !merged {
			addDur += d
			added += n
		}
	}
	vals["ingest.add_us_per_op"] = ratio(us(addDur), float64(added))

	var viaTier, viaBase time.Duration
	for _, q := range firstQueries(s, legQueries) {
		t0 := time.Now()
		if _, err := tier.Query(q); err != nil {
			return err
		}
		viaTier += time.Since(t0)
		t0 = time.Now()
		if _, err := base.QueryAppend(nil, q); err != nil {
			return err
		}
		viaBase += time.Since(t0)
	}
	vals["ingest.query_overlay_ratio"] = ratio(viaTier.Seconds(), viaBase.Seconds())
	return tier.Close()
}

// subscribeLegs feeds the script's ticks to a subscription engine alone:
// the matcher, certificates and drains without shard, WAL or index.
func subscribeLegs(s *script, vals map[string]float64) error {
	eng, err := subscribe.New(subscribe.Config{})
	if err != nil {
		return err
	}
	if err := eng.Reset(s.initial); err != nil {
		return err
	}
	var subs []subscribe.SubID
	for _, f := range s.scn.geo.Fences() {
		id, err := eng.Subscribe(f.Y1, f.Y2, f.Window)
		if err != nil {
			return err
		}
		subs = append(subs, id)
	}
	for _, id := range subs { // the initial members, not a tick's deltas
		if _, err := eng.Drain(id); err != nil {
			return err
		}
	}
	st0 := eng.Stats()
	var applyDur, advanceDur, drainDur time.Duration
	updates := 0
	for _, r := range s.rounds {
		ops := make([]subscribe.Op, len(r.ops))
		for i, op := range r.ops {
			ops[i] = subscribe.Op{Insert: op.Insert, M: op.M}
		}
		t0 := time.Now()
		if err := eng.Apply(ops); err != nil {
			return err
		}
		t1 := time.Now()
		if err := eng.Advance(r.now); err != nil {
			return err
		}
		t2 := time.Now()
		for _, id := range subs {
			if _, err := eng.Drain(id); err != nil {
				return err
			}
		}
		applyDur += t1.Sub(t0)
		advanceDur += t2.Sub(t1)
		drainDur += time.Since(t2)
		updates += len(r.ops) / 2
	}
	st := eng.Stats()
	ticks := float64(len(s.rounds))
	fires, stale := float64(st.CertFires-st0.CertFires), float64(st.StaleEvents-st0.StaleEvents)
	vals["subscribe.apply.us_per_update"] = ratio(us(applyDur), float64(updates))
	vals["subscribe.candidates_per_update"] = ratio(float64(st.Candidates-st0.Candidates), float64(updates))
	vals["subscribe.advance.ms_per_tick"] = ratio(ms(advanceDur), ticks)
	vals["subscribe.cert_fires_per_tick"] = ratio(fires, ticks)
	vals["subscribe.stale_event_ratio"] = ratio(stale, stale+fires)
	vals["subscribe.drain.us_per_sub"] = ratio(us(drainDur), ticks*float64(len(subs)))
	vals["subscribe.deltas_per_tick"] = ratio(float64(st.Emitted-st0.Emitted), ticks)
	return eng.Close()
}
