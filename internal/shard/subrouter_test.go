package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/subscribe"
	"mobidx/internal/workload"
)

// TestRouterSubscriptionDifferential drives the geofence workload through
// clusters of 1 and 4 shards and asserts, after every tick, that each
// router subscription's drained deltas reconstruct exactly its member
// set, which in turn equals brute force over the simulator's ground
// truth — the engine-level differential contract lifted through band
// replication.
func TestRouterSubscriptionDifferential(t *testing.T) {
	for _, nShards := range []int{1, 4} {
		nShards := nShards
		t.Run(map[int]string{1: "shards=1", 4: "shards=4"}[nShards], func(t *testing.T) {
			const ticks = 40
			p := workload.DefaultGeofenceParams(200, 30)
			sim, err := workload.NewGeofenceSim(p)
			if err != nil {
				t.Fatalf("NewGeofenceSim: %v", err)
			}
			r := openCluster(t, 0, ClusterConfig{Terrain: p.Terrain}, nShards)
			ctx := context.Background()

			var pend []Op
			feed := func(op workload.Op) error {
				pend = append(pend, Op{Insert: op.Insert, M: op.Motion})
				return nil
			}
			if err := sim.Bootstrap(feed); err != nil {
				t.Fatalf("Bootstrap: %v", err)
			}
			if err := r.Apply(ctx, pend); err != nil {
				t.Fatalf("Apply bootstrap: %v", err)
			}
			pend = pend[:0]

			fences := sim.Fences()
			type standing struct {
				fence workload.Geofence
				recon map[dual.OID]bool
			}
			live := make(map[subscribe.SubID]*standing)
			addSub := func(f workload.Geofence) {
				id, serr := r.Subscribe(f.Y1, f.Y2, f.Window)
				if serr != nil {
					t.Fatalf("Subscribe: %v", serr)
				}
				live[id] = &standing{fence: f, recon: make(map[dual.OID]bool)}
			}
			for _, f := range fences[:20] {
				addSub(f)
			}

			check := func(tick int) {
				ids := make([]subscribe.SubID, 0, len(live))
				for id := range live {
					ids = append(ids, id)
				}
				sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
				for _, id := range ids {
					st := live[id]
					ds, derr := r.DrainSubs(id)
					if derr != nil {
						t.Fatalf("tick %d: DrainSubs: %v", tick, derr)
					}
					for _, d := range ds {
						switch d.Kind {
						case subscribe.Enter:
							if st.recon[d.OID] {
								t.Fatalf("tick %d sub %d: duplicate enter for %d", tick, id, d.OID)
							}
							st.recon[d.OID] = true
						case subscribe.Leave:
							if !st.recon[d.OID] {
								t.Fatalf("tick %d sub %d: leave without enter for %d", tick, id, d.OID)
							}
							delete(st.recon, d.OID)
						default:
							t.Fatalf("tick %d sub %d: bad delta kind %v", tick, id, d.Kind)
						}
					}
					recon := make([]dual.OID, 0, len(st.recon))
					for oid := range st.recon {
						recon = append(recon, oid)
					}
					sort.Slice(recon, func(i, j int) bool { return recon[i] < recon[j] })
					mem, merr := r.SubMembers(id)
					if merr != nil {
						t.Fatalf("tick %d: SubMembers: %v", tick, merr)
					}
					if mem == nil {
						mem = []dual.OID{}
					}
					if !reflect.DeepEqual(recon, mem) {
						t.Fatalf("tick %d sub %d: reconstruction %v != merged members %v",
							tick, id, recon, mem)
					}
					truth := sim.BruteForce(st.fence)
					if !reflect.DeepEqual(recon, truth) {
						t.Fatalf("tick %d sub %d %+v: reconstruction %v != ground truth %v",
							tick, id, st.fence, recon, truth)
					}
				}
			}

			check(0)
			for tick := 1; tick <= ticks; tick++ {
				if err := sim.Tick(feed); err != nil {
					t.Fatalf("Tick %d: %v", tick, err)
				}
				if err := r.AdvanceSubs(sim.Now()); err != nil {
					t.Fatalf("AdvanceSubs: %v", err)
				}
				if err := r.Apply(ctx, pend); err != nil {
					t.Fatalf("Apply: %v", err)
				}
				pend = pend[:0]
				if tick == 10 {
					for _, f := range fences[20:] {
						addSub(f)
					}
				}
				if tick == 20 {
					ids := make([]subscribe.SubID, 0, len(live))
					for id := range live {
						ids = append(ids, id)
					}
					sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
					for _, id := range ids[:8] {
						if uerr := r.Unsubscribe(id); uerr != nil {
							t.Fatalf("Unsubscribe: %v", uerr)
						}
						delete(live, id)
					}
				}
				check(tick)
			}
			if r.subs.Subs() != len(live) {
				t.Fatalf("router tracks %d subs, test tracks %d", r.subs.Subs(), len(live))
			}
		})
	}
}

// TestShardSubscriptionRecovery crashes a shard and reopens it over the
// surviving media: a fresh subscription on a router over it seeds the
// engine from the durable catalog, so it sees exactly the motions the
// index serves.
func TestShardSubscriptionRecovery(t *testing.T) {
	cfg := Config{ID: 1, Terrain: testTerrain(), PageSize: 512}
	base := pager.NewMemStore(512)
	log := pager.NewMemLog()
	s, err := Open(cfg, base, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ops []Op
	for i := 0; i < 64; i++ {
		ops = append(ops, Op{Insert: true, M: dual.Motion{
			OID: dual.OID(i), Y0: float64(i * 15), T0: 0, V: 0.2 + float64(i%7)*0.2}})
	}
	if err := s.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}

	// Crash (no Close); reopen over the surviving media.
	s2, err := Open(cfg, base, pager.NewMemLogFrom(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartitioner(cfg.Terrain.YMax, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter([]*Shard{s2}, part, nil, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	id, err := r.Subscribe(100, 300, 10)
	if err != nil {
		t.Fatalf("Subscribe after recovery: %v", err)
	}
	got, err := r.SubMembers(id)
	if err != nil {
		t.Fatal(err)
	}
	q := dual.MORQuery{Y1: 100, Y2: 300, T1: 0, T2: 10}
	var want []dual.OID
	for _, op := range ops {
		if op.M.Matches(q) {
			want = append(want, op.M.OID)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered subscription members %v, want %v", got, want)
	}
}

// TestShardBulkLoadResetsSubs checks that an atomic content replacement
// resets the engine alongside the shards' indexes: standing queries see
// the net membership transitions and end up exactly on the bulk image.
func TestShardBulkLoadResetsSubs(t *testing.T) {
	s := openCluster(t, 0, ClusterConfig{Terrain: testTerrain()}, 2)
	ctx := context.Background()
	if err := s.Apply(ctx, []Op{
		{Insert: true, M: dual.Motion{OID: 1, Y0: 150, V: 0.5}},
		{Insert: true, M: dual.Motion{OID: 2, Y0: 800, V: -0.5}},
	}); err != nil {
		t.Fatal(err)
	}
	id, err := s.Subscribe(100, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DrainSubs(id); err != nil {
		t.Fatal(err)
	}

	bulk := []dual.Motion{
		{OID: 3, Y0: 120, V: 0.3},
		{OID: 4, Y0: 500, V: 0.3},
	}
	if err := s.BulkLoad(ctx, bulk); err != nil {
		t.Fatal(err)
	}
	ds, err := s.DrainSubs(id)
	if err != nil {
		t.Fatal(err)
	}
	var enters, leaves []dual.OID
	for _, d := range ds {
		if d.Kind == subscribe.Enter {
			enters = append(enters, d.OID)
		} else {
			leaves = append(leaves, d.OID)
		}
	}
	if !reflect.DeepEqual(leaves, []dual.OID{1}) || !reflect.DeepEqual(enters, []dual.OID{3}) {
		t.Fatalf("bulk reset deltas: leaves %v enters %v, want [1] and [3]", leaves, enters)
	}
	got, err := s.SubMembers(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []dual.OID{3}) {
		t.Fatalf("members after bulk = %v, want [3]", got)
	}
}

// TestRouterSubscribeRollback closes one shard and checks that a
// subscription spanning its band fails cleanly, registering and tracking
// nothing, while one inside healthy bands subscribes and stays exact,
// numbered 1, 2, 3, …, through a write the dead band misses. Once the
// band serves again with what its peers committed, the spanning range
// subscribes too.
func TestRouterSubscribeRollback(t *testing.T) {
	r := openCluster(t, 0, ClusterConfig{Terrain: testTerrain()}, 4)
	ctx := context.Background()
	ms := clusterMotions(200)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	// Band 3 owns the top quarter; kill it.
	if err := r.Shard(3).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe(100, 900, 10); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Subscribe spanning a dead band: %v, want ErrShardDown", err)
	}
	idleEngine(t, r, "after a failed subscribe")

	// A range fully inside healthy bands still subscribes.
	q := dual.MORQuery{Y1: 10, Y2: 200, T1: 0, T2: 5}
	id, err := r.Subscribe(q.Y1, q.Y2, q.T2)
	if err != nil {
		t.Fatalf("Subscribe on healthy bands: %v", err)
	}
	recon := make(map[dual.OID]bool)
	var seq uint64
	check := func(when string) {
		t.Helper()
		ds, err := r.DrainSubs(id)
		if err != nil {
			t.Fatalf("%s: DrainSubs: %v", when, err)
		}
		for _, d := range ds {
			seq++
			if d.Seq != seq || (d.Kind == subscribe.Enter) == recon[d.OID] {
				t.Fatalf("%s: delta %+v (want seq %d) does not follow from the set so far", when, d, seq)
			}
			recon[d.OID] = d.Kind == subscribe.Enter
		}
		var got []dual.OID
		for oid, in := range recon {
			if in {
				got = append(got, oid)
			}
		}
		want := bruteForce(nil, ms, q, nil)
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("%s: reconstruction %v, want %v", when, got, want)
		}
		if mem, err := r.SubMembers(id); err != nil || fingerprint(mem) != fingerprint(want) {
			t.Fatalf("%s: SubMembers %v, %v; want %v", when, mem, err, want)
		}
	}
	check("seeded around a dead band")

	// Move every fifth object half the terrain away: band 3 misses every
	// op it should hold, the healthy bands commit theirs.
	var ops []Op
	for i := 0; i < len(ms); i += 5 {
		nm := ms[i]
		nm.Y0 = float64((int(nm.Y0) + 500) % 1000)
		ops = append(ops, Op{Insert: false, M: ms[i]}, Op{Insert: true, M: nm})
		ms[i] = nm
	}
	var pe *PartialError
	if err := r.Apply(ctx, ops); !errors.As(err, &pe) || !reflect.DeepEqual(pe.Missing, []int{3}) {
		t.Fatalf("Apply around a dead band: %v, want a *PartialError missing band 3", err)
	}
	check("after a write the dead band missed")

	// Serve band 3 again, holding what its peers committed.
	fresh, err := openMem(Config{ID: 3, Terrain: testTerrain()})
	if err != nil {
		t.Fatal(err)
	}
	var keep []dual.Motion
	for _, m := range ms {
		if assignedTo(r.Partitioner(), m, 3) {
			keep = append(keep, m)
		}
	}
	if err := fresh.BulkLoad(ctx, keep); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReplaceShard(3, fresh); err != nil {
		t.Fatal(err)
	}
	check("after the revive")
	wide := dual.MORQuery{Y1: 100, Y2: 900, T1: 0, T2: 10}
	wid, err := r.Subscribe(wide.Y1, wide.Y2, wide.T2)
	if err != nil {
		t.Fatalf("Subscribe once every band serves: %v", err)
	}
	got, err := r.SubMembers(wid)
	if err != nil {
		t.Fatalf("SubMembers: %v", err)
	}
	if want := bruteForce(nil, ms, wide, nil); fingerprint(got) != fingerprint(want) {
		t.Fatalf("members %v, want %v", got, want)
	}
}

// TestRouterDrainSingleAndMultiLeg drains a fence inside one band and one
// straddling two band cuts through the same ticks. Both must reconstruct
// the brute-force membership at every tick, carry their own id, and
// number their deltas 1, 2, 3, … without a gap.
func TestRouterDrainSingleAndMultiLeg(t *testing.T) {
	p := workload.DefaultGeofenceParams(200, 1)
	sim, err := workload.NewGeofenceSim(p)
	if err != nil {
		t.Fatal(err)
	}
	r := openCluster(t, 0, ClusterConfig{Terrain: p.Terrain}, 4)
	ctx := context.Background()
	var pend []Op
	feed := func(op workload.Op) error {
		pend = append(pend, Op{Insert: op.Insert, M: op.Motion})
		return nil
	}
	if err := sim.Bootstrap(feed); err != nil {
		t.Fatal(err)
	}
	if err := r.Apply(ctx, pend); err != nil {
		t.Fatal(err)
	}
	pend = pend[:0]

	type standing struct {
		id    subscribe.SubID
		fence workload.Geofence
		bands int
		recon map[dual.OID]bool
		seq   uint64
	}
	subs := []*standing{
		{fence: workload.Geofence{Y1: 300, Y2: 420, Window: 20}, bands: 1},
		{fence: workload.Geofence{Y1: 180, Y2: 620, Window: 20}, bands: 3},
	}
	for _, st := range subs {
		st.recon = make(map[dual.OID]bool)
		if st.id, err = r.Subscribe(st.fence.Y1, st.fence.Y2, st.fence.Window); err != nil {
			t.Fatal(err)
		}
		if n := len(r.Partitioner().Overlapping(dual.MORQuery{Y1: st.fence.Y1, Y2: st.fence.Y2})); n != st.bands {
			t.Fatalf("fence %+v overlaps %d bands, want %d", st.fence, n, st.bands)
		}
	}
	deltas := 0
	for tick := 0; tick <= 40; tick++ {
		if tick > 0 {
			if err := sim.Tick(feed); err != nil {
				t.Fatal(err)
			}
			if err := r.AdvanceSubs(sim.Now()); err != nil {
				t.Fatal(err)
			}
			if err := r.Apply(ctx, pend); err != nil {
				t.Fatal(err)
			}
			pend = pend[:0]
		}
		for _, st := range subs {
			ds, err := r.DrainSubs(st.id)
			if err != nil {
				t.Fatal(err)
			}
			deltas += len(ds)
			for _, d := range ds {
				st.seq++
				if d.Sub != st.id || d.Seq != st.seq || (d.Kind == subscribe.Enter) == st.recon[d.OID] {
					t.Fatalf("tick %d sub %d: delta %+v (want seq %d) does not follow from the set so far",
						tick, st.id, d, st.seq)
				}
				st.recon[d.OID] = d.Kind == subscribe.Enter
			}
			var recon []dual.OID
			for oid, in := range st.recon {
				if in {
					recon = append(recon, oid)
				}
			}
			if truth := sim.BruteForce(st.fence); fingerprint(recon) != fingerprint(truth) {
				t.Fatalf("tick %d fence %+v: reconstruction %v != brute force %v", tick, st.fence, recon, truth)
			}
		}
	}
	if deltas < 100 {
		t.Fatalf("only %d deltas in 40 ticks; the scenario is inert", deltas)
	}
}

// TestRouterFeedsEachMotionOnce checks that the engine holds one object
// per motion however many bands replicate it, and that a write grows its
// update count by the ops the router was handed, not by their replicas.
func TestRouterFeedsEachMotionOnce(t *testing.T) {
	r := openCluster(t, 0, ClusterConfig{Terrain: terrain1D}, 4)
	ctx := context.Background()
	ms := motions1D(200)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	held := 0
	for i := 0; i < 4; i++ {
		held += r.Shard(i).Len()
	}
	if held < 2*len(ms) {
		t.Fatalf("the shards hold %d replicas of %d motions; the scenario does not replicate", held, len(ms))
	}
	id, err := r.Subscribe(0, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.subs.Objects(); got != len(ms) {
		t.Fatalf("seeded engine tracks %d objects, want %d", got, len(ms))
	}
	before := r.subs.Stats().Updates
	const updates = 50
	for i := 0; i < updates; i++ {
		k := (i * 11) % len(ms)
		nm := ms[k]
		nm.Y0 = float64((i * 97) % 1000)
		if err := r.Apply(ctx, []Op{{Insert: false, M: ms[k]}, {Insert: true, M: nm}}); err != nil {
			t.Fatal(err)
		}
		ms[k] = nm
	}
	if got := r.subs.Stats().Updates - before; got != updates {
		t.Fatalf("engine processed %d upserts for %d updates", got, updates)
	}
	got, err := r.SubMembers(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce(nil, ms, dual.MORQuery{Y1: 0, Y2: 1000, T1: 0, T2: 10}, nil); fingerprint(got) != fingerprint(want) {
		t.Fatalf("members %v, want %v", got, want)
	}
}

// TestSubscriptionsSurviveTopologyChanges keeps standing queries open
// through two live splits — run while the cluster ticks and new fences
// subscribe — then a revive from the WAL and an interior rebuild from
// peers: a topology change moves motions between shards, not in or out
// of the cluster, so every subscription keeps reconstructing the
// brute-force answer at every tick.
func TestSubscriptionsSurviveTopologyChanges(t *testing.T) {
	p := workload.DefaultGeofenceParams(200, 8)
	sim, err := workload.NewGeofenceSim(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCluster(NewMemEnv(512), ClusterConfig{Terrain: p.Terrain, PageSize: 512}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	d := &simRouter{r: c.Router(), sim: sim}
	if err := sim.Bootstrap(d.feed); err != nil {
		t.Fatal(err)
	}
	if err := d.r.Apply(ctx, d.pend); err != nil {
		t.Fatal(err)
	}
	d.pend = d.pend[:0]
	fences := sim.Fences()
	live := []*follower{follow(t, d.r, sim, fences[0])}
	check := func(when string) {
		t.Helper()
		for _, fo := range live {
			fo.check(t, d.r, sim, fmt.Sprintf("%s (%d bands)", when, c.Bands()), false)
		}
	}
	splits := make(chan error, 1)
	go func() {
		err := c.Split(ctx, 0, 250)
		if err == nil {
			err = c.Split(ctx, 2, 750)
		}
		splits <- err
	}()
	for _, f := range fences[1:] {
		d.tick(t)
		live = append(live, follow(t, d.r, sim, f))
		check("during the splits")
	}
	if err := <-splits; err != nil {
		t.Fatal(err)
	}
	if c.Bands() != 4 {
		t.Fatalf("%d bands after two splits, want 4", c.Bands())
	}
	for step, topo := range []func() error{
		func() error { return c.Revive(ctx, 1) },
		func() error { return c.RebuildFromPeers(ctx, 2) },
	} {
		d.tick(t)
		if err := topo(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		check(fmt.Sprintf("after step %d", step))
		d.tick(t)
		check(fmt.Sprintf("tick after step %d", step))
	}
}

// TestSubscriptionFeedFailure fails a write on one shard while standing
// queries are open. The shard is quarantined and the engine no longer
// vouches for its band: the subscription over it and a new one there are
// refused, while the subscription over the other band keeps answering, a
// new one there subscribes, and the clock keeps moving. Reviving the band
// re-evaluates the standing queries against the shards, and the refused
// subscription's kept deltas rebuild its exact answer.
func TestSubscriptionFeedFailure(t *testing.T) {
	var fs *pager.FaultStore
	cfg := ClusterConfig{Terrain: terrain1D, PageSize: 512, WrapStore: func(id int) func(pager.Store) pager.Store {
		if id != 0 {
			return nil
		}
		return func(st pager.Store) pager.Store {
			fs = pager.NewFaultStore(st, pager.FaultConfig{})
			return fs
		}
	}}
	c, err := OpenCluster(NewMemEnv(512), cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.Router()
	ctx := context.Background()
	ms := motions1D(150)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	q := dual.MORQuery{Y1: 0, Y2: 400, T1: 0, T2: 10}
	kept, err := r.Subscribe(q.Y1, q.Y2, q.T2)
	if err != nil {
		t.Fatal(err)
	}
	other, err := r.Subscribe(600, 900, 10)
	if err != nil {
		t.Fatal(err)
	}
	recon := make(map[dual.OID]bool)
	drain := func(when string) {
		t.Helper()
		ds, err := r.DrainSubs(kept)
		if err != nil {
			t.Fatalf("%s: DrainSubs: %v", when, err)
		}
		for _, d := range ds {
			recon[d.OID] = d.Kind == subscribe.Enter
		}
		var got []dual.OID
		for oid, in := range recon {
			if in {
				got = append(got, oid)
			}
		}
		if want := bruteForce(nil, ms, q, nil); fingerprint(got) != fingerprint(want) {
			t.Fatalf("%s: reconstruction %v, want %v", when, got, want)
		}
	}
	drain("before the fault")

	// A motion heading down from inside band 0 is held by band 0 alone,
	// before the update and after it.
	k := 1
	for ms[k].V >= 0 || ms[k].Y0 >= 400 {
		k++
	}
	nm := ms[k]
	nm.Y0 /= 2
	fs.SetConfig(pager.FaultConfig{Write: pager.OpFaults{FailEvery: 1}})
	var pe *PartialError
	if err := r.Apply(ctx, []Op{{Insert: false, M: ms[k]}, {Insert: true, M: nm}}); !errors.As(err, &pe) {
		t.Fatalf("Apply through a failing write: %v, want a *PartialError", err)
	}
	fs.SetConfig(pager.FaultConfig{})
	if _, err := r.DrainSubs(kept); !errors.As(err, &pe) {
		t.Fatalf("DrainSubs over the failed band: %v, want the write's *PartialError", err)
	}
	if _, err := r.SubMembers(kept); err == nil {
		t.Fatalf("SubMembers over the failed band succeeded")
	}
	if _, err := r.Subscribe(0, 100, 5); !errors.As(err, &pe) {
		t.Fatalf("Subscribe over the failed band: %v, want the write's *PartialError", err)
	}
	if _, err := r.DrainSubs(other); err != nil {
		t.Fatalf("DrainSubs over the serving band: %v", err)
	}
	more, err := r.Subscribe(650, 850, 5)
	if err != nil {
		t.Fatalf("Subscribe over the serving band: %v", err)
	}
	if err := r.AdvanceSubs(1); err != nil {
		t.Fatalf("AdvanceSubs after a failed write: %v", err)
	}
	q.T1, q.T2 = 1, 11
	for _, id := range []subscribe.SubID{other, more} {
		if err := r.Unsubscribe(id); err != nil {
			t.Fatalf("Unsubscribe: %v", err)
		}
	}

	// WAL replay serves band 0's pre-batch state, which band 1 agrees with.
	if err := c.Revive(ctx, 0); err != nil {
		t.Fatal(err)
	}
	drain("after the revive")
	if _, err := r.Subscribe(0, 100, 5); err != nil {
		t.Fatalf("Subscribe after the revive: %v", err)
	}
}

// TestQueryDuringSubscriptionFeed holds the feed latch exclusively, the
// way a Subscribe does while it seeds: queries, drains and the
// subscription clock never take it, so all of them complete meanwhile.
func TestQueryDuringSubscriptionFeed(t *testing.T) {
	r := openCluster(t, 0, ClusterConfig{Terrain: terrain1D}, 2)
	ctx := context.Background()
	ms := motions1D(100)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	id, err := r.Subscribe(100, 300, 10)
	if err != nil {
		t.Fatal(err)
	}
	r.feedMu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := r.Query(ctx, queries1D[0])
		if err == nil {
			_, err = r.DrainSubs(id)
		}
		if err == nil {
			_, err = r.SubMembers(id)
		}
		if err == nil {
			err = r.AdvanceSubs(1)
		}
		done <- err
	}()
	select {
	case err := <-done:
		r.feedMu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		r.feedMu.Unlock()
		t.Fatalf("a reader waited for the feed latch")
	}
}

// TestSeedMarksDisagreeingReplicas takes one replica of a motion away
// behind the router's back. The seeding finds the two bands that should
// agree on it and marks both stale: ranges over them are refused while a
// range over the third band subscribes. Once the replica is back, the
// next Subscribe reseeds and every band answers.
func TestSeedMarksDisagreeingReplicas(t *testing.T) {
	r := openCluster(t, 0, ClusterConfig{Terrain: terrain1D}, 3)
	ctx := context.Background()
	ms := motions1D(90)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	var m dual.Motion
	for _, c := range ms {
		if reflect.DeepEqual(r.Partitioner().Assign(c), []int{1, 2}) {
			m = c
			break
		}
	}
	if m.OID == 0 {
		t.Fatal("no motion is held by bands 1 and 2 alone")
	}
	if err := r.Shard(2).Apply(ctx, []Op{{Insert: false, M: m}}); err != nil {
		t.Fatal(err)
	}
	low := dual.MORQuery{Y1: 50, Y2: 250, T1: 0, T2: 10}
	id, err := r.Subscribe(low.Y1, low.Y2, low.T2)
	if err != nil {
		t.Fatalf("Subscribe over the agreeing band: %v", err)
	}
	for _, y := range [][2]float64{{400, 500}, {700, 900}} {
		if _, err := r.Subscribe(y[0], y[1], 10); err == nil {
			t.Fatalf("Subscribe [%v,%v] over a band that disagrees with its replica succeeded", y[0], y[1])
		}
	}
	if got, err := r.SubMembers(id); err != nil || fingerprint(got) != fingerprint(bruteForce(nil, ms, low, nil)) {
		t.Fatalf("members over the agreeing band: %v, %v", got, err)
	}
	if err := r.Shard(2).Apply(ctx, []Op{{Insert: true, M: m}}); err != nil {
		t.Fatal(err)
	}
	high := dual.MORQuery{Y1: 700, Y2: 900, T1: 0, T2: 10}
	hid, err := r.Subscribe(high.Y1, high.Y2, high.T2)
	if err != nil {
		t.Fatalf("Subscribe once the replicas agree: %v", err)
	}
	if got, err := r.SubMembers(hid); err != nil || fingerprint(got) != fingerprint(bruteForce(nil, ms, high, nil)) {
		t.Fatalf("members once the replicas agree: %v, %v", got, err)
	}
}

// TestRouterWriteCancelledKeepsSubs hands the router writes whose
// context is already cancelled while a standing query is open: no shard
// commits anything, so nothing is marked stale and the subscription keeps
// answering exactly, through the cancelled writes and the next real one.
func TestRouterWriteCancelledKeepsSubs(t *testing.T) {
	r := openCluster(t, 0, ClusterConfig{Terrain: terrain1D}, 2)
	ctx := context.Background()
	ms := motions1D(100)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	q := dual.MORQuery{Y1: 0, Y2: 1000, T1: 0, T2: 10}
	id, err := r.Subscribe(q.Y1, q.Y2, q.T2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if _, err := r.DrainSubs(id); err != nil {
			t.Fatalf("%s: DrainSubs: %v", when, err)
		}
		got, err := r.SubMembers(id)
		if err != nil || fingerprint(got) != fingerprint(bruteForce(nil, ms, q, nil)) {
			t.Fatalf("%s: members %v, %v", when, got, err)
		}
	}
	check("subscribed")
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	nm := ms[0]
	nm.Y0 = 900
	update := []Op{{Insert: false, M: ms[0]}, {Insert: true, M: nm}}
	if err := r.Apply(cctx, update); !errors.Is(err, context.Canceled) {
		t.Fatalf("Apply with a cancelled context: %v, want context.Canceled", err)
	}
	if err := r.BulkLoad(cctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("BulkLoad with a cancelled context: %v, want context.Canceled", err)
	}
	check("after the cancelled writes")
	if err := r.Apply(ctx, update); err != nil {
		t.Fatal(err)
	}
	ms[0] = nm
	check("after the next write")
}

// TestWritesShareFeedLatch holds the feed latch's shared half, as an
// in-flight write does, with a standing query open: another write still
// completes, so writers never queue behind each other's fsync or
// checkpoint; only Subscribe, Unsubscribe and a reseed take the latch
// exclusively.
func TestWritesShareFeedLatch(t *testing.T) {
	r := openCluster(t, 0, ClusterConfig{Terrain: terrain1D}, 2)
	ctx := context.Background()
	ms := motions1D(50)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe(0, 1000, 10); err != nil {
		t.Fatal(err)
	}
	nm := ms[0]
	nm.Y0 = 500
	r.feedMu.RLock()
	done := make(chan error, 1)
	go func() {
		done <- r.Apply(ctx, []Op{{Insert: false, M: ms[0]}, {Insert: true, M: nm}})
	}()
	select {
	case err := <-done:
		r.feedMu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		r.feedMu.RUnlock()
		t.Fatalf("a write waited for another write's share of the feed latch")
	}
}
