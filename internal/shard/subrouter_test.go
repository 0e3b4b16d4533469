package shard

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/subscribe"
	"mobidx/internal/workload"
)

// TestRouterSubscriptionDifferential drives the geofence workload through
// clusters of 1 and 4 shards and asserts, after every tick, that each
// router subscription's drained deltas reconstruct exactly the merged
// member set, which in turn equals brute force over the simulator's
// ground truth — the engine-level differential contract lifted through
// band replication and the refcount merge.
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
			r, err := NewCluster(Config{Terrain: p.Terrain}, nShards, nil, Policy{}, nil)
			if err != nil {
				t.Fatalf("NewCluster: %v", err)
			}
			defer r.Close()
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
					ids := r.Subs()
					for _, id := range ids[:8] {
						if uerr := r.Unsubscribe(id); uerr != nil {
							t.Fatalf("Unsubscribe: %v", uerr)
						}
						delete(live, id)
					}
				}
				check(tick)
			}
			if len(r.Subs()) != len(live) {
				t.Fatalf("router tracks %d subs, test tracks %d", len(r.Subs()), len(live))
			}
		})
	}
}

// TestShardSubscriptionRecovery crashes a shard and reopens it over the
// surviving media: a fresh subscription seeds the recovered shard's
// matcher from the durable catalog, so it sees exactly the motions the
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
	defer s2.Close()
	id, err := s2.Subscribe(100, 300, 10)
	if err != nil {
		t.Fatalf("Subscribe after recovery: %v", err)
	}
	got, err := s2.SubMembers(id)
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
// resets the matcher alongside the index: standing queries see the net
// membership transitions and end up exactly on the bulk image.
func TestShardBulkLoadResetsSubs(t *testing.T) {
	s, err := New(Config{ID: 0, Terrain: testTerrain()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
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
// subscription spanning its band fails cleanly: no leg survives on the
// healthy shards and the router table stays empty.
func TestRouterSubscribeRollback(t *testing.T) {
	r, err := NewCluster(Config{Terrain: testTerrain()}, 4, nil, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Band 3 owns the top quarter; kill it.
	if err := r.Shard(3).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe(100, 900, 10); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Subscribe spanning a dead band: %v, want ErrShardDown", err)
	}
	if n := len(r.Subs()); n != 0 {
		t.Fatalf("router tracks %d subs after failed subscribe, want 0", n)
	}
	for i := 0; i < 3; i++ {
		if got := r.Shard(i).subs.Subs(); got != 0 {
			t.Fatalf("shard %d still holds %d matcher subscriptions after rollback", i, got)
		}
	}
	// A query fully inside healthy bands still subscribes fine.
	id, err := r.Subscribe(10, 200, 5)
	if err != nil {
		t.Fatalf("Subscribe on healthy bands: %v", err)
	}
	if _, err := r.SubMembers(id); err != nil {
		t.Fatalf("SubMembers: %v", err)
	}
}

// TestRouterDrainSingleAndMultiLeg drains a fence inside one band (one
// leg: forwarded without the refcount) and one straddling band cuts
// (several legs: refcount-merged) through the same ticks. Both must
// reconstruct the brute-force membership at every tick, carry the router's
// id, and number their deltas 1, 2, 3, … without a gap.
func TestRouterDrainSingleAndMultiLeg(t *testing.T) {
	p := workload.DefaultGeofenceParams(200, 1)
	sim, err := workload.NewGeofenceSim(p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewCluster(Config{Terrain: p.Terrain}, 4, nil, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
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
		legs  int
		recon map[dual.OID]bool
		seq   uint64
	}
	subs := []*standing{
		{fence: workload.Geofence{Y1: 300, Y2: 420, Window: 20}, legs: 1},
		{fence: workload.Geofence{Y1: 180, Y2: 620, Window: 20}, legs: 3},
	}
	for _, st := range subs {
		st.recon = make(map[dual.OID]bool)
		if st.id, err = r.Subscribe(st.fence.Y1, st.fence.Y2, st.fence.Window); err != nil {
			t.Fatal(err)
		}
		rs := r.subsTable().table[st.id]
		if len(rs.legs) != st.legs || (rs.ref == nil) != (st.legs == 1) {
			t.Fatalf("fence %+v: %d legs (refcount %v), want %d", st.fence, len(rs.legs), rs.ref != nil, st.legs)
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
