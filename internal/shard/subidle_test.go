package shard

import (
	"context"
	"reflect"
	"sort"
	"sync"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/subscribe"
	"mobidx/internal/workload"
)

// The router feeds its subscription engine only while it has standing
// queries: these tests pin the lifecycle (idle → seeded by the first
// Subscribe from every shard's catalog → emptied by the last Unsubscribe)
// and that a subscription started at any point of it reconstructs the
// one-shot answer.

// idleEngine fails the test unless the router's engine tracks nothing.
func idleEngine(t *testing.T, r *Router, when string) {
	t.Helper()
	if n, subs := r.subs.Objects(), r.subs.Subs(); n != 0 || subs != 0 {
		t.Fatalf("%s: engine tracks %d objects for %d subscriptions, want 0 and 0", when, n, subs)
	}
}

// mediaRouter opens one shard per (base, log) pair, band i on pair i, and
// a router over them.
func mediaRouter(t *testing.T, cfg Config, bases []*pager.MemStore, logs []*pager.MemLog) *Router {
	t.Helper()
	part, err := NewPartitioner(cfg.Terrain.YMax, len(bases))
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Shard, len(bases))
	for i := range bases {
		c := cfg
		c.ID = i
		if shards[i], err = Open(c, bases[i], logs[i]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewRouter(shards, part, nil, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// follower rebuilds one router subscription's answer from its deltas.
type follower struct {
	id    subscribe.SubID
	fence workload.Geofence
	recon map[dual.OID]bool
}

// follow subscribes the fence and checks the first drain is exactly the
// brute-force answer, delivered as Enter deltas only.
func follow(t *testing.T, r *Router, sim *workload.GeofenceSim, f workload.Geofence) *follower {
	t.Helper()
	id, err := r.Subscribe(f.Y1, f.Y2, f.Window)
	if err != nil {
		t.Fatalf("Subscribe %+v: %v", f, err)
	}
	fo := &follower{id: id, fence: f, recon: make(map[dual.OID]bool)}
	fo.check(t, r, sim, "first drain", true)
	return fo
}

func (fo *follower) check(t *testing.T, r *Router, sim *workload.GeofenceSim, when string, entersOnly bool) {
	t.Helper()
	ds, err := r.DrainSubs(fo.id)
	if err != nil {
		t.Fatalf("%s: DrainSubs: %v", when, err)
	}
	for _, d := range ds {
		switch {
		case d.Kind == subscribe.Enter && !fo.recon[d.OID]:
			fo.recon[d.OID] = true
		case d.Kind == subscribe.Leave && fo.recon[d.OID] && !entersOnly:
			delete(fo.recon, d.OID)
		default:
			t.Fatalf("%s sub %d: delta %+v does not follow from the set so far", when, fo.id, d)
		}
	}
	recon := make([]dual.OID, 0, len(fo.recon))
	for oid := range fo.recon {
		recon = append(recon, oid)
	}
	sort.Slice(recon, func(i, j int) bool { return recon[i] < recon[j] })
	if truth := sim.BruteForce(fo.fence); !reflect.DeepEqual(recon, truth) {
		t.Fatalf("%s sub %d %+v: reconstruction %v != brute force %v", when, fo.id, fo.fence, recon, truth)
	}
	mem, err := r.SubMembers(fo.id)
	if err != nil {
		t.Fatalf("%s: SubMembers: %v", when, err)
	}
	if len(mem) != len(recon) || (len(mem) > 0 && !reflect.DeepEqual(mem, recon)) {
		t.Fatalf("%s sub %d: engine members %v != reconstruction %v", when, fo.id, mem, recon)
	}
}

// simRouter is a router driven by the geofence simulator.
type simRouter struct {
	r    *Router
	sim  *workload.GeofenceSim
	pend []Op
}

func (d *simRouter) feed(op workload.Op) error {
	d.pend = append(d.pend, Op{Insert: op.Insert, M: op.Motion})
	return nil
}

// tick moves the simulator, the engine clock and the cluster one step.
func (d *simRouter) tick(t *testing.T) {
	t.Helper()
	if err := d.sim.Tick(d.feed); err != nil {
		t.Fatalf("Tick: %v", err)
	}
	if err := d.r.AdvanceSubs(d.sim.Now()); err != nil {
		t.Fatalf("AdvanceSubs: %v", err)
	}
	if err := d.r.Apply(context.Background(), d.pend); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	d.pend = d.pend[:0]
}

func TestFirstSubscribeSeedsIdleEngine(t *testing.T) {
	for _, kind := range []string{"direct", "ingest", "reopened"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			p := workload.DefaultGeofenceParams(150, 6)
			sim, err := workload.NewGeofenceSim(p)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Terrain: p.Terrain, PageSize: 512}
			if kind == "ingest" {
				cfg.Ingest = tinyIngest()
			}
			bases := []*pager.MemStore{pager.NewMemStore(512), pager.NewMemStore(512)}
			logs := []*pager.MemLog{pager.NewMemLog(), pager.NewMemLog()}
			r := mediaRouter(t, cfg, bases, logs)
			idleEngine(t, r, "after Open")
			d := &simRouter{r: r, sim: sim}
			if err := sim.Bootstrap(d.feed); err != nil {
				t.Fatal(err)
			}
			ms := make([]dual.Motion, len(d.pend))
			for i, op := range d.pend {
				ms[i] = op.M
			}
			d.pend = d.pend[:0]
			if err := r.BulkLoad(context.Background(), ms); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				d.tick(t)
			}
			idleEngine(t, r, "after BulkLoad and 5 ticks unsubscribed")
			if kind == "reopened" {
				// Crash (no Close) and reopen over the surviving media: the
				// new engine starts at time 0 and seeds from the catalogs.
				for i := range logs {
					logs[i] = pager.NewMemLogFrom(logs[i].Bytes())
				}
				r = mediaRouter(t, cfg, bases, logs)
				d.r = r
				idleEngine(t, r, "after reopen")
				if err := r.AdvanceSubs(sim.Now()); err != nil {
					t.Fatal(err)
				}
			}
			defer func() {
				if err := d.r.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
			}()

			fences := sim.Fences()
			live := []*follower{follow(t, r, sim, fences[0])}
			held := r.Shard(0).Len() + r.Shard(1).Len()
			if got := r.subs.Objects(); got != len(ms) || held <= len(ms) {
				t.Fatalf("seeded engine tracks %d objects; the shards hold %d replicas of %d motions", got, held, len(ms))
			}
			for i := 0; i < 10; i++ {
				d.tick(t)
				if i == 3 { // a second query on the seeded engine
					live = append(live, follow(t, r, sim, fences[1]))
				}
				for _, fo := range live {
					fo.check(t, r, sim, "subscribed tick", false)
				}
			}
			for i, fo := range live {
				if err := r.Unsubscribe(fo.id); err != nil {
					t.Fatal(err)
				}
				if i == 0 && r.subs.Objects() != len(ms) {
					t.Fatalf("engine dropped its objects with a subscription left")
				}
			}
			idleEngine(t, r, "after the last Unsubscribe")
			for i := 0; i < 3; i++ {
				d.tick(t)
			}
			idleEngine(t, r, "3 ticks after the last Unsubscribe")

			fo := follow(t, r, sim, fences[2]) // seeds again, from the moved population
			for i := 0; i < 5; i++ {
				d.tick(t)
				fo.check(t, r, sim, "re-subscribed tick", false)
			}
		})
	}
}

func TestIdleEngineSurvivesApplies(t *testing.T) {
	r, err := NewCluster(Config{Terrain: terrain1D}, 2, nil, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	ms := motions1D(200)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		old := ms[i%len(ms)]
		nm := old
		nm.Y0 = float64((i * 61) % 1000)
		if err := r.Apply(ctx, []Op{{Insert: false, M: old}, {Insert: true, M: nm}}); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
		ms[i%len(ms)] = nm
	}
	idleEngine(t, r, "after BulkLoad and 1000 Applies")
	// An invalid standing query seeds nothing that outlives the call.
	if _, err := r.Subscribe(10, 5, 1); err == nil {
		t.Fatalf("inverted range accepted")
	}
	idleEngine(t, r, "after a refused Subscribe")
}

// TestSubscribeSeedFailure fails one shard's catalog read under the first
// Subscribe: that call fails, nothing is registered or tracked, the shard
// keeps serving, and the next Subscribe seeds normally.
func TestSubscribeSeedFailure(t *testing.T) {
	var fs *pager.FaultStore
	r, err := NewCluster(Config{Terrain: terrain1D, PageSize: 512}, 2, nil, Policy{}, func(id int) func(pager.Store) pager.Store {
		if id != 1 {
			return nil
		}
		return func(st pager.Store) pager.Store {
			fs = pager.NewFaultStore(st, pager.FaultConfig{})
			return fs
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	ms := motions1D(120)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	fs.SetConfig(pager.FaultConfig{Read: pager.OpFaults{FailEvery: 1}})
	if id, err := r.Subscribe(100, 300, 10); err == nil {
		t.Fatalf("Subscribe over a failing catalog read returned id %d", id)
	}
	idleEngine(t, r, "after a failed seeding")
	fs.SetConfig(pager.FaultConfig{})
	if h := r.Shard(1).Health(); !h.Healthy {
		t.Fatalf("a failed seeding took the shard down: %+v", h)
	}
	q := dual.MORQuery{Y1: 100, Y2: 300, T1: 0, T2: 10}
	if got, err := r.Query(ctx, q); err != nil || fingerprint(got) != fingerprint(bruteForce(nil, ms, q, nil)) {
		t.Fatalf("Query after a failed seeding: %v, %v", got, err)
	}
	id, err := r.Subscribe(q.Y1, q.Y2, q.T2)
	if err != nil {
		t.Fatalf("Subscribe after the fault cleared: %v", err)
	}
	got, err := r.SubMembers(id)
	if err != nil {
		t.Fatal(err)
	}
	if want := bruteForce(nil, ms, q, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("members %v, want %v", got, want)
	}
}

// TestSubscribeStormOnRouter runs Apply, Subscribe/Unsubscribe, Drain and
// Query against one two-band router at once (verify.sh runs it under
// -race). Every drained stream must be self-consistent while the storm
// lasts; once it is over, each surviving subscription reconstructs the
// brute-force answer and the engine empties with the last Unsubscribe.
func TestSubscribeStormOnRouter(t *testing.T) {
	r, err := NewCluster(Config{Terrain: terrain1D}, 2, nil, Policy{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	ms := motions1D(150)
	if err := r.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the one writer: ms is its own until the join
		defer wg.Done()
		for i := 0; i < 300; i++ {
			k := (i * 7) % len(ms)
			nm := ms[k]
			nm.Y0 = float64((i * 53) % 1000)
			if err := r.Apply(ctx, []Op{{Insert: false, M: ms[k]}, {Insert: true, M: nm}}); err != nil {
				t.Errorf("Apply %d: %v", i, err)
				return
			}
			ms[k] = nm
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if _, err := r.Query(ctx, queries1D[i%len(queries1D)]); err != nil {
				t.Errorf("Query %d: %v", i, err)
				return
			}
		}
	}()
	type kept struct {
		id     subscribe.SubID
		y1, y2 float64
		recon  map[dual.OID]bool
	}
	survivors := make([]kept, 2)
	for g := range survivors {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			const rounds = 25
			for i := 0; i < rounds; i++ {
				y1 := float64((g*400 + i*37) % 800)
				k := kept{y1: y1, y2: y1 + 150, recon: make(map[dual.OID]bool)}
				var err error
				if k.id, err = r.Subscribe(k.y1, k.y2, 10); err != nil {
					t.Errorf("Subscribe: %v", err)
					return
				}
				for n := 0; n < 4; n++ {
					ds, err := r.DrainSubs(k.id)
					if err != nil {
						t.Errorf("DrainSubs: %v", err)
						return
					}
					for _, d := range ds {
						if (d.Kind == subscribe.Enter) == k.recon[d.OID] {
							t.Errorf("sub %d: delta %+v does not follow from the set so far", k.id, d)
							return
						}
						k.recon[d.OID] = d.Kind == subscribe.Enter
					}
				}
				if i == rounds-1 {
					survivors[g] = k
					return
				}
				if err := r.Unsubscribe(k.id); err != nil {
					t.Errorf("Unsubscribe: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, k := range survivors {
		ds, err := r.DrainSubs(k.id)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			k.recon[d.OID] = d.Kind == subscribe.Enter
		}
		var recon []dual.OID
		for oid, in := range k.recon {
			if in {
				recon = append(recon, oid)
			}
		}
		want := bruteForce(nil, ms, dual.MORQuery{Y1: k.y1, Y2: k.y2, T1: 0, T2: 10}, nil)
		if fingerprint(recon) != fingerprint(want) {
			t.Fatalf("sub %d [%v,%v]: reconstruction %v != brute force %v", k.id, k.y1, k.y2, recon, want)
		}
		if err := r.Unsubscribe(k.id); err != nil {
			t.Fatal(err)
		}
	}
	idleEngine(t, r, "after the storm's last Unsubscribe")
}
