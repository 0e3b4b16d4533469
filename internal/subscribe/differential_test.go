package subscribe_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/subscribe"
	"mobidx/internal/workload"
)

// oracleIndex is a one-shot access method the engine is checked against:
// after every tick, re-running each standing query through it must give
// exactly the set the engine's accumulated deltas reconstruct.
type oracleIndex struct {
	insert func(dual.Motion) error
	remove func(dual.Motion) error
	query  func(dual.MORQuery) ([]dual.OID, error)
}

func newDualBPOracle(t *testing.T, tr dual.Terrain, workers int) oracleIndex {
	t.Helper()
	ix, err := core.NewDualBPlus(pager.NewMemStore(pager.DefaultPageSize),
		core.DualBPlusConfig{Terrain: tr})
	if err != nil {
		t.Fatalf("NewDualBPlus: %v", err)
	}
	exec := core.NewExecutor(workers)
	return oracleIndex{
		insert: ix.Insert,
		remove: ix.Delete,
		query: func(q dual.MORQuery) ([]dual.OID, error) {
			return ix.QueryParallelCtx(context.Background(), exec, q)
		},
	}
}

func newKDOracle(t *testing.T, tr dual.Terrain) oracleIndex {
	t.Helper()
	ix, err := core.NewKDDual(pager.NewMemStore(pager.DefaultPageSize),
		core.KDDualConfig{Terrain: tr})
	if err != nil {
		t.Fatalf("NewKDDual: %v", err)
	}
	return oracleIndex{
		insert: ix.Insert,
		remove: ix.Delete,
		query: func(q dual.MORQuery) ([]dual.OID, error) {
			var got []dual.OID
			if err := ix.Query(q, func(oid dual.OID) { got = append(got, oid) }); err != nil {
				return nil, err
			}
			return core.MergeOIDs([][]dual.OID{got}), nil
		},
	}
}

func sortedSet(set map[dual.OID]bool) []dual.OID {
	out := make([]dual.OID, 0, len(set))
	for oid, in := range set {
		if in {
			out = append(out, oid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// runDifferentialLeg drives one engine over the geofence trace against
// one oracle index, asserting after every tick that, for every live
// standing query, the delta-reconstructed answer is byte-identical to
// (a) the engine's own member set, (b) a one-shot re-run through the
// oracle index, and (c) brute force over the simulator's ground truth.
// It returns the full drained delta stream for cross-leg comparison.
//
// With churn set, every tick also tears down two seeded-random standing
// queries and registers two fresh ones — before the tick's Apply on odd
// ticks, after it on even ones — so subscription slots are freed and
// reused out of id order while objects are members of their neighbours.
func runDifferentialLeg(t *testing.T, mkOracle func(t *testing.T) oracleIndex, churn bool) []subscribe.Delta {
	t.Helper()
	const ticks = 60
	p := workload.DefaultGeofenceParams(300, 50)
	sim, err := workload.NewGeofenceSim(p)
	if err != nil {
		t.Fatalf("NewGeofenceSim: %v", err)
	}
	oracle := mkOracle(t)
	eng, err := subscribe.New(subscribe.Config{})
	if err != nil {
		t.Fatalf("subscribe.New: %v", err)
	}
	defer func() {
		if cerr := eng.Close(); cerr != nil {
			t.Fatalf("Close: %v", cerr)
		}
	}()

	var pend []subscribe.Op
	feed := func(op workload.Op) error {
		pend = append(pend, subscribe.Op{Insert: op.Insert, M: op.Motion})
		if op.Insert {
			return oracle.insert(op.Motion)
		}
		return oracle.remove(op.Motion)
	}
	if err := sim.Bootstrap(feed); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if err := eng.Apply(pend); err != nil {
		t.Fatalf("Apply bootstrap: %v", err)
	}
	pend = pend[:0]

	fences := sim.Fences()
	type standing struct {
		id    subscribe.SubID
		fence workload.Geofence
		recon map[dual.OID]bool
	}
	live := make(map[subscribe.SubID]*standing)
	liveIDs := func() []subscribe.SubID {
		ids := make([]subscribe.SubID, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	var stream []subscribe.Delta
	addSub := func(f workload.Geofence) {
		id, serr := eng.Subscribe(f.Y1, f.Y2, f.Window)
		if serr != nil {
			t.Fatalf("Subscribe: %v", serr)
		}
		live[id] = &standing{id: id, fence: f, recon: make(map[dual.OID]bool)}
	}
	// 40 fences standing from t=0; 10 subscribed mid-trace (tick 15);
	// 10 of the originals torn down mid-trace (tick 30).
	for _, f := range fences[:40] {
		addSub(f)
	}

	check := func(tick int) {
		for _, id := range liveIDs() {
			st := live[id]
			ds, derr := eng.Drain(id)
			if derr != nil {
				t.Fatalf("tick %d: Drain: %v", tick, derr)
			}
			stream = append(stream, ds...)
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
			recon := sortedSet(st.recon)
			mem, merr := eng.Members(id)
			if merr != nil {
				t.Fatalf("tick %d: Members: %v", tick, merr)
			}
			if !reflect.DeepEqual(recon, mem) {
				t.Fatalf("tick %d sub %d: reconstruction %v != engine members %v", tick, id, recon, mem)
			}
			truth := sim.BruteForce(st.fence)
			if !reflect.DeepEqual(recon, truth) {
				t.Fatalf("tick %d sub %d %+v: reconstruction %v != ground truth %v",
					tick, id, st.fence, recon, truth)
			}
			q := dual.MORQuery{Y1: st.fence.Y1, Y2: st.fence.Y2,
				T1: sim.Now(), T2: sim.Now() + st.fence.Window}
			oneShot, qerr := oracle.query(q)
			if qerr != nil {
				t.Fatalf("tick %d: oracle query: %v", tick, qerr)
			}
			if !reflect.DeepEqual(recon, oneShot) {
				t.Fatalf("tick %d sub %d %+v: reconstruction %v != one-shot re-run %v",
					tick, id, st.fence, recon, oneShot)
			}
		}
	}

	rng := rand.New(rand.NewSource(7))
	nextFence := 0
	churnOnce := func() {
		for i := 0; i < 2; i++ {
			ids := liveIDs()
			id := ids[rng.Intn(len(ids))]
			if uerr := eng.Unsubscribe(id); uerr != nil {
				t.Fatalf("Unsubscribe: %v", uerr)
			}
			delete(live, id)
		}
		for i := 0; i < 2; i++ {
			addSub(fences[nextFence%len(fences)])
			nextFence++
		}
	}

	check(0)
	for tick := 1; tick <= ticks; tick++ {
		if err := sim.Tick(feed); err != nil {
			t.Fatalf("Tick %d: %v", tick, err)
		}
		if err := eng.Advance(sim.Now()); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		if churn && tick%2 == 1 {
			churnOnce()
		}
		if err := eng.Apply(pend); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		pend = pend[:0]
		if churn && tick%2 == 0 {
			churnOnce()
		}
		if tick == 15 {
			for _, f := range fences[40:] {
				addSub(f)
			}
		}
		if tick == 30 {
			for _, id := range liveIDs()[:10] {
				if uerr := eng.Unsubscribe(id); uerr != nil {
					t.Fatalf("Unsubscribe: %v", uerr)
				}
				delete(live, id)
			}
		}
		check(tick)
	}
	return stream
}

// TestDifferentialOracle runs the engine-vs-one-shot differential over
// both access-method families and all worker counts, and asserts that
// the engine's delta stream is byte-identical across every leg: the
// incremental answer must not depend on which structure re-runs the
// standing queries, nor on the oracle's parallelism.
func TestDifferentialOracle(t *testing.T) {
	type leg struct {
		name string
		mk   func(t *testing.T) oracleIndex
	}
	var legs []leg
	for _, w := range []int{1, 2, 8} {
		workers := w
		legs = append(legs, leg{
			name: fmt.Sprintf("dualbp/workers=%d", workers),
			mk: func(t *testing.T) oracleIndex {
				return newDualBPOracle(t, workload.DefaultGeofenceParams(1, 1).Terrain, workers)
			},
		})
	}
	legs = append(legs, leg{
		name: "kddual",
		mk:   func(t *testing.T) oracleIndex { return newKDOracle(t, workload.DefaultGeofenceParams(1, 1).Terrain) },
	})

	var ref []subscribe.Delta
	for i, l := range legs {
		l := l
		first := i == 0
		t.Run(l.name, func(t *testing.T) {
			stream := runDifferentialLeg(t, l.mk, false)
			if len(stream) == 0 {
				t.Fatalf("differential trace emitted no deltas; scenario is inert")
			}
			if first {
				ref = stream
				return
			}
			if !reflect.DeepEqual(stream, ref) {
				t.Fatalf("delta stream differs between legs (%d vs %d deltas)", len(stream), len(ref))
			}
		})
	}
}

// churnStreamHash is subscribe.StreamHash of the churn leg's delta stream
// as the map-based engine of commit 4aa2e1a emitted it: the slice-and-
// bitset membership must reproduce it byte for byte.
const churnStreamHash = "930e23cc4ef56c8931315a503448c8c7460ea8d782e6707d13bd52e6951629ae"

// TestDifferentialChurn runs the differential trace with subscriptions
// coming and going every tick, against the one-shot oracle and the
// recorded stream of the parent implementation.
func TestDifferentialChurn(t *testing.T) {
	stream := runDifferentialLeg(t, func(t *testing.T) oracleIndex {
		return newDualBPOracle(t, workload.DefaultGeofenceParams(1, 1).Terrain, 1)
	}, true)
	if got := subscribe.StreamHash(stream); got != churnStreamHash {
		t.Fatalf("churn leg: %d deltas hash to %s, want %s", len(stream), got, churnStreamHash)
	}
}
