package shard

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

// cluster builds an n-shard router with per-shard FaultStores (initially
// clean) so tests can hurt individual shards mid-run.
func cluster(t testing.TB, n int, workers int, pol Policy) (*Router, []*pager.FaultStore) {
	t.Helper()
	faults := make([]*pager.FaultStore, n)
	r := openCluster(t, 0, ClusterConfig{Terrain: terrain1D, Exec: core.NewExecutor(workers), Policy: pol,
		WrapStore: func(id int) func(pager.Store) pager.Store {
			return func(st pager.Store) pager.Store {
				faults[id] = pager.NewFaultStore(st, pager.FaultConfig{Seed: int64(100 + id)})
				return faults[id]
			}
		}}, n)
	return r, faults
}

func TestRouterValidation(t *testing.T) {
	p, _ := NewPartitioner(1000, 2)
	if _, err := NewRouter(nil, nil, nil, Policy{}); err == nil {
		t.Fatal("nil partitioner accepted")
	}
	if _, err := NewRouter(make([]*Shard, 3), p, nil, Policy{}); err == nil {
		t.Fatal("shard/band count mismatch accepted")
	}
}

// A query with a non-finite or reversed bound is the caller's error: the
// router and the shard refuse it with core.ValidateQuery's own error before
// any shard call, breaker, PartialError or health counter sees it.
func TestRouterRejectsHostileQuery(t *testing.T) {
	r, _ := cluster(t, 2, 2, Policy{})
	if err := r.Apply(context.Background(), opsFor(motions1D(64))); err != nil {
		t.Fatal(err)
	}
	calls := r.Stats().ShardCalls
	for _, q := range []dual.MORQuery{
		{Y1: math.NaN(), Y2: 600, T1: 20, T2: 30},
		{Y1: 0, Y2: math.Inf(1), T1: 20, T2: 30},
		{Y1: 100, Y2: 900, T1: 30, T2: 20},
	} {
		want := core.ValidateQuery(q)
		if want == nil {
			t.Fatalf("core.ValidateQuery accepts %+v", q)
		}
		for name, query := range map[string]func(context.Context, dual.MORQuery) ([]dual.OID, error){
			"router": r.Query, "shard": r.Shard(0).Query,
		} {
			got, err := query(context.Background(), q)
			if err == nil || err.Error() != want.Error() || len(got) != 0 {
				t.Fatalf("%s Query(%+v) = %d answers, %v; want none and %v", name, q, len(got), err, want)
			}
		}
	}
	if st := r.Stats(); st.ShardCalls != calls || st.Partial != 0 || st.FailedShards != 0 {
		t.Fatalf("refused queries reached the failure policy: %+v", st)
	}
	for i := 0; i < 2; i++ {
		if h := r.Shard(i).Health(); !h.Healthy || h.Err != nil {
			t.Fatalf("shard %d after refused queries: %+v", i, h)
		}
	}
}

// TestRouterMatchesUnshardedOracle is the sharding contract: a routed
// query over any topology is byte-identical to the same query against a
// single unsharded index, at any worker count.
func TestRouterMatchesUnshardedOracle(t *testing.T) {
	leakcheck.Check(t)
	ms := motions1D(256)
	oracle := newOracle(t)
	for _, m := range ms {
		if err := oracle.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{1, 2, 8} {
			r, _ := cluster(t, shards, workers, Policy{})
			if err := r.Apply(context.Background(), opsFor(ms)); err != nil {
				t.Fatal(err)
			}
			for _, q := range queries1D {
				want, err := oracle.QueryParallelCtx(context.Background(), core.NewExecutor(1), q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if fingerprint(got) != fingerprint(want) {
					t.Fatalf("shards=%d workers=%d query %+v: routed %q, oracle %q",
						shards, workers, q, fingerprint(got), fingerprint(want))
				}
			}
		}
	}
}

// TestRouterDifferentialWorkload runs the §5 simulator against three
// implementations in lockstep — the sequential single index, the parallel
// single index, and routed clusters of 1 and 4 shards — and demands
// byte-identical answers from all of them on both query mixes at worker
// counts 1, 2 and 8. Router(1 shard) ≡ QueryParallel ≡ sequential is the
// degenerate-topology leg of the differential; Router(4) adds real
// partitioning on top.
func TestRouterDifferentialWorkload(t *testing.T) {
	leakcheck.Check(t)
	params := workload.Params{
		N: 300, Seed: 1999, Terrain: terrain1D, UpdatesPerTick: 40, Ticks: 6,
	}
	sim, err := workload.NewSimulator(params)
	if err != nil {
		t.Fatal(err)
	}
	oracle := newOracle(t)
	r1, _ := cluster(t, 1, 2, Policy{})
	r4s := map[int]*Router{}
	for _, w := range []int{1, 2, 8} {
		r4s[w], _ = cluster(t, 4, w, Policy{})
	}
	apply := func(op workload.Op) error {
		var err error
		if op.Insert {
			err = oracle.Insert(op.Motion)
		} else {
			err = oracle.Delete(op.Motion)
		}
		if err != nil {
			return err
		}
		ops := []Op{{Insert: op.Insert, M: op.Motion}}
		if err := r1.Apply(context.Background(), ops); err != nil {
			return err
		}
		for _, r4 := range r4s {
			if err := r4.Apply(context.Background(), ops); err != nil {
				return err
			}
		}
		return nil
	}
	if err := sim.Bootstrap(apply); err != nil {
		t.Fatal(err)
	}
	seqExec := core.NewExecutor(1)
	parExec := core.NewExecutor(8)
	check := func(qs []dual.MORQuery) {
		t.Helper()
		for _, q := range qs {
			seq, err := oracle.QueryParallelCtx(context.Background(), seqExec, q)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(seq)
			par, err := oracle.QueryParallelCtx(context.Background(), parExec, q)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(par) != want {
				t.Fatalf("parallel oracle diverged on %+v", q)
			}
			got1, err := r1.Query(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(got1) != want {
				t.Fatalf("router(1 shard) diverged on %+v: %q vs %q", q, fingerprint(got1), want)
			}
			for w, r4 := range r4s {
				got4, err := r4.Query(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				if fingerprint(got4) != want {
					t.Fatalf("router(4 shards, %d workers) diverged on %+v: %q vs %q",
						w, q, fingerprint(got4), want)
				}
			}
		}
	}
	for tick := 0; tick < params.Ticks; tick++ {
		if err := sim.Tick(apply); err != nil {
			t.Fatal(err)
		}
		if tick%2 == 1 {
			check(sim.Queries(workload.SmallQueries())[:20])
			check(sim.Queries(workload.LargeQueries())[:20])
		}
	}
}

// TestRouterDegradesAroundDeadShard: a permanently failing shard fails
// its calls, then its breaker opens and skips it — every answer along the
// way is the exact union of the healthy partitions, flagged with a
// *PartialError naming the dead one. The caller's own cancellation still
// fails the whole query.
func TestRouterDegradesAroundDeadShard(t *testing.T) {
	leakcheck.Check(t)
	r, faults := cluster(t, 4, 4, Policy{
		BreakAfter: 2,
		OpenFor:    time.Hour, // stays open for the whole test
	})
	ms := motions1D(256)
	if err := r.Apply(context.Background(), opsFor(ms)); err != nil {
		t.Fatal(err)
	}
	// Shard 0's storage dies permanently.
	faults[0].SetConfig(pager.FaultConfig{Seed: 100, Read: pager.OpFaults{FailEvery: 1}})
	q := dual.MORQuery{Y1: 0, Y2: 1000, T1: 0, T2: 5} // spans every band
	down := map[int]bool{0: true}
	for i := 0; i < 5; i++ {
		got, err := r.Query(context.Background(), q)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d: err = %v, want *PartialError", i, err)
		}
		if len(pe.Missing) != 1 || pe.Missing[0] != 0 {
			t.Fatalf("round %d: Missing = %v, want [0]", i, pe.Missing)
		}
		if !errors.Is(pe, pager.ErrInjected) && !errors.Is(pe, ErrShardDown) {
			t.Fatalf("round %d: cause %v carries neither the injected fault nor ErrShardDown", i, pe)
		}
		want := healthyUnion(r.Partitioner(), ms, q, down)
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("round %d: degraded answer %q, want healthy union %q",
				i, fingerprint(got), fingerprint(want))
		}
	}
	st := r.Stats()
	if st.BreakerOpens == 0 || st.BreakerSkips == 0 {
		t.Fatalf("breaker never engaged: %+v", st)
	}
	if st.Partial != 5 {
		t.Fatalf("Partial = %d, want 5", st.Partial)
	}
	if got := r.Degraded(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Degraded() = %v, want [0]", got)
	}
	// A query that never touches band 0 is not degraded at all.
	narrow := dual.MORQuery{Y1: 900, Y2: 950, T1: 0, T2: 1}
	got, err := r.Query(context.Background(), narrow)
	if err != nil {
		t.Fatalf("band-3-only query degraded: %v", err)
	}
	if fingerprint(got) != fingerprint(bruteForce(r.Partitioner(), ms, narrow, nil)) {
		t.Fatal("band-3-only query wrong")
	}
	// The caller's own cancellation is never converted to a partial.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Query(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query returned %v", err)
	}
}

// TestRouterApplyDegradation: a failed shard batch quarantines that shard
// and surfaces as a typed PartialError; the surviving shards applied
// theirs, and reads degrade around the quarantined one from then on.
func TestRouterApplyDegradation(t *testing.T) {
	leakcheck.Check(t)
	r, faults := cluster(t, 4, 4, Policy{OpenFor: time.Hour})
	ms := motions1D(256)
	if err := r.Apply(context.Background(), opsFor(ms)); err != nil {
		t.Fatal(err)
	}
	faults[2].SetConfig(pager.FaultConfig{Seed: 102, Write: pager.OpFaults{FailEvery: 1}})
	extra := []dual.Motion{
		{OID: 9001, Y0: 10, T0: 1, V: 0.5},   // bands 0..3: hits the dead shard
		{OID: 9002, Y0: 990, T0: 1, V: -0.5}, // bands 0..3: hits the dead shard
	}
	err := r.Apply(context.Background(), opsFor(extra))
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("apply err = %v, want *PartialError", err)
	}
	if len(pe.Missing) != 1 || pe.Missing[0] != 2 {
		t.Fatalf("Missing = %v, want [2]", pe.Missing)
	}
	if h := r.Shard(2).Health(); !h.Quarantined {
		t.Fatalf("failed shard not quarantined: %+v", h)
	}
	// Reads now degrade around shard 2; the healthy shards hold both the
	// original population and the extra motions.
	q := dual.MORQuery{Y1: 0, Y2: 1000, T1: 1, T2: 5}
	got, err := r.Query(context.Background(), q)
	if !errors.As(err, &pe) || len(pe.Missing) != 1 || pe.Missing[0] != 2 {
		t.Fatalf("query err = %v, want partial missing [2]", err)
	}
	all := append(append([]dual.Motion{}, ms...), extra...)
	want := healthyUnion(r.Partitioner(), all, q, map[int]bool{2: true})
	if fingerprint(got) != fingerprint(want) {
		t.Fatalf("degraded answer %q, want %q", fingerprint(got), fingerprint(want))
	}
}

// TestRouterBulkLoad: the bulk path routes the same replicas the
// incremental path does.
func TestRouterBulkLoad(t *testing.T) {
	leakcheck.Check(t)
	ms := motions1D(256)
	inc, _ := cluster(t, 4, 2, Policy{})
	if err := inc.Apply(context.Background(), opsFor(ms)); err != nil {
		t.Fatal(err)
	}
	bulk, _ := cluster(t, 4, 2, Policy{})
	if err := bulk.BulkLoad(context.Background(), ms); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries1D {
		a, err := inc.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := bulk.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(a) != fingerprint(b) {
			t.Fatalf("bulk vs incremental diverged on %+v", q)
		}
	}
}
