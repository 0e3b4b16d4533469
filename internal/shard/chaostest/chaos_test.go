package chaostest

import (
	"context"
	"sync"
	"testing"
	"time"

	"mobidx/internal/core"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
	"mobidx/internal/shard"
)

// scenarios is the fault grid. Each entry is swept over every topology in
// Topologies.
func scenarios() []Scenario {
	victims := func(n int) []int {
		if n >= 4 {
			return []int{0, n / 2}
		}
		return []int{0}
	}
	every := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		return ids
	}
	return []Scenario{
		{
			// No faults: the pure sharding contract — every topology,
			// every worker count, byte-identical to the oracle.
			Name: "clean",
		},
		{
			// A bounded storm of transient read faults on every shard: a
			// band whose read fails degrades the answer with a transient
			// cause (the caller may retry such a query), and once the
			// storm has passed the answers converge back to exact.
			Name: "transient-storm",
			Fault: func(n, id int) (pager.FaultConfig, bool) {
				return pager.FaultConfig{
					Seed:      int64(1000 + id),
					Read:      pager.OpFaults{FailEvery: 4},
					Transient: true,
					MaxFaults: 2,
				}, true
			},
			ExpectDown:     every,
			ExpectDegraded: true,
			Cause:          pager.ErrTransient,
			Heal:           true,
		},
		{
			// Storage under one or two shards dies outright. Queries
			// degrade to the exact healthy union, the breaker stops
			// hammering the corpses, and when the outage ends the answers
			// converge back to byte-identical.
			Name:   "dead-shard",
			Policy: shard.Policy{BreakAfter: 2, OpenFor: 30 * time.Millisecond},
			Fault: func(n, id int) (pager.FaultConfig, bool) {
				for _, v := range victims(n) {
					if id == v {
						return pager.FaultConfig{
							Seed: int64(1000 + id),
							Read: pager.OpFaults{FailEvery: 1},
						}, true
					}
				}
				return pager.FaultConfig{}, false
			},
			ExpectDown:     victims,
			ExpectDegraded: true,
			Heal:           true,
			HealWait:       50 * time.Millisecond,
		},
		{
			// One shard stalls instead of failing, on every other read
			// until its stall budget is spent: the queries it serves slow
			// down, but every answer stays byte-identical.
			Name: "stall-storm",
			Fault: func(n, id int) (pager.FaultConfig, bool) {
				if id != n-1 {
					return pager.FaultConfig{}, false
				}
				return pager.FaultConfig{
					Seed:      int64(1000 + id),
					Read:      pager.OpFaults{FailEvery: 2},
					Stall:     20 * time.Millisecond,
					MaxFaults: 3,
				}, true
			},
		},
		{
			// A one-shot straggler: the query waits out the single stall
			// and answers byte-identically.
			Name: "stall-straggler",
			Fault: func(n, id int) (pager.FaultConfig, bool) {
				if id != 0 {
					return pager.FaultConfig{}, false
				}
				return pager.FaultConfig{
					Seed:      1000,
					Read:      pager.OpFaults{FailEvery: 1},
					Stall:     30 * time.Millisecond,
					MaxFaults: 1,
				}, true
			},
		},
		{
			// A shard whose writes fail quarantines itself on the first
			// batch; the survivors apply theirs and reads route around
			// the corpse with a typed partial. Quarantine is permanent —
			// no heal phase.
			Name:   "write-kill",
			Policy: shard.Policy{BreakAfter: 1, OpenFor: time.Hour},
			Fault: func(n, id int) (pager.FaultConfig, bool) {
				if id != 1%n {
					return pager.FaultConfig{}, false
				}
				return pager.FaultConfig{
					Seed:  int64(1000 + id),
					Write: pager.OpFaults{FailEvery: 1},
				}, true
			},
			ExpectDown:     func(n int) []int { return []int{1 % n} },
			ExpectDegraded: true,
			WriteStorm:     true,
		},
	}
}

// TestChaosSweep drives every scenario over every topology.
func TestChaosSweep(t *testing.T) {
	for _, sc := range scenarios() {
		for _, topo := range Topologies {
			sc, topo := sc, topo
			t.Run(sc.Name+"/"+topo.String(), func(t *testing.T) {
				leakcheck.Check(t)
				if err := RunScenario(topo, sc); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestChaosConcurrentStorms is the race gate: queriers hammer the cluster
// from many goroutines while the main goroutine flips fault schedules on
// and off under them (storms arriving and passing). Every individual
// answer must still satisfy the serving invariant — full or exact healthy
// union with a typed partial — and nothing may leak or race.
func TestChaosConcurrentStorms(t *testing.T) {
	leakcheck.Check(t)
	const nShards = 4
	faults := make([]*pager.FaultStore, nShards)
	pol := shard.Policy{BreakAfter: 3, OpenFor: 5 * time.Millisecond}
	c, err := shard.OpenCluster(shard.NewMemEnv(PageSize), shard.ClusterConfig{
		Terrain: terrain, Exec: core.NewExecutor(4), Policy: pol,
		WrapStore: func(id int) func(pager.Store) pager.Store {
			return func(st pager.Store) pager.Store {
				faults[id] = pager.NewFaultStore(st, pager.FaultConfig{Seed: int64(2000 + id)})
				return faults[id]
			}
		},
	}, nShards)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := c.Router()
	ms := motions(192)
	ops := make([]shard.Op, len(ms))
	for i, m := range ms {
		ops[i] = shard.Op{Insert: true, M: m}
	}
	if err := r.Apply(context.Background(), ops); err != nil {
		t.Fatal(err)
	}

	// Any shard may be hit by a storm at any moment, so the full cluster
	// is the allowed blast radius; the invariant still pins every answer
	// to the exact union of whatever served it.
	allowedDown := map[int]bool{0: true, 1: true, 2: true, 3: true}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				for _, q := range queries {
					got, err := r.Query(context.Background(), q)
					if _, cerr := checkAnswer(r.Partitioner(), ms, q, got, err, allowedDown); cerr != nil {
						select {
						case errc <- cerr:
						default:
						}
						return
					}
				}
			}
		}()
	}
	storms := []pager.FaultConfig{
		{Read: pager.OpFaults{FailEvery: 3}, Transient: true},
		{Read: pager.OpFaults{FailEvery: 1}},
		{Read: pager.OpFaults{FailEvery: 2}, Stall: time.Millisecond},
		{}, // calm
	}
	for i := 0; i < 12; i++ {
		victim := i % nShards
		cfg := storms[i%len(storms)]
		cfg.Seed = int64(2000 + victim)
		faults[victim].SetConfig(cfg)
		time.Sleep(5 * time.Millisecond)
		faults[victim].SetConfig(pager.FaultConfig{Seed: int64(2000 + victim)})
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
