// Package chaostest is the topology chaos sweep for the sharded serving
// layer: it builds clusters of every topology (shard count × router
// worker count), composes a FaultStore under individual shards, and
// drives load/fault/query/heal phases while checking the serving
// contract:
//
//  1. a no-fault routed query is byte-identical to the exact answer over
//     the full population (the unsharded oracle);
//  2. a degraded query returns exactly the union of the healthy shards'
//     partitions — never a superset, never silently less — together with
//     a typed *shard.PartialError naming the missing partitions;
//  3. after a transient storm passes (or a stalled shard heals), answers
//     return to byte-identical, with no goroutine left behind.
//
// Everything is deterministic: fixed motion population, fixed query set,
// seeded fault schedules, so every run of a scenario sees the same faults
// at the same operations.
package chaostest

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/shard"
)

// PageSize keeps even small populations spanning deep trees with real
// splits, the faulttest convention.
const PageSize = 512

var terrain = dual.Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66}

// motions is the deterministic population (the faulttest stride pattern).
func motions(n int) []dual.Motion {
	ms := make([]dual.Motion, n)
	for i := range ms {
		v := 0.2 + 0.2*float64(i%7)
		if i%2 == 1 {
			v = -v
		}
		ms[i] = dual.Motion{OID: dual.OID(i + 1), Y0: float64((i * 137) % 1000), T0: 0, V: v}
	}
	return ms
}

// queries spans the spectrum a router cares about: single-band narrow
// windows, multi-band mid-size ones, and full-terrain sweeps.
var queries = []dual.MORQuery{
	{Y1: 0, Y2: 1000, T1: 0, T2: 5},
	{Y1: 100, Y2: 300, T1: 10, T2: 40},
	{Y1: 450, Y2: 480, T1: 100, T2: 150},
	{Y1: 700, Y2: 900, T1: 0, T2: 60},
	{Y1: 950, Y2: 1000, T1: 0, T2: 10},
	{Y1: 0, Y2: 40, T1: 20, T2: 30},
}

// Topology is one cluster shape under sweep.
type Topology struct {
	Shards  int // partitions
	Workers int // router fan-out executor width
}

func (t Topology) String() string { return fmt.Sprintf("s%dw%d", t.Shards, t.Workers) }

// Topologies is the sweep grid: degenerate single-shard serving, matched
// and mismatched worker counts, and a cluster wider than the executor.
var Topologies = []Topology{
	{Shards: 1, Workers: 1},
	{Shards: 2, Workers: 2},
	{Shards: 4, Workers: 1},
	{Shards: 4, Workers: 4},
	{Shards: 8, Workers: 4},
}

// Scenario is one fault schedule under sweep, with the breaker policy the
// cluster serves it with.
type Scenario struct {
	Name   string
	Policy shard.Policy
	// Fault returns the schedule to install under shard id once the
	// population is loaded (ok=false leaves the shard clean).
	Fault func(nShards, id int) (cfg pager.FaultConfig, ok bool)
	// ExpectDown lists the shards the schedule may take out (nil: none —
	// every query must be byte-identical to the oracle). A query's
	// reported missing set must always be a subset of this intersected
	// with its targets.
	ExpectDown func(nShards int) []int
	// ExpectDegraded requires at least one degraded answer during the
	// fault phase — the proof the scenario actually hurt something.
	ExpectDegraded bool
	// Cause, when set, must be reachable with errors.Is from every
	// degraded answer of the fault phase.
	Cause error
	// WriteStorm applies an extra motion batch during the fault phase
	// (instead of only querying), exercising quarantine-and-route-around.
	WriteStorm bool
	// Heal clears every fault schedule after the fault phase, waits out
	// HealWait (breaker reopen windows), and requires byte-identical
	// answers again. Quarantined shards cannot heal, so WriteStorm
	// scenarios never set it.
	Heal     bool
	HealWait time.Duration
}

// bruteForce is the exact oracle, ascending: every motion that matches q
// and whose assigned bands intersect p's bands for q that are not down.
// down=nil means no band is down and ignores p: the answer over the full
// population, the unsharded oracle.
func bruteForce(p *shard.Partitioner, ms []dual.Motion, q dual.MORQuery, down map[int]bool) []dual.OID {
	var healthy map[int]bool
	if down != nil {
		healthy = make(map[int]bool)
		for _, b := range p.Overlapping(q) {
			if !down[b] {
				healthy[b] = true
			}
		}
	}
	var out []dual.OID
	for _, m := range ms {
		if m.Matches(q) && (healthy == nil || slices.ContainsFunc(p.Assign(m), func(b int) bool { return healthy[b] })) {
			out = append(out, m.OID)
		}
	}
	slices.Sort(out)
	return out
}

// exactAnswers is the unsharded oracle over a fully healthy cluster or
// shard: for each package query, every matching motion's OID, ascending.
func exactAnswers(pop []dual.Motion) [][]dual.OID {
	out := make([][]dual.OID, len(queries))
	for i, q := range queries {
		out[i] = bruteForce(nil, pop, q, nil)
	}
	return out
}

// querier is what checkExact asks: a cluster or one shard.
type querier interface {
	Query(ctx context.Context, q dual.MORQuery) ([]dual.OID, error)
}

// checkExact asks s every package query and requires want's answer (see
// exactAnswers) with no error.
func checkExact(ctx context.Context, s querier, want [][]dual.OID, tag string) error {
	for i, q := range queries {
		got, err := s.Query(ctx, q)
		if err != nil {
			return fmt.Errorf("%s: query %d: %w", tag, i, err)
		}
		if !slices.Equal(got, want[i]) {
			return fmt.Errorf("%s: query %d: %d oids, want %d (exact oracle)", tag, i, len(got), len(want[i]))
		}
	}
	return nil
}

// checkAnswer verifies the serving invariant for one routed answer: the
// missing set (empty on success) must be within the scenario's blast
// radius, and the results must be exactly the union of the partitions
// that served.
func checkAnswer(p *shard.Partitioner, ms []dual.Motion, q dual.MORQuery,
	got []dual.OID, err error, allowedDown map[int]bool) (degraded bool, _ error) {
	down := map[int]bool{}
	if err != nil {
		var pe *shard.PartialError
		if !errors.As(err, &pe) {
			return false, fmt.Errorf("query %+v: untyped failure %w", q, err)
		}
		if len(pe.Missing) == 0 || len(pe.Causes) != len(pe.Missing) {
			return false, fmt.Errorf("query %+v: malformed PartialError %v", q, pe)
		}
		for _, id := range pe.Missing {
			if !allowedDown[id] {
				return false, fmt.Errorf("query %+v: shard %d missing, outside blast radius", q, id)
			}
			down[id] = true
		}
	}
	want := bruteForce(p, ms, q, down)
	if !slices.Equal(got, want) {
		return len(down) > 0, fmt.Errorf("query %+v (down %v): got %d oids, want %d (union of healthy partitions)",
			q, down, len(got), len(want))
	}
	return len(down) > 0, nil
}

// RunScenario drives one topology through one scenario and returns the
// first contract violation (nil: the scenario held).
func RunScenario(topo Topology, sc Scenario) error {
	faults := make([]*pager.FaultStore, topo.Shards)
	c, err := shard.OpenCluster(shard.NewMemEnv(PageSize), shard.ClusterConfig{
		Terrain: terrain, Exec: core.NewExecutor(topo.Workers), Policy: sc.Policy,
		WrapStore: func(id int) func(pager.Store) pager.Store {
			return func(st pager.Store) pager.Store {
				faults[id] = pager.NewFaultStore(st, pager.FaultConfig{Seed: int64(1000 + id)})
				return faults[id]
			}
		},
	}, topo.Shards)
	if err != nil {
		return err
	}
	defer c.Close()
	r := c.Router()
	ctx := context.Background()

	// Load phase: clean, batched.
	ms := motions(192)
	ops := make([]shard.Op, len(ms))
	for i, m := range ms {
		ops[i] = shard.Op{Insert: true, M: m}
	}
	for i := 0; i < len(ops); i += 64 {
		end := i + 64
		if end > len(ops) {
			end = len(ops)
		}
		if err := r.Apply(ctx, ops[i:end]); err != nil {
			return fmt.Errorf("load: %w", err)
		}
	}

	// Baseline: every topology answers the oracle exactly before faults.
	for _, q := range queries {
		got, err := r.Query(ctx, q)
		if _, cerr := checkAnswer(r.Partitioner(), ms, q, got, err, nil); cerr != nil {
			return fmt.Errorf("baseline: %w", cerr)
		}
	}

	// Fault phase.
	if sc.Fault != nil {
		for id, fs := range faults {
			if cfg, ok := sc.Fault(topo.Shards, id); ok {
				fs.SetConfig(cfg)
			}
		}
	}
	allowedDown := map[int]bool{}
	if sc.ExpectDown != nil {
		for _, id := range sc.ExpectDown(topo.Shards) {
			allowedDown[id] = true
		}
	}
	if sc.WriteStorm {
		extra := []dual.Motion{
			{OID: 9001, Y0: 10, T0: 1, V: 0.5},
			{OID: 9002, Y0: 990, T0: 1, V: -0.5},
			{OID: 9003, Y0: 500, T0: 1, V: 0.3},
		}
		eops := make([]shard.Op, len(extra))
		for i, m := range extra {
			eops[i] = shard.Op{Insert: true, M: m}
		}
		err := r.Apply(ctx, eops)
		if topo.Shards == 1 && len(allowedDown) > 0 {
			// The whole cluster is the blast radius: the apply must fail
			// typed, and the motions must not be visible anywhere.
			var pe *shard.PartialError
			if !errors.As(err, &pe) {
				return fmt.Errorf("write storm on 1-shard cluster: err = %v, want PartialError", err)
			}
		} else {
			if len(allowedDown) > 0 {
				var pe *shard.PartialError
				if !errors.As(err, &pe) {
					return fmt.Errorf("write storm: err = %v, want PartialError", err)
				}
				for _, id := range pe.Missing {
					if !allowedDown[id] {
						return fmt.Errorf("write storm: shard %d failed, outside blast radius", id)
					}
					if !r.Shard(id).Health().Quarantined {
						return fmt.Errorf("write storm: failed shard %d not quarantined", id)
					}
				}
			} else if err != nil {
				return fmt.Errorf("write storm: %w", err)
			}
			// The survivors hold the extra motions; the union contract
			// accounts for the quarantined shard from here on.
			ms = append(ms, extra...)
		}
	}
	degraded := false
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			got, err := r.Query(ctx, q)
			d, cerr := checkAnswer(r.Partitioner(), ms, q, got, err, allowedDown)
			if cerr != nil {
				return fmt.Errorf("fault phase round %d: %w", round, cerr)
			}
			if d && sc.Cause != nil && !errors.Is(err, sc.Cause) {
				return fmt.Errorf("fault phase round %d: %v does not carry %v", round, err, sc.Cause)
			}
			degraded = degraded || d
		}
	}
	if sc.ExpectDegraded && !degraded {
		return errors.New("fault phase: expected at least one degraded answer, every query was full")
	}
	if sc.Fault != nil {
		var fired int64
		for _, fs := range faults {
			fired += fs.Counters().Total()
		}
		if fired == 0 {
			return errors.New("fault phase: the fault schedule never fired")
		}
	}
	if sc.ExpectDegraded && len(allowedDown) > 0 {
		if st := r.Stats(); st.FailedShards == 0 {
			return fmt.Errorf("fault phase: no shard call ever failed: %+v", st)
		}
	}

	// Heal phase: the storm passes, the cluster converges back to exact.
	if sc.Heal {
		for _, fs := range faults {
			fs.SetConfig(pager.FaultConfig{Seed: fs.Config().Seed})
		}
		if sc.HealWait > 0 {
			time.Sleep(sc.HealWait)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			allFull := true
			for _, q := range queries {
				got, err := r.Query(ctx, q)
				d, cerr := checkAnswer(r.Partitioner(), ms, q, got, err, allowedDown)
				if cerr != nil {
					return fmt.Errorf("heal phase: %w", cerr)
				}
				if d {
					allFull = false
				}
			}
			if allFull {
				break
			}
			if time.Now().After(deadline) {
				return errors.New("heal phase: answers still degraded after 5s")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}
