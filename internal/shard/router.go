package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/subscribe"
)

// Policy is the router's per-shard circuit breaker. A query makes one
// attempt against each shard it targets: nothing retries, hedges or bounds
// a shard call beyond the caller's own context, and a shard that fails, or
// whose breaker is open, degrades the answer (see Query). The zero value
// opens a shard's breaker after 4 consecutive failed calls and lets one
// probe through 500ms later.
type Policy struct {
	// BreakAfter consecutive failed calls open the shard's circuit
	// breaker (0 selects 4). While open, queries skip the shard at once
	// and degrade.
	BreakAfter int
	// OpenFor is how long an opened breaker rejects before letting one
	// probe through (half-open); the probe's outcome closes or re-opens
	// it. Zero selects 500ms.
	OpenFor time.Duration
}

func (p Policy) breakAfter() int {
	if p.BreakAfter <= 0 {
		return 4
	}
	return p.BreakAfter
}

func (p Policy) openFor() time.Duration {
	if p.OpenFor <= 0 {
		return 500 * time.Millisecond
	}
	return p.OpenFor
}

// PartialError reports a degraded call. For a query, the answer is exact
// over the partitions that served, and these are the ones that did not;
// for a write, these shards did not apply their batch. It is returned
// alongside the partial results; callers that can live with a degraded
// answer detect it with errors.As, everyone else treats it as the failure
// it also is.
type PartialError struct {
	// Missing lists the shard ids (bands) absent from the answer,
	// ascending.
	Missing []int
	// Causes holds each missing shard's final error, parallel to Missing.
	Causes []error
}

// Error implements error.
func (e *PartialError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard: partial answer, %d partition(s) missing:", len(e.Missing))
	for i, id := range e.Missing {
		fmt.Fprintf(&b, " [%d: %v]", id, e.Causes[i])
	}
	return b.String()
}

// Unwrap exposes the per-shard causes to errors.Is/As chains.
func (e *PartialError) Unwrap() []error { return e.Causes }

// Stats counts the router's failure-policy traffic.
type Stats struct {
	Queries      int64 // Query calls
	ShardCalls   int64 // query calls against shards
	BreakerSkips int64 // shard calls skipped by an open breaker
	BreakerOpens int64 // closed/half-open → open transitions
	Partial      int64 // queries answered degraded
	FailedShards int64 // shard calls that failed
	Revived      int64 // shards swapped back in by ReplaceShard (recovery)
}

// breaker is one shard's circuit breaker: closed (normal), open
// (rejecting), half-open (one probe in flight).
type breaker struct {
	mu        sync.Mutex
	fails     int
	state     int // 0 closed, 1 open, 2 half-open
	openUntil time.Time
}

const (
	brkClosed = iota
	brkOpen
	brkHalfOpen
)

// allow reports whether a call may proceed, transitioning open→half-open
// when the rejection window has passed (the caller becomes the probe).
func (b *breaker) allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case brkClosed:
		return true
	case brkOpen:
		if now.Before(b.openUntil) {
			return false
		}
		b.state = brkHalfOpen
		return true
	default: // half-open: one probe at a time
		return false
	}
}

// success records a served call; any state collapses back to closed.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.state = brkClosed
}

// release hands back the probe slot of a call that ended without an
// outcome (its caller gave up): a half-open breaker reopens with its
// window already passed, so the next call probes.
func (b *breaker) release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == brkHalfOpen {
		b.state = brkOpen
	}
}

// failure records a failed call; returns true when this transition opened
// the breaker.
func (b *breaker) failure(now time.Time, pol Policy) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.state == brkHalfOpen || b.fails >= pol.breakAfter() {
		b.state = brkOpen
		b.openUntil = now.Add(pol.openFor())
		return true
	}
	return false
}

// topology is one immutable generation of the router's world: the space
// partitioner plus the shard and breaker owning each band. A rebalance or
// a revive builds a fresh topology value and installs it under the write
// half of topoMu — queries and writes hold the read half for their whole
// call, so every operation sees exactly one generation and a topology
// swap doubles as the migration's quiesce barrier.
type topology struct {
	part   *Partitioner
	shards []*Shard
	brk    []*breaker
}

// Router owns a cluster of shards and serves MOR queries and motion
// batches across them under the failure policy. It is safe for
// concurrent use.
type Router struct {
	topoMu sync.RWMutex
	topo   topology

	// terrain is the one terrain every shard indexes: writes are validated
	// against it before any latch.
	terrain dual.Terrain

	exec   *core.Executor
	policy Policy
	now    func() time.Time

	// The cluster's one continuous-query engine and its feed latch; under
	// subMu, the standing queries and the shards the engine no longer
	// vouches for, with why (see subrouter.go).
	subs     *subscribe.Engine
	feedMu   sync.RWMutex
	subMu    sync.Mutex
	standing map[subscribe.SubID]*routerSub
	stale    map[*Shard]error

	stQueries      atomic.Int64
	stShardCalls   atomic.Int64
	stBreakerSkips atomic.Int64
	stBreakerOpens atomic.Int64
	stPartial      atomic.Int64
	stFailedShards atomic.Int64
	stRevived      atomic.Int64
}

// NewRouter assembles a router over the shards; shard i must own band i
// of the partitioner. exec bounds the fan-out concurrency (nil selects a
// GOMAXPROCS-bounded executor).
func NewRouter(shards []*Shard, part *Partitioner, exec *core.Executor, policy Policy) (*Router, error) {
	if part == nil {
		return nil, errors.New("shard: router needs a partitioner")
	}
	if len(shards) != part.N() {
		return nil, fmt.Errorf("shard: %d shards for %d bands", len(shards), part.N())
	}
	for _, s := range shards[1:] {
		if s.terrain != shards[0].terrain {
			return nil, fmt.Errorf("shard: shard %d indexes terrain %+v, shard %d %+v",
				s.id, s.terrain, shards[0].id, shards[0].terrain)
		}
	}
	if exec == nil {
		exec = core.NewExecutor(0)
	}
	brk := make([]*breaker, len(shards))
	for i := range brk {
		brk[i] = &breaker{}
	}
	subs, err := subscribe.New(subscribe.Config{})
	if err != nil {
		return nil, fmt.Errorf("shard: subscription engine: %w", err)
	}
	return &Router{
		topo:     topology{part: part, shards: shards, brk: brk},
		terrain:  shards[0].terrain,
		exec:     exec,
		policy:   policy,
		now:      time.Now,
		subs:     subs,
		standing: make(map[subscribe.SubID]*routerSub),
		stale:    make(map[*Shard]error),
	}, nil
}

// Partitioner returns the router's current space partitioner.
func (r *Router) Partitioner() *Partitioner {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	return r.topo.part
}

// Shard returns the shard serving band i in the current topology (nil if
// the band does not exist), for health inspection.
func (r *Router) Shard(i int) *Shard {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	if i < 0 || i >= len(r.topo.shards) {
		return nil
	}
	return r.topo.shards[i]
}

// ReplaceShard installs s as the server for band i, resetting the band's
// circuit breaker so the revived shard does not inherit the dead one's
// tripped state, and returns the shard it replaced (the caller owns
// closing it). It waits for in-flight operations against the old topology
// to drain, so no query observes the swap halfway. Standing queries are
// then re-evaluated against what the shards hold (see reseedSubs) with
// the topology latch shared again, so queries flow during the catalog
// reads; the replaced shard stays marked stale until then, so no
// subscription answers from before the swap.
func (r *Router) ReplaceShard(i int, s *Shard) (*Shard, error) {
	r.topoMu.Lock()
	if i < 0 || i >= len(r.topo.shards) {
		n := len(r.topo.shards)
		r.topoMu.Unlock()
		return nil, fmt.Errorf("shard: replace band %d of %d", i, n)
	}
	old := r.topo.shards[i]
	shards := append([]*Shard(nil), r.topo.shards...)
	brk := append([]*breaker(nil), r.topo.brk...)
	shards[i] = s
	brk[i] = &breaker{}
	r.markStale(r.topo, []int{i}, errors.New("replaced"))
	r.topo = topology{part: r.topo.part, shards: shards, brk: brk}
	r.stRevived.Add(1)
	r.topoMu.Unlock()
	r.reseedSubs()
	return old, nil
}

// snapshot returns the current topology generation.
func (r *Router) snapshot() topology {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	return r.topo
}

// swapTopology runs fn with the current topology under the exclusive
// lock — every in-flight query and write has drained, none can start —
// and installs the returned one. fn returning an error leaves the old
// topology in place. This is the migration flip's quiesce barrier; fn
// must be short (delta catch-up plus manifest flip), as the whole cluster
// blocks while it runs. A swap made while a band is stale reseeds the
// subscription engine afterwards, with the latch shared again.
func (r *Router) swapTopology(fn func(old topology) (topology, error)) error {
	r.topoMu.Lock()
	next, err := fn(r.topo)
	if err == nil && (next.part == nil || len(next.shards) != next.part.N() || len(next.brk) != next.part.N()) {
		err = fmt.Errorf("shard: swap to inconsistent topology (%d shards, %d breakers, %d bands)",
			len(next.shards), len(next.brk), next.part.N())
	}
	if err != nil {
		r.topoMu.Unlock()
		return err
	}
	r.topo = next
	r.topoMu.Unlock()
	r.subMu.Lock()
	stale := len(r.stale) > 0
	r.subMu.Unlock()
	if stale {
		r.reseedSubs()
	}
	return nil
}

// Stats returns a snapshot of the failure-policy counters.
func (r *Router) Stats() Stats {
	return Stats{
		Queries:      r.stQueries.Load(),
		ShardCalls:   r.stShardCalls.Load(),
		BreakerSkips: r.stBreakerSkips.Load(),
		BreakerOpens: r.stBreakerOpens.Load(),
		Partial:      r.stPartial.Load(),
		FailedShards: r.stFailedShards.Load(),
		Revived:      r.stRevived.Load(),
	}
}

// Query fans q to every shard whose band overlaps it, makes one attempt
// per shard under its breaker, and merges the per-shard answers into one
// sorted, deduplicated slice — byte-identical to the same query against a
// single unsharded index when every shard serves. A shard that fails or
// is skipped by its breaker degrades the answer instead of failing it:
// the results cover exactly the partitions that served and the returned
// error is a *PartialError naming the missing ones. The caller's own
// context giving up fails the whole query.
func (r *Router) Query(ctx context.Context, q dual.MORQuery) ([]dual.OID, error) {
	// Refused before any shard, breaker or PartialError sees it.
	if err := core.ValidateQuery(q); err != nil {
		return nil, err
	}
	r.stQueries.Add(1)
	// The read lock pins one topology generation for the whole query: a
	// concurrent migration flip waits for us (and we never see its half).
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	targets := r.topo.part.Overlapping(q)
	buckets := make([][]dual.OID, len(targets))
	err := r.fanOut(ctx, targets, func(k, si int) (err error) {
		buckets[k], err = r.queryShard(ctx, si, q)
		return err
	})
	switch err.(type) {
	case nil:
	case *PartialError:
		r.stPartial.Add(1)
	default:
		return nil, err
	}
	return core.MergeOIDs(buckets), err
}

// fanOut runs task(k, ids[k]) for every position k of ids, the shards a
// call touches, on the router's executor: up to its worker bound at once,
// and on a one-worker executor one after another, in order, on the
// calling goroutine. A failed task does not stop the others: the shards
// whose task failed come back in a *PartialError, ascending, each with
// its cause. Only the caller's own context giving up fails the whole call.
func (r *Router) fanOut(ctx context.Context, ids []int, task func(k, si int) error) error {
	failures := make([]error, len(ids))
	tasks := make([]func() error, len(ids))
	for k, si := range ids {
		tasks[k] = func() error {
			err := task(k, si)
			if err != nil && isCallerCtxErr(ctx, err) {
				return err
			}
			failures[k] = err
			return nil
		}
	}
	if err := r.exec.RunCtx(ctx, tasks); err != nil {
		return err
	}
	var pe *PartialError
	for k, err := range failures {
		if err != nil {
			if pe == nil {
				pe = &PartialError{}
			}
			pe.Missing = append(pe.Missing, ids[k])
			pe.Causes = append(pe.Causes, err)
		}
	}
	if pe == nil {
		return nil
	}
	return pe
}

// isCallerCtxErr reports whether err is the caller's own context giving
// up — that must fail the call, not degrade it (the caller is gone).
func isCallerCtxErr(ctx context.Context, err error) bool {
	return ctx.Err() != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// queryShard is shard si's share of a query: breaker gate, health gate,
// one s.Query. A failure is charged to the breaker; a call whose caller
// gave up records no outcome and hands a probe slot back. The caller holds
// topoMu shared.
func (r *Router) queryShard(ctx context.Context, si int, q dual.MORQuery) ([]dual.OID, error) {
	b := r.topo.brk[si]
	if !b.allow(r.now()) {
		r.stBreakerSkips.Add(1)
		return nil, fmt.Errorf("shard %d: breaker open: %w", si, ErrShardDown)
	}
	s := r.topo.shards[si]
	r.stShardCalls.Add(1)
	var err error
	if h := s.Health(); !h.Healthy {
		err = h.Err
		if err == nil {
			err = ErrShardDown
		}
		err = fmt.Errorf("shard %d unhealthy: %w", si, err)
	} else {
		res, qerr := s.Query(ctx, q)
		if qerr == nil {
			b.success()
			return res, nil
		}
		if ctx.Err() != nil {
			// The caller's context expired (the error may be the shard
			// echoing it); stop without charging the shard.
			b.release()
			return nil, ctx.Err()
		}
		err = fmt.Errorf("shard %d: %w", si, qerr)
	}
	if b.failure(r.now(), r.policy) {
		r.stBreakerOpens.Add(1)
	}
	r.stFailedShards.Add(1)
	return nil, err
}

// Apply routes each op to every shard whose bands its motion touches and
// applies the per-shard batches through writeShards, each as one atomic
// WAL batch. A batch holding a motion the index cannot take
// (core.ValidateMotion) is refused whole, with that error, before any
// latch, shard or feed sees it. Writes do not degrade: a failed shard
// batch quarantines that shard (see Shard.Apply) and Apply reports it in
// a *PartialError — the surviving shards applied their batches, the
// named partitions did not, and reads will degrade around them from now
// on. With standing queries, the ops some shard committed are then fed to
// the subscription engine once, with every shard latch released (see
// feedApply). Writers share the feed latch: two concurrent Applies of one
// object have no defined order, on its replicas or in the engine.
func (r *Router) Apply(ctx context.Context, ops []Op) error {
	for _, op := range ops {
		if err := core.ValidateMotion(op.M, r.terrain); err != nil {
			return err
		}
	}
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	topo := r.topo
	perShard := make([][]Op, len(topo.shards))
	for _, op := range ops {
		for _, si := range topo.part.Assign(op.M) {
			perShard[si] = append(perShard[si], op)
		}
	}
	writes := make([]func() error, len(perShard))
	for si, batch := range perShard {
		if len(batch) > 0 {
			s, batch := topo.shards[si], batch
			writes[si] = func() error { return s.Apply(ctx, batch) }
		}
	}
	r.feedMu.RLock()
	defer r.feedMu.RUnlock()
	ok, err := r.writeShards(ctx, writes)
	if r.subs.Subs() > 0 {
		r.feedApply(topo, ops, writes, ok, err)
	}
	return err
}

// BulkLoad splits ms by band assignment and bulk-loads every shard
// through writeShards, each as one atomic batch. An invalid motion is
// refused as in Apply. Any failure is returned as a *PartialError
// (failed shards are quarantined). With standing queries, the engine then
// resets to ms, emitting the net transitions (see feedBulkLoad).
func (r *Router) BulkLoad(ctx context.Context, ms []dual.Motion) error {
	for _, m := range ms {
		if err := core.ValidateMotion(m, r.terrain); err != nil {
			return err
		}
	}
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	topo := r.topo
	perShard := make([][]dual.Motion, len(topo.shards))
	for _, m := range ms {
		for _, si := range topo.part.Assign(m) {
			perShard[si] = append(perShard[si], m)
		}
	}
	writes := make([]func() error, len(perShard))
	for si, part := range perShard {
		s, part := topo.shards[si], part
		writes[si] = func() error { return s.BulkLoad(ctx, part) }
	}
	r.feedMu.RLock()
	defer r.feedMu.RUnlock()
	ok, err := r.writeShards(ctx, writes)
	if r.subs.Subs() > 0 {
		r.feedBulkLoad(topo, ms, writes, ok, err)
	}
	return err
}

// writeShards runs each shard's write (nil: that shard has none) through
// fanOut. It reports which writes committed, and the shards whose write
// failed in a *PartialError.
func (r *Router) writeShards(ctx context.Context, writes []func() error) ([]bool, error) {
	ok := make([]bool, len(writes))
	var ids []int
	for si, w := range writes {
		if w != nil {
			ids = append(ids, si)
		}
	}
	err := r.fanOut(ctx, ids, func(_, si int) error {
		if err := writes[si](); err != nil {
			return err
		}
		ok[si] = true
		return nil
	})
	return ok, err
}

// Degraded reports which shards are currently not serving (unhealthy,
// breaker open, or half-open awaiting its probe), for operational
// visibility.
func (r *Router) Degraded() []int {
	r.topoMu.RLock()
	defer r.topoMu.RUnlock()
	now := r.now()
	var out []int
	for i, s := range r.topo.shards {
		b := r.topo.brk[i]
		b.mu.Lock()
		open := b.state == brkHalfOpen || (b.state == brkOpen && now.Before(b.openUntil))
		b.mu.Unlock()
		if open || !s.Health().Healthy {
			out = append(out, i)
		}
	}
	return out
}

// Close shuts every shard and the subscription engine down.
func (r *Router) Close() error {
	r.topoMu.Lock()
	defer r.topoMu.Unlock()
	errs := []error{r.subs.Close()}
	for _, s := range r.topo.shards {
		if err := s.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// NewCluster builds n shards from the config template (tmpl.ID and
// tmpl.WrapStore are overwritten per shard) plus the matching partitioner
// and router — the one-call constructor serving code and tests use. wrap,
// when non-nil, is called with each shard's id to produce that shard's
// store wrapper (return nil to leave a shard unwrapped), which is how the
// chaos harness gets a fault injector under exactly the shards it wants
// to hurt.
func NewCluster(tmpl Config, n int, exec *core.Executor, policy Policy, wrap func(id int) func(pager.Store) pager.Store) (*Router, error) {
	part, err := NewPartitioner(tmpl.Terrain.YMax, n)
	if err != nil {
		return nil, err
	}
	shards := make([]*Shard, n)
	for i := 0; i < n; i++ {
		cfg := tmpl
		cfg.ID = i
		cfg.WrapStore = nil
		if wrap != nil {
			cfg.WrapStore = wrap(i)
		}
		s, err := New(cfg)
		if err != nil {
			for _, prev := range shards[:i] {
				err = errors.Join(err, prev.Close())
			}
			return nil, err
		}
		shards[i] = s
	}
	r, err := NewRouter(shards, part, exec, policy)
	if err != nil {
		for _, s := range shards {
			err = errors.Join(err, s.Close())
		}
		return nil, err
	}
	return r, nil
}
