package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mobidx/internal/dual"
	"mobidx/internal/shard"
	"mobidx/internal/subscribe"
)

// lane is what one closed-loop client measured in one phase: a latency
// per call, the work items those calls completed, and how many failed. A
// call that returns an error or a *shard.PartialError is a failed call.
type lane struct {
	lat      []time.Duration
	items    int64
	failed   int64
	elapsed  time.Duration // first call issued → last call returned
	firstErr error
}

func (l *lane) record(d time.Duration, items int, err error) {
	l.lat = append(l.lat, d)
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	l.items += int64(items)
}

func (l *lane) calls() int64 { return int64(len(l.lat)) }

// add appends a later phase of the same client to the lane.
func (l *lane) add(next *lane) {
	l.lat = append(l.lat, next.lat...)
	l.items += next.items
	l.failed += next.failed
	l.elapsed += next.elapsed
	if l.firstErr == nil {
		l.firstErr = next.firstErr
	}
}

// perSecond is the lane's completed work items over its own elapsed time.
func (l *lane) perSecond() float64 { return ratio(float64(l.items), l.elapsed.Seconds()) }

// client is one closed loop: step issues the next call when the previous
// one has returned, records it in l, and reports done when the workload's
// fixed sequence is exhausted (only the split client ever is).
type client interface {
	step(ctx context.Context, l *lane) (done bool)
}

// runClients drives each client in its own goroutine until the window has
// passed (window > 0) or a client reports done, and returns one lane per
// client. A call in flight at the deadline completes and is counted, so a
// lane's rate uses its own elapsed time.
func runClients(ctx context.Context, window time.Duration, clients ...client) []*lane {
	lanes := make([]*lane, len(clients))
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range clients {
		lanes[i] = &lane{lat: make([]time.Duration, 0, 1<<14)}
		wg.Add(1)
		go func(c client, l *lane) {
			defer wg.Done()
			for !stop.Load() && (window <= 0 || time.Since(start) < window) {
				if c.step(ctx, l) {
					stop.Store(true)
				}
			}
			l.elapsed = time.Since(start)
		}(c, lanes[i])
	}
	wg.Wait()
	return lanes
}

// clock publishes the scenario time at which the index last matched the
// generator's state, for query clients on other goroutines.
type clock struct{ bits atomic.Uint64 }

func (c *clock) set(t float64) { c.bits.Store(math.Float64bits(t)) }
func (c *clock) get() float64  { return math.Float64frombits(c.bits.Load()) }

// sampledAnswer is a query answered inside the window, kept so it can be
// checked against the oracle once the clients have stopped.
type sampledAnswer struct {
	q   dual.MORQuery
	ids []dual.OID
}

// queryClient issues one query per step at the published scenario time.
// With keepEvery > 0 it keeps every keepEvery-th answer — only sound
// while nothing mutates the index, so only read-only workloads set it.
type queryClient struct {
	dep       *deployment
	gen       *queryGen
	clk       *clock
	keepEvery int
	issued    int
	kept      []sampledAnswer
}

func (c *queryClient) step(ctx context.Context, l *lane) bool {
	q := c.gen.next(c.clk.get())
	t0 := time.Now()
	ids, err := c.dep.Query(ctx, q)
	l.record(time.Since(t0), 1, err)
	c.issued++
	if c.keepEvery > 0 && err == nil && c.issued%c.keepEvery == 0 {
		c.kept = append(c.kept, sampledAnswer{q: q, ids: ids})
	}
	return false
}

// updateClient plays the paper's update model: it ticks the simulator and
// applies the tick's ops updatesPerCall motion updates at a time, each
// Apply one WAL batch. Only the Apply is timed; ticking is the generator.
type updateClient struct {
	dep     *deployment
	scn     *scenario
	clk     *clock
	tickOps []shard.Op
	pending []shard.Op
}

func (c *updateClient) step(ctx context.Context, l *lane) bool {
	if len(c.pending) == 0 {
		// Every op of the previous tick is applied: index and generator
		// agree, so queries may move to the generator's time.
		c.clk.set(c.scn.now())
		var err error
		c.tickOps, err = c.scn.tick(c.tickOps[:0])
		if err != nil {
			l.record(0, 0, err)
			return false
		}
		c.pending = c.tickOps
	}
	n := 2 * updatesPerCall
	if n > len(c.pending) {
		n = len(c.pending)
	}
	batch := c.pending[:n]
	c.pending = c.pending[n:]
	t0 := time.Now()
	err := c.dep.Apply(ctx, batch)
	l.record(time.Since(t0), n/2, err)
	return false
}

// flush applies what is left of a half-applied tick, unmeasured, so the
// index matches the generator again before the oracle checks.
func (c *updateClient) flush(ctx context.Context) error {
	pending := c.pending
	c.pending = nil
	c.clk.set(c.scn.now())
	if len(pending) == 0 {
		return nil
	}
	return c.dep.Apply(ctx, pending)
}

// feedClient plays the subscription feed: one Apply with the whole tick
// (one fsync per shard), then the clock advance that fires certificates,
// then a drain of every standing query.
//
// The feed is an open loop: position reports arrive on the clock, so a
// tick is due every feedPeriod whether or not the last one is done, and its
// latency runs from when it was due to the last delta drained — a feed
// that falls behind pays the backlog. (Fed back to back, the feed kept
// the query client waiting for the shards' write latches about two thirds
// of the window — 128 000 calls of 20 µs in 10 s — and what was left for
// it wandered a third apart between identical runs.)
type feedClient struct {
	dep     *deployment
	scn     *scenario
	clk     *clock
	subs    []subscribe.SubID
	due     time.Time // of the next tick; zero before a phase's first
	tickOps []shard.Op
	deltas  int64
	late    []time.Duration // how long after it was due each tick started
}

// rest forgets the schedule and how late the ticks so far ran, so the next
// phase's first tick is due when the phase gets to it and not since the
// last phase ended.
func (c *feedClient) rest() { c.due, c.late = time.Time{}, c.late[:0] }

func (c *feedClient) step(ctx context.Context, l *lane) bool {
	var err error
	c.tickOps, err = c.scn.tick(c.tickOps[:0])
	if err != nil {
		l.record(0, 0, err)
		return false
	}
	if c.due.IsZero() {
		c.due = time.Now()
	}
	time.Sleep(time.Until(c.due))
	c.late = append(c.late, time.Since(c.due))
	err = c.feed(ctx)
	l.record(time.Since(c.due), len(c.tickOps)/2, err)
	c.due = c.due.Add(feedPeriod)
	c.clk.set(c.scn.now())
	return false
}

func (c *feedClient) feed(ctx context.Context) error {
	if err := c.dep.Apply(ctx, c.tickOps); err != nil {
		return err
	}
	if err := c.dep.router.AdvanceSubs(c.scn.now()); err != nil {
		return err
	}
	for _, id := range c.subs {
		ds, err := c.dep.router.DrainSubs(id)
		if err != nil {
			return err
		}
		c.deltas += int64(len(ds))
	}
	return nil
}

// splitClient runs the fixed split sequence, one Cluster.Split per step,
// and ends the phase after the last.
type splitClient struct {
	dep  *deployment
	next int
}

func (c *splitClient) step(ctx context.Context, l *lane) bool {
	if c.next >= len(splitCuts) {
		return true
	}
	t0 := time.Now()
	err := c.dep.split(ctx, splitCuts[c.next])
	l.record(time.Since(t0), 1, err)
	c.next++
	return c.next >= len(splitCuts)
}
