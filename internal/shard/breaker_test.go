package shard

import (
	"context"
	"errors"
	"testing"
	"time"

	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

// TestRouterAbandonedProbeRearms: a half-open breaker whose probe's caller
// gives up before the shard answers must hand the probe slot back. Were it
// kept, no later call could probe, and the band would be skipped as
// "breaker open" forever after the shard healed.
func TestRouterAbandonedProbeRearms(t *testing.T) {
	leakcheck.Check(t)
	r, faults := cluster(t, 2, 2, Policy{BreakAfter: 1, OpenFor: time.Millisecond})
	ms := motions1D(128)
	if err := r.Apply(context.Background(), opsFor(ms)); err != nil {
		t.Fatal(err)
	}
	q := queries1D[1] // full-terrain sweep: targets both bands
	want := fingerprint(bruteForce(r.Partitioner(), ms, q, nil))

	// One permanent read fault on shard 0 opens its breaker.
	faults[0].SetConfig(pager.FaultConfig{Seed: 100, Read: pager.OpFaults{FailEvery: 1}, MaxFaults: 1})
	if _, err := r.Query(context.Background(), q); err == nil {
		t.Fatal("query over a failing shard fully succeeded")
	}
	if st := r.Stats(); st.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", st.BreakerOpens)
	}

	// Past the open window, the next call is the probe; its caller's
	// deadline expires inside a stalled read.
	time.Sleep(5 * time.Millisecond)
	faults[0].SetConfig(pager.FaultConfig{Seed: 100, Read: pager.OpFaults{FailEvery: 1}, Stall: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	_, err := r.Query(ctx, q)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("probe query: err = %v, want DeadlineExceeded", err)
	}

	// Healed: the next call probes, succeeds and closes the breaker.
	faults[0].SetConfig(pager.FaultConfig{Seed: 100})
	for i := 0; i < 3; i++ {
		got, err := r.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d after heal: %v", i, err)
		}
		if fingerprint(got) != want {
			t.Fatalf("query %d after heal: answer differs from the oracle", i)
		}
	}
	if d := r.Degraded(); len(d) != 0 {
		t.Fatalf("Degraded() after heal = %v, want none", d)
	}
}

// TestRouterZeroPolicyBreaker pins the breaker every workload serves with,
// the zero Policy's: it opens after 4 consecutive failed calls, skips the
// shard for 500ms, then admits exactly one probe, whose outcome reopens or
// closes it. The router's clock is driven by hand.
func TestRouterZeroPolicyBreaker(t *testing.T) {
	r, faults := cluster(t, 2, 1, Policy{})
	clock := time.Unix(1000, 0)
	r.now = func() time.Time { return clock }
	if err := r.Apply(context.Background(), opsFor(motions1D(128))); err != nil {
		t.Fatal(err)
	}
	q := queries1D[1] // full-terrain sweep: targets both bands
	query := func(cause error) {
		t.Helper()
		_, err := r.Query(context.Background(), q)
		var pe *PartialError
		if !errors.As(err, &pe) || len(pe.Missing) != 1 || pe.Missing[0] != 0 || !errors.Is(pe, cause) {
			t.Fatalf("err = %v, want shard 0 missing with cause %v", err, cause)
		}
	}
	degraded := func(want ...int) {
		t.Helper()
		if d := r.Degraded(); len(d) != len(want) || (len(d) == 1 && d[0] != want[0]) {
			t.Fatalf("Degraded() = %v, want %v", d, want)
		}
	}

	faults[0].SetConfig(pager.FaultConfig{Seed: 100, Read: pager.OpFaults{FailEvery: 1}})
	for i := 1; i <= 4; i++ {
		query(pager.ErrInjected)
		if got, want := r.Stats().BreakerOpens, int64(i/4); got != want {
			t.Fatalf("after %d failed calls BreakerOpens = %d, want %d", i, got, want)
		}
	}
	degraded(0)

	// Open: shard 0 is skipped without a call until 500ms have passed.
	clock = clock.Add(500*time.Millisecond - time.Nanosecond)
	calls := r.Stats().ShardCalls
	query(ErrShardDown)
	if st := r.Stats(); st.ShardCalls != calls+1 || st.BreakerSkips != 1 {
		t.Fatalf("open breaker: %+v, want shard 0 skipped and only shard 1 called", st)
	}

	// Half-open: one probe is admitted, every call beside it is skipped.
	clock = clock.Add(time.Nanosecond)
	b := r.topo.brk[0]
	if !b.allow(clock) || b.allow(clock) {
		t.Fatal("half-open breaker did not admit exactly one probe")
	}
	degraded(0)
	b.release()

	// A failed probe reopens the breaker for another 500ms.
	query(pager.ErrInjected)
	if got := r.Stats().BreakerOpens; got != 2 {
		t.Fatalf("failed probe: BreakerOpens = %d, want 2", got)
	}
	query(ErrShardDown)

	// A served probe closes it.
	faults[0].SetConfig(pager.FaultConfig{Seed: 100})
	clock = clock.Add(500 * time.Millisecond)
	if _, err := r.Query(context.Background(), q); err != nil {
		t.Fatalf("probe after heal: %v", err)
	}
	degraded()
}
