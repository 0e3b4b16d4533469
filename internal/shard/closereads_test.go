package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

// TestShardCloseDuringReads closes a shard under live stalled reads —
// exactly what Cluster.Revive does to a wounded shard on a serving
// router. Every read against shard 0 stalls, so routed queries are in
// flight inside it when Close lands. The test is leakcheck-gated: no
// query goroutine may outlive its query (Close blocks on the serving
// latch until in-flight reads finish), and every answer must stay typed —
// full, or a *PartialError missing only the closed shard.
func TestShardCloseDuringReads(t *testing.T) {
	leakcheck.Check(t)
	r, faults := cluster(t, 2, 2, Policy{})
	ms := motions1D(128)
	if err := r.Apply(context.Background(), opsFor(ms)); err != nil {
		t.Fatal(err)
	}
	// Every read on shard 0 becomes a straggler: slow enough that queries
	// are caught inside it, fast enough that Close's latch wait stays
	// short.
	faults[0].SetConfig(pager.FaultConfig{
		Seed:  100,
		Read:  pager.OpFaults{FailEvery: 1},
		Stall: 2 * time.Millisecond,
	})

	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				_, err := r.Query(context.Background(), queries1D[i%len(queries1D)])
				if err == nil {
					continue
				}
				var pe *PartialError
				if !errors.As(err, &pe) {
					select {
					case errc <- fmt.Errorf("untyped query failure: %w", err):
					default:
					}
					return
				}
				for _, id := range pe.Missing {
					if id != 0 {
						select {
						case errc <- fmt.Errorf("shard %d missing, only 0 was closed: %w", id, err):
						default:
						}
						return
					}
				}
			}
		}()
	}

	// Wait until a read is actually stalled in shard 0, then close the
	// shard under it.
	deadline := time.Now().Add(5 * time.Second)
	for faults[0].Counters().Stalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no read ever stalled in shard 0")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := r.Shard(0).Close(); err != nil {
		t.Errorf("close under stalled reads: %v", err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if h := r.Shard(0).Health(); h.Healthy {
		t.Fatalf("closed shard reports healthy: %+v", h)
	}
	// The surviving shard keeps serving; the closed one degrades typed.
	_, err := r.Query(context.Background(), queries1D[1])
	var pe *PartialError
	if err != nil && !errors.As(err, &pe) {
		t.Fatalf("post-close query: untyped failure %v", err)
	}
}
