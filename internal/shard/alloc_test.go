package shard

import (
	"context"
	"runtime"
	"testing"

	"mobidx/internal/dual"
)

// bytesPerCall reports the bytes (runtime.MemStats.TotalAlloc) one call of
// f allocates on average, after warm-up calls have filled the pooled query
// scratch, on one P so the scratch a call releases is the next one's.
func bytesPerCall(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 50
	for i := 0; i < 3; i++ {
		f()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / runs
}

// TestRouterQueryNoSecondCopy: on a one-band MemEnv cluster, a routed query
// allocates what the shard's own Query does plus the fan-out's fixed
// bookkeeping — the shard's sorted, deduplicated answer is returned as is,
// not copied and sorted again.
func TestRouterQueryNoSecondCopy(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop query scratches at random")
	}
	c, err := OpenCluster(NewMemEnv(4096), ClusterConfig{Terrain: testTerrain()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	}()
	ctx := context.Background()
	if err := c.BulkLoad(ctx, clusterMotions(4000)); err != nil {
		t.Fatal(err)
	}
	r := c.Router()
	s := r.snapshot().shards[0]
	q := dual.MORQuery{Y1: 0, Y2: 1000, T1: 0, T2: 5}
	var n int
	shardBytes := bytesPerCall(func() {
		ids, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		n = len(ids)
	})
	routerBytes := bytesPerCall(func() {
		ids, err := r.Query(ctx, q)
		if err != nil || len(ids) != n {
			t.Fatalf("router: %d answers, %v; shard: %d", len(ids), err, n)
		}
	})
	if n < 2000 {
		t.Fatalf("the query answers %d OIDs: too few to tell a copy from bookkeeping", n)
	}
	const fanOutBytes = 1024
	if extra := routerBytes - shardBytes; extra > fanOutBytes {
		t.Errorf("router allocates %.0f B per query over the shard's %.0f B for %d answers (%d B): want <= %d",
			extra, shardBytes, n, 8*n, fanOutBytes)
	}
	t.Logf("%d answers: shard %.0f B, router %.0f B per query", n, shardBytes, routerBytes)
}
