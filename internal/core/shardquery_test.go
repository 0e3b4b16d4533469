package core_test

import (
	"context"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/shard"
	"mobidx/internal/workload"
)

// BenchmarkShardQuery runs 1% queries (the paper's small mix) through the
// serving stack above this package: Router.Query on a two-band MemEnv
// cluster of 20 000 objects, each shard answering on a one-worker
// executor, as the benchmark deploys them. Its -benchmem B/op is what one
// routed query allocates: the shards' answers, the router's merge when a
// query spans both bands, and the fan-out's bookkeeping. MemEnv reads
// allocate nothing, so no page faults in.
func BenchmarkShardQuery(b *testing.B) {
	p := workload.DefaultParams(20000)
	sim, err := workload.NewSimulator(p)
	if err != nil {
		b.Fatal(err)
	}
	var ms []dual.Motion
	if err := sim.Bootstrap(func(op workload.Op) error { ms = append(ms, op.Motion); return nil }); err != nil {
		b.Fatal(err)
	}
	c, err := shard.OpenCluster(shard.NewMemEnv(4096), shard.ClusterConfig{
		Terrain: p.Terrain, C: 4, Codec: bptree.Compact, Exec: core.NewExecutor(1),
	}, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := c.Close(); err != nil {
			b.Error(err)
		}
	}()
	ctx := context.Background()
	if err := c.BulkLoad(ctx, ms); err != nil {
		b.Fatal(err)
	}
	r := c.Router()
	qs := sim.Queries(workload.SmallQueries())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Query(ctx, qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}
