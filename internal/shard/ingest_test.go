package shard

import (
	"context"
	"strings"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

// tinyIngest forces freezes and merges every few batches, so the
// differential and recovery tests constantly observe mid-flush states.
func tinyIngest() *IngestConfig {
	return &IngestConfig{MemtableFlush: 24, MaxRuns: 2}
}

// ingestCluster routes over n ingest shards on fresh in-memory media,
// built the way a deployment without a cluster manifest builds them:
// Open each band's shard, then NewRouter over the equal-band partitioner.
// The router is closed when the test ends.
func ingestCluster(t testing.TB, n, workers int) *Router {
	t.Helper()
	part, err := NewPartitioner(terrain1D.YMax, n)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]*Shard, n)
	for i := range shards {
		if shards[i], err = openMem(Config{ID: i, Terrain: terrain1D, Ingest: tinyIngest()}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shards[i].Close() })
	}
	r, err := NewRouter(shards, part, core.NewExecutor(workers), Policy{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestShardIngestDifferentialWorkload is the ingest-tier sharding gate:
// the §5 simulator drives an unsharded flat oracle, a single ingest
// shard, and ingest-tier routed clusters of 1 and 4 shards in lockstep;
// every query at every tick must be byte-identical across all of them at
// worker counts 1, 2 and 8 — including the many states where the tier
// holds frozen runs and a partially filled memtable.
func TestShardIngestDifferentialWorkload(t *testing.T) {
	leakcheck.Check(t)
	sim, err := workload.NewSimulator(workload.Params{
		N: 250, Seed: 77, Terrain: terrain1D, UpdatesPerTick: 40, Ticks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle := newOracle(t)
	single, err := openMem(Config{Terrain: terrain1D, Ingest: tinyIngest()})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	routers := map[string]*Router{}
	for _, topo := range []struct {
		name    string
		shards  int
		workers int
	}{
		{"1shard-1w", 1, 1}, {"1shard-8w", 1, 8},
		{"4shard-1w", 4, 1}, {"4shard-2w", 4, 2}, {"4shard-8w", 4, 8},
	} {
		routers[topo.name] = ingestCluster(t, topo.shards, topo.workers)
	}
	ctx := context.Background()
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
		if err := single.Apply(ctx, ops); err != nil {
			return err
		}
		for _, r := range routers {
			if err := r.Apply(ctx, ops); err != nil {
				return err
			}
		}
		return nil
	}
	if err := sim.Bootstrap(apply); err != nil {
		t.Fatal(err)
	}
	seqExec := core.NewExecutor(1)
	check := func() {
		t.Helper()
		for _, q := range sim.Queries(workload.QueryMix{PerSlot: 4, YQMax: 300, TW: 60}) {
			seq, err := oracle.QueryParallelCtx(ctx, seqExec, q)
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(seq)
			got, err := single.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(got) != want {
				t.Fatalf("single ingest shard diverges on %+v: %q vs %q (stats %+v)",
					q, fingerprint(got), want, single.tier.Stats())
			}
			for name, r := range routers {
				res, err := r.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if fingerprint(res) != want {
					t.Fatalf("%s diverges on %+v: %q vs %q", name, q, fingerprint(res), want)
				}
			}
		}
	}
	check()
	for tick := 0; tick < sim.Params().Ticks; tick++ {
		if err := sim.Tick(apply); err != nil {
			t.Fatal(err)
		}
		check()
	}
	st := single.tier.Stats()
	if st.Freezes == 0 || st.Merges == 0 {
		t.Fatalf("tier thresholds never fired (stats %+v); the differential never saw a mid-flush state", st)
	}
}

// TestShardIngestRecovery crashes an ingest shard (no Close) with a
// non-empty delta — flushed strictly below the record count — and checks
// the reopened shard reproduces the exact state: length, catalog
// enumeration, queries, and that it keeps accepting writes that later
// merge.
func TestShardIngestRecovery(t *testing.T) {
	cfg := Config{ID: 1, Terrain: testTerrain(), PageSize: 512, Ingest: tinyIngest()}
	base := pager.NewMemStore(512)
	log := pager.NewMemLog()
	s, err := Open(cfg, base, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Enough updates to cross several freeze and at least one merge
	// boundary, then a few more so a delta suffix remains.
	for i := 0; i < 180; i++ {
		if err := s.Apply(ctx, []Op{{Insert: true, M: testMotion(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i += 2 {
		m := testMotion(i)
		upd := m
		upd.T0, upd.Y0 = 50, m.Y0+1
		if err := s.Apply(ctx, []Op{{Insert: false, M: m}, {Insert: true, M: upd}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.tier.Stats(); st.Merges == 0 {
		t.Fatalf("workload never merged: %+v", st)
	}
	if s.flushed >= s.cat.records {
		t.Fatalf("no delta suffix to recover (flushed=%d records=%d); tune the workload",
			s.flushed, s.cat.records)
	}
	wantLen := s.Len()
	wantMs, err := s.Motions()
	if err != nil {
		t.Fatal(err)
	}
	q := dual.MORQuery{Y1: 100, Y2: 600, T1: 60, T2: 120}
	want, err := s.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	// Crash-reopen over surviving media.
	s2, err := Open(cfg, base, pager.NewMemLogFrom(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != wantLen {
		t.Fatalf("recovered Len = %d, want %d", s2.Len(), wantLen)
	}
	if s2.flushed != s.flushed || s2.cat.records != s.cat.records {
		t.Fatalf("recovered watermark %d/%d, want %d/%d",
			s2.flushed, s2.cat.records, s.flushed, s.cat.records)
	}
	got, err := s2.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(want) {
		t.Fatalf("recovered query diverges: %q vs %q", fingerprint(got), fingerprint(want))
	}
	gotMs, err := s2.Motions()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMs) != len(wantMs) {
		t.Fatalf("recovered catalog: %d motions, want %d", len(gotMs), len(wantMs))
	}
	for i := range gotMs {
		if gotMs[i] != wantMs[i] {
			t.Fatalf("recovered catalog motion %d = %+v, want %+v", i, gotMs[i], wantMs[i])
		}
	}
	// The recovered shard keeps ingesting and eventually merges again.
	for i := 300; i < 400; i++ {
		if err := s2.Apply(ctx, []Op{{Insert: true, M: testMotion(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if st := s2.tier.Stats(); st.Merges == 0 {
		t.Fatalf("recovered shard never merged: %+v", st)
	}
}

// TestShardIngestOpenWithoutConfig: durable media carrying an unmerged
// ingest delta must refuse to open as a flat shard — silently serving the
// base prefix would drop committed writes.
func TestShardIngestOpenWithoutConfig(t *testing.T) {
	cfg := Config{ID: 2, Terrain: testTerrain(), PageSize: 512, Ingest: tinyIngest()}
	base := pager.NewMemStore(512)
	log := pager.NewMemLog()
	s, err := Open(cfg, base, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ { // below the flush threshold: pure delta
		if err := s.Apply(ctx, []Op{{Insert: true, M: testMotion(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if s.flushed != 0 {
		t.Fatalf("flushed=%d, want 0 (nothing merged yet)", s.flushed)
	}
	flat := cfg
	flat.Ingest = nil
	_, err = Open(flat, base, pager.NewMemLogFrom(log.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "ingest delta") {
		t.Fatalf("flat open of ingest media: %v, want ingest-delta refusal", err)
	}
	// With the tier configured, the same media opens fine.
	s2, err := Open(cfg, base, pager.NewMemLogFrom(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 10 {
		t.Fatalf("recovered Len = %d, want 10", s2.Len())
	}
}

// TestShardIngestBulkLoad: BulkLoad through the tier replaces everything
// atomically and advances the watermark to cover the whole catalog.
func TestShardIngestBulkLoad(t *testing.T) {
	s, err := openMem(Config{Terrain: testTerrain(), Ingest: tinyIngest()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if err := s.Apply(ctx, []Op{{Insert: true, M: testMotion(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	var bulk []dual.Motion
	for i := 500; i < 560; i++ {
		bulk = append(bulk, testMotion(i))
	}
	if err := s.BulkLoad(ctx, bulk); err != nil {
		t.Fatal(err)
	}
	if s.Len() != len(bulk) {
		t.Fatalf("after BulkLoad Len=%d, want %d", s.Len(), len(bulk))
	}
	if s.flushed != s.cat.records || s.cat.records != len(bulk) {
		t.Fatalf("after BulkLoad flushed=%d records=%d, want both %d",
			s.flushed, s.cat.records, len(bulk))
	}
	if st := s.tier.Stats(); st.MemLen != 0 {
		t.Fatalf("BulkLoad left delta behind: %+v", st)
	}
}
