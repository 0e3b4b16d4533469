package shard

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/ingest"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

// tinyIngest folds every 64 catalog records, so the differential and
// recovery tests constantly observe states between folds.
func tinyIngest() *IngestConfig {
	return &IngestConfig{FoldOps: 64}
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
// holds a delta between folds.
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
	if st := single.tier.Stats(); st.Merges < 2 {
		t.Fatalf("the tier folded %d times (stats %+v); the differential barely saw a fold", st.Merges, st)
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
	// Enough updates to fold three times, then a few more so a delta
	// suffix remains.
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
	for i := 0; i < 10; i++ { // below the fold bound: pure delta
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

// TestShardIngestHotSetFolds drives one ingest shard at the default fold
// bound with 40 000 updates over a hot set of 1 000 objects. The bound
// counts ops, not distinct objects, so the shard folds, and its catalog
// records past the flushed watermark — what Open replays — never exceed
// FoldOps plus one batch. A bound on distinct objects per generation
// never folded here and left 81 000 records to replay.
func TestShardIngestHotSetFolds(t *testing.T) {
	s, err := openMem(Config{Terrain: terrain1D, Ingest: &IngestConfig{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	const hot, updates, perBatch = 1000, 40000, 100
	ms := motions1D(hot)
	if err := s.Apply(ctx, opsFor(ms)); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < updates; u += perBatch {
		ops := make([]Op, 0, 2*perBatch)
		for k := 0; k < perBatch; k++ {
			i := (u + k) % hot
			upd := ms[i]
			upd.Y0 = math.Mod(upd.Y0+7, terrain1D.YMax)
			ops = append(ops, Op{M: ms[i]}, Op{Insert: true, M: upd})
			ms[i] = upd
		}
		if err := s.Apply(ctx, ops); err != nil {
			t.Fatalf("update %d: %v", u, err)
		}
		if staged := s.cat.records - s.flushed; staged > ingest.DefaultFoldOps+len(ops) {
			t.Fatalf("after update %d: %d catalog records past the flushed watermark, bound %d + one batch of %d",
				u+perBatch, staged, ingest.DefaultFoldOps, len(ops))
		}
	}
	st, _ := s.IngestStats()
	if want := (hot + 2*updates) / ingest.DefaultFoldOps; st.Merges != want {
		t.Fatalf("the shard folded %d times over %d ops, want %d", st.Merges, hot+2*updates, want)
	}
	for _, q := range queries1D {
		got, err := s.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForce(nil, ms, q, nil); fingerprint(got) != fingerprint(want) {
			t.Fatalf("query %+v: %q, brute force %q", q, fingerprint(got), fingerprint(want))
		}
	}
}

// TestShardIngestCloseUnderLoad runs folding Applies, queries and Close
// on one ingest shard at once. The tier takes no latch of its own, so
// under the race detector this is the gate on the shard latches that
// serialize it. It waits for a few folds, then closes the shard: every
// call succeeds or fails with ErrShardDown, a call queued on a latch
// behind Close included, the closed shard is not quarantined, and no
// goroutine outlives the test.
func TestShardIngestCloseUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	s, err := openMem(Config{Terrain: terrain1D, Ingest: &IngestConfig{FoldOps: 32}})
	if err != nil {
		t.Fatal(err)
	}
	closed := func(err error) bool { return errors.Is(err, ErrShardDown) }
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each writer owns its OIDs, so its deletes name live motions.
			ms := motions1D(40)
			for i := range ms {
				ms[i].OID += dual.OID(1000 * g)
			}
			if err := s.Apply(ctx, opsFor(ms)); err != nil {
				if !closed(err) {
					t.Errorf("writer %d: %v", g, err)
				}
				return
			}
			for i := 0; ; i++ {
				k := i % len(ms)
				upd := ms[k]
				upd.Y0 = math.Mod(upd.Y0+13, terrain1D.YMax)
				if err := s.Apply(ctx, []Op{{M: ms[k]}, {Insert: true, M: upd}}); err != nil {
					if !closed(err) {
						t.Errorf("writer %d: %v", g, err)
					}
					return
				}
				ms[k] = upd
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				if _, err := s.Query(ctx, queries1D[i%len(queries1D)]); err != nil {
					if !closed(err) {
						t.Errorf("reader %d: %v", g, err)
					}
					return
				}
			}
		}(g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st, _ := s.IngestStats(); st.Merges < 4; st, _ = s.IngestStats() {
		if time.Now().After(deadline) {
			t.Errorf("only %d folds in 10 s", st.Merges)
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if h := s.Health(); h.Quarantined {
		t.Errorf("closed shard quarantined by a write queued behind Close: %v", h.Err)
	}
}
