package shard

import (
	"context"
	"errors"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

func opsFor(ms []dual.Motion) []Op {
	ops := make([]Op, len(ms))
	for i, m := range ms {
		ops[i] = Op{Insert: true, M: m}
	}
	return ops
}

func TestShardApplyQueryRoundtrip(t *testing.T) {
	s, err := openMem(Config{Terrain: terrain1D})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ms := motions1D(64)
	if err := s.Apply(context.Background(), opsFor(ms)); err != nil {
		t.Fatal(err)
	}
	oracle := newOracle(t)
	for _, m := range ms {
		if err := oracle.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range queries1D {
		got, err := s.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var want []dual.OID
		if err := oracle.Query(q, func(id dual.OID) { want = append(want, id) }); err != nil {
			t.Fatal(err)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("query %+v: shard %q, oracle %q", q, fingerprint(got), fingerprint(want))
		}
	}
	// An update is delete+insert; the shard applies both in one batch.
	upd := []Op{{Insert: false, M: ms[3]}, {Insert: true, M: dual.Motion{OID: ms[3].OID, Y0: 5, T0: 50, V: 0.3}}}
	if err := s.Apply(context.Background(), upd); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); !h.Healthy || h.Err != nil {
		t.Fatalf("healthy shard reports %+v", h)
	}
}

// A motion the index cannot key (NaN speed or position, NaN/Inf T0) is
// refused with core.ValidateMotion's own error, like any other
// out-of-terrain motion, and nothing of the batch becomes visible.
func TestShardApplyRejectsNonFiniteMotion(t *testing.T) {
	s, err := openMem(Config{Terrain: terrain1D})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := dual.Motion{OID: 9, Y0: 50, T0: math.NaN(), V: 1}
	want := core.ValidateMotion(bad, terrain1D)
	if want == nil {
		t.Fatal("core.ValidateMotion accepts a NaN T0")
	}
	err = s.Apply(context.Background(), []Op{{Insert: true, M: bad}})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("Apply(non-finite motion) = %v, want %v", err, want)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len() = %d after a rejected batch", n)
	}
}

// An invalid motion is the caller's error, not a failed batch: a flat
// shard, an ingest shard and a two-band router refuse the whole batch —
// its valid ops too — and stay healthy, serve the same answers, report no
// PartialError, and feed the standing queries nothing.
func TestInvalidMotionKeepsShardsHealthy(t *testing.T) {
	ctx := context.Background()
	ms := motions1D(64)
	bads := []dual.Motion{
		{OID: 900, Y0: 50, T0: math.NaN(), V: 1},
		{OID: 901, Y0: math.Inf(1), T0: 0, V: 1},
		{OID: 902, Y0: 50, T0: 0, V: 7},      // faster than the terrain's band
		{OID: 903, Y0: -200, T0: 0, V: -0.5}, // off the terrain
	}
	// Each bad batch leads with a valid op the refusal must not apply.
	badBatch := func(bad dual.Motion) []Op {
		return []Op{{Insert: true, M: dual.Motion{OID: 800, Y0: 500, T0: 0, V: 1}}, {Insert: true, M: bad}}
	}
	checkHealthy := func(t *testing.T, s *Shard) {
		t.Helper()
		if h := s.Health(); !h.Healthy || h.Quarantined || h.Err != nil {
			t.Fatalf("shard %d after a refused batch: %+v", s.ID(), h)
		}
	}

	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{Terrain: terrain1D}},
		{"ingest", Config{Terrain: terrain1D, Ingest: tinyIngest()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := openMem(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Apply(ctx, opsFor(ms)); err != nil {
				t.Fatal(err)
			}
			for _, bad := range bads {
				if err := s.Apply(ctx, badBatch(bad)); !errors.Is(err, core.ErrInvalidMotion) {
					t.Fatalf("Apply(%+v) = %v, want core.ErrInvalidMotion", bad, err)
				}
				checkHealthy(t, s)
				if err := checkExact(ctx, s, ms); err != nil {
					t.Fatalf("after refusing %+v: %v", bad, err)
				}
			}
			// The shard still takes valid writes.
			if err := s.Apply(ctx, badBatch(ms[0])[:1]); err != nil {
				t.Fatalf("valid batch after the refusals: %v", err)
			}
		})
	}

	t.Run("router", func(t *testing.T) {
		r := openCluster(t, 0, ClusterConfig{Terrain: terrain1D}, 2)
		if err := r.Apply(ctx, opsFor(ms)); err != nil {
			t.Fatal(err)
		}
		id, err := r.Subscribe(0, 1000, 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.DrainSubs(id); err != nil {
			t.Fatal(err)
		}
		updates := r.subs.Stats().Updates
		for _, bad := range bads {
			err := r.Apply(ctx, badBatch(bad))
			var pe *PartialError
			if !errors.Is(err, core.ErrInvalidMotion) || errors.As(err, &pe) {
				t.Fatalf("Router.Apply(%+v) = %v, want core.ErrInvalidMotion and no PartialError", bad, err)
			}
			for i := 0; i < 2; i++ {
				checkHealthy(t, r.Shard(i))
			}
			if got := r.subs.Stats().Updates; got != updates {
				t.Fatalf("the engine took %d upserts from a refused batch", got-updates)
			}
			if ds, err := r.DrainSubs(id); err != nil || len(ds) != 0 {
				t.Fatalf("drain after a refused batch: %v, %v", ds, err)
			}
			for _, q := range queries1D {
				got, err := r.Query(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if want := bruteForce(nil, ms, q, nil); fingerprint(got) != fingerprint(want) {
					t.Fatalf("after refusing %+v, query %+v: %q, want %q", bad, q, fingerprint(got), fingerprint(want))
				}
			}
		}
	})
}

func TestShardQuarantineOnFailedBatch(t *testing.T) {
	var fs *pager.FaultStore
	s, err := openMem(Config{Terrain: terrain1D, WrapStore: func(st pager.Store) pager.Store {
		fs = pager.NewFaultStore(st, pager.FaultConfig{Seed: 5})
		return fs
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Apply(context.Background(), opsFor(motions1D(32))); err != nil {
		t.Fatal(err)
	}
	// Every write now fails: the next batch dies mid-flight and must
	// quarantine the shard (the WAL rolled the pages back, but the
	// in-memory index may hold a prefix of the batch).
	fs.SetConfig(pager.FaultConfig{Seed: 5, Write: pager.OpFaults{FailEvery: 1}})
	extra := motions1D(64)[32:]
	if err := s.Apply(context.Background(), opsFor(extra)); err == nil {
		t.Fatal("apply over failing writes succeeded")
	}
	h := s.Health()
	if h.Healthy || !h.Quarantined || h.Err == nil {
		t.Fatalf("after failed batch Health = %+v, want quarantined", h)
	}
	if _, err := s.Query(context.Background(), queries1D[0]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("query on quarantined shard returned %v, want ErrShardDown", err)
	}
	if err := s.Apply(context.Background(), opsFor(extra[:1])); !errors.Is(err, ErrShardDown) {
		t.Fatalf("apply on quarantined shard returned %v, want ErrShardDown", err)
	}
}

func TestShardPreCancelDoesNotQuarantine(t *testing.T) {
	s, err := openMem(Config{Terrain: terrain1D})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Apply(ctx, opsFor(motions1D(8))); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled apply returned %v", err)
	}
	if h := s.Health(); !h.Healthy || h.Err != nil {
		t.Fatalf("pre-cancelled apply dirtied health: %+v", h)
	}
	if _, err := s.Query(ctx, queries1D[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled query returned %v", err)
	}
	// The shard still serves a live context.
	if err := s.Apply(context.Background(), opsFor(motions1D(8))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), queries1D[0]); err != nil {
		t.Fatal(err)
	}
}

// lateCancelCtx is a context whose Err reports context.Canceled from its
// from-th call on.
type lateCancelCtx struct {
	context.Context
	calls atomic.Int32
	from  int32
}

func (c *lateCancelCtx) Err() error {
	if c.calls.Add(1) >= c.from {
		return context.Canceled
	}
	return nil
}

// TestShardAdmittedWriteRunsToEnd hands a flat shard 16 inserts under a
// context that gives up from its third Err call on, after the shard has
// admitted the write: the batch runs to its end and returns nil, and the
// shard stays healthy and holds all 16 motions.
func TestShardAdmittedWriteRunsToEnd(t *testing.T) {
	s, err := openMem(Config{Terrain: terrain1D})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ms := motions1D(16)
	if err := s.Apply(&lateCancelCtx{Context: context.Background(), from: 3}, opsFor(ms)); err != nil {
		t.Fatalf("an admitted write cancelled meanwhile returned %v, want nil", err)
	}
	if h := s.Health(); !h.Healthy || h.Err != nil {
		t.Fatalf("an admitted write cancelled meanwhile left the shard %+v", h)
	}
	got, err := s.Motions()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ms) {
		t.Fatalf("the shard holds %d motions, want the batch's %d", len(got), len(ms))
	}
	if err := checkExact(context.Background(), s, ms); err != nil {
		t.Fatal(err)
	}
}

func TestShardTransientReadFaultSurfacesWithoutQuarantine(t *testing.T) {
	var fs *pager.FaultStore
	s, err := openMem(Config{Terrain: terrain1D, WrapStore: func(st pager.Store) pager.Store {
		fs = pager.NewFaultStore(st, pager.FaultConfig{Seed: 11})
		return fs
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Apply(context.Background(), opsFor(motions1D(64))); err != nil {
		t.Fatal(err)
	}
	clean, err := s.Query(context.Background(), queries1D[0])
	if err != nil {
		t.Fatal(err)
	}
	fs.SetConfig(pager.FaultConfig{Seed: 11, Read: pager.OpFaults{FailEvery: 1}, Transient: true, MaxFaults: 1})
	_, qerr := s.Query(context.Background(), queries1D[0])
	if qerr == nil || !pager.IsTransient(qerr) {
		t.Fatalf("faulted query returned %v, want transient", qerr)
	}
	h := s.Health()
	if !h.Healthy || h.Quarantined {
		t.Fatalf("read fault quarantined the shard: %+v", h)
	}
	// Budget spent: the shard recovers and answers exactly as before.
	got, err := s.Query(context.Background(), queries1D[0])
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(got) != fingerprint(clean) {
		t.Fatalf("post-fault answer diverged: %q vs %q", fingerprint(got), fingerprint(clean))
	}
}

func TestShardClose(t *testing.T) {
	s, err := openMem(Config{Terrain: terrain1D})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := s.Query(context.Background(), queries1D[0]); !errors.Is(err, ErrShardDown) {
		t.Fatalf("query after close returned %v", err)
	}
}

// The media decide the page size: a Config or ClusterConfig page size
// that differs from the media's is refused at open, not silently
// replaced by the media's; zero and the media's own size open.
func TestOpenRefusesPageSizeMismatch(t *testing.T) {
	m, err := NewMemEnv(4096).OpenMedia(shardMediaName(0))
	if err != nil {
		t.Fatal(err)
	}
	if s, err := Open(Config{Terrain: terrain1D, PageSize: 512}, m.Base, m.Log); err == nil {
		s.Close()
		t.Fatal("Open with page size 512 over 4096-byte media succeeded")
	}
	if c, err := OpenCluster(NewMemEnv(4096), ClusterConfig{Terrain: terrain1D, PageSize: 512}, 2); err == nil {
		c.Close()
		t.Fatal("OpenCluster with page size 512 over a 4096-byte MemEnv succeeded")
	}
	for _, ps := range []int{0, 4096} {
		c, err := OpenCluster(NewMemEnv(4096), ClusterConfig{Terrain: terrain1D, PageSize: ps}, 2)
		if err != nil {
			t.Fatalf("page size %d: %v", ps, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
