package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

// gate parks the first call that passes it after arming until released.
type gate struct {
	armed  atomic.Bool
	parked chan struct{}
	open   chan struct{}
	once   sync.Once
}

func newGate() *gate { return &gate{parked: make(chan struct{}, 1), open: make(chan struct{})} }

func (g *gate) pass() {
	if g.armed.CompareAndSwap(true, false) {
		g.parked <- struct{}{}
		<-g.open
	}
}

func (g *gate) release() { g.once.Do(func() { close(g.open) }) }

// parkingBase is a base store with a durability point whose first Write or
// Sync (per op) after arming parks until released: it holds the
// checkpoint a batch made due inside its I/O phase.
type parkingBase struct {
	*pager.MemStore
	*gate
	op string // "write" or "sync"
}

func newParkingBase(op string) *parkingBase {
	return &parkingBase{MemStore: pager.NewMemStore(pager.DefaultPageSize), gate: newGate(), op: op}
}

func (b *parkingBase) Write(p *pager.Page) error {
	if b.op == "write" {
		b.pass()
	}
	return b.MemStore.Write(p)
}

func (b *parkingBase) Sync() error {
	if b.op == "sync" {
		b.pass()
	}
	return nil
}

// TestShardQueryDuringCheckpoint parks the checkpoint an Apply made due
// inside a base Write and then inside a base Sync: queries complete
// meanwhile, answer with the batch in, and the Apply returns once the
// checkpoint does.
func TestShardQueryDuringCheckpoint(t *testing.T) {
	ctx := context.Background()
	for _, op := range []string{"write", "sync"} {
		t.Run(op, func(t *testing.T) {
			leakcheck.Check(t)
			base := newParkingBase(op)
			s, err := Open(Config{Terrain: terrain1D, AutoCheckpointBytes: 1}, base, pager.NewMemLog())
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			defer base.release() // before Close: a failed check must not strand the Apply
			ms := motions1D(64)
			if err := s.Apply(ctx, opsFor(ms[:32])); err != nil {
				t.Fatal(err)
			}

			base.armed.Store(true)
			applied := make(chan error, 1)
			go func() { applied <- s.Apply(ctx, opsFor(ms[32:])) }()
			select {
			case <-base.parked:
			case <-time.After(5 * time.Second):
				t.Fatalf("the Apply never checkpointed into a base %s", op)
			}

			answered := make(chan error, 1)
			go func() { answered <- checkExact(ctx, s, ms) }()
			select {
			case err := <-answered:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a query blocked behind the checkpoint")
			}
			select {
			case err := <-applied:
				t.Fatalf("Apply returned before its checkpoint finished (err %v)", err)
			default:
			}
			base.release()
			if err := <-applied; err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if h := s.Health(); !h.Healthy {
				t.Fatalf("shard after the checkpoint: %+v", h)
			}
		})
	}
}

// parkingLog is a write-ahead log whose first Sync after arming parks
// until released: it holds a write batch inside its log fsync.
type parkingLog struct {
	*pager.MemLog
	*gate
}

func (l *parkingLog) Sync() error {
	l.pass()
	return l.MemLog.Sync()
}

// TestShardQueryDuringLogSync parks a write batch's log fsync: queries on
// the shard complete meanwhile and answer with the batch in, and the write
// returns only once the fsync does — for Apply on a flat and an ingest
// shard, and for BulkLoad.
func TestShardQueryDuringLogSync(t *testing.T) {
	ctx := context.Background()
	ms := motions1D(64)
	for _, tc := range []struct {
		name  string
		cfg   Config
		write func(*Shard) error
	}{
		{"apply", Config{Terrain: terrain1D}, func(s *Shard) error { return s.Apply(ctx, opsFor(ms[32:])) }},
		{"apply-ingest", Config{Terrain: terrain1D, Ingest: tinyIngest()}, func(s *Shard) error { return s.Apply(ctx, opsFor(ms[32:])) }},
		{"bulkload", Config{Terrain: terrain1D}, func(s *Shard) error { return s.BulkLoad(ctx, ms) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.Check(t)
			log := &parkingLog{MemLog: pager.NewMemLog(), gate: newGate()}
			s, err := Open(tc.cfg, pager.NewMemStore(pager.DefaultPageSize), log)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			defer log.release() // before Close: a failed check must not strand the write
			if err := s.Apply(ctx, opsFor(ms[:32])); err != nil {
				t.Fatal(err)
			}

			log.armed.Store(true)
			wrote := make(chan error, 1)
			go func() { wrote <- tc.write(s) }()
			select {
			case <-log.parked:
			case <-time.After(5 * time.Second):
				t.Fatal("the write never synced its log")
			}

			answered := make(chan error, 1)
			go func() { answered <- checkExact(ctx, s, ms) }()
			select {
			case err := <-answered:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a query blocked behind the log fsync")
			}
			select {
			case err := <-wrote:
				t.Fatalf("the write returned before its log fsync finished (err %v)", err)
			default:
			}
			log.release()
			if err := <-wrote; err != nil {
				t.Fatalf("write: %v", err)
			}
			if h := s.Health(); !h.Healthy {
				t.Fatalf("shard after the fsync: %+v", h)
			}
		})
	}
}

// parkingWAL is a shard's store whose first page Write after arming parks
// until released: it holds a write batch inside the build of its new
// index, before the serving latch.
type parkingWAL struct {
	*pager.WALStore
	*gate
}

func (w *parkingWAL) Write(p *pager.Page) error {
	w.pass()
	return w.WALStore.Write(p)
}

// queryDuringBuild opens a shard over a parkingWAL, applies ms[:32], and
// parks the first page write of write, which must build a new index
// before it installs one holding ms: queries complete meanwhile and answer
// the pre-batch state, and write returns only once it is released, with
// the batch in.
func queryDuringBuild(t *testing.T, cfg Config, ms []dual.Motion, write func(*Shard) error) *Shard {
	t.Helper()
	ctx := context.Background()
	leakcheck.Check(t)
	w := &parkingWAL{gate: newGate()}
	cfg.WrapStore = func(st pager.Store) pager.Store {
		w.WALStore = st.(*pager.WALStore)
		return w
	}
	s, err := openMem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.release() // before Close: a failed check must not strand the write
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if err := s.Apply(ctx, opsFor(ms[:32])); err != nil {
		t.Fatal(err)
	}

	w.armed.Store(true)
	wrote := make(chan error, 1)
	go func() { wrote <- write(s) }()
	select {
	case <-w.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the write never built a page")
	}

	answered := make(chan error, 1)
	go func() { answered <- checkExact(ctx, s, ms[:32]) }()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a query blocked behind the build")
	}
	select {
	case err := <-wrote:
		t.Fatalf("the write returned before its build finished (err %v)", err)
	default:
	}
	w.release()
	if err := <-wrote; err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := checkExact(ctx, s, ms); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); !h.Healthy {
		t.Fatalf("shard after the write: %+v", h)
	}
	return s
}

// TestShardQueryDuringFold parks a page write of the folded base an
// ingest Apply builds: queries answer the pre-batch state meanwhile, and
// the Apply returns after the fold.
func TestShardQueryDuringFold(t *testing.T) {
	ms := motions1D(64)
	s := queryDuringBuild(t, Config{Terrain: terrain1D, Ingest: tinyIngest()}, ms, func(s *Shard) error {
		return s.Apply(context.Background(), opsFor(ms[32:]))
	})
	if st, _ := s.IngestStats(); st.Merges != 1 || st.MemLen != 0 {
		t.Fatalf("after the folding Apply: %d folds, %d OIDs in the delta; want 1 and 0", st.Merges, st.MemLen)
	}
}

// TestShardQueryDuringBulkLoad parks a page write of the index a BulkLoad
// builds, on a flat and on an ingest shard: queries answer the pre-batch
// state meanwhile, and the BulkLoad returns after the build.
func TestShardQueryDuringBulkLoad(t *testing.T) {
	ms := motions1D(64)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"flat", Config{Terrain: terrain1D}},
		{"ingest", Config{Terrain: terrain1D, Ingest: tinyIngest()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			queryDuringBuild(t, tc.cfg, ms, func(s *Shard) error { return s.BulkLoad(context.Background(), ms) })
		})
	}
}

// checkExact compares every test query's answer from s with brute force
// over ms.
func checkExact(ctx context.Context, s *Shard, ms []dual.Motion) error {
	for _, q := range queries1D {
		got, err := s.Query(ctx, q)
		if err != nil {
			return err
		}
		if want := bruteForce(nil, ms, q, nil); fingerprint(got) != fingerprint(want) {
			return fmt.Errorf("query %+v: shard %q, brute force %q", q, fingerprint(got), fingerprint(want))
		}
	}
	return nil
}

// syncFaultBase is a FaultStore whose Sync fails while armed: the fsync a
// checkpoint makes of the base.
type syncFaultBase struct {
	*pager.FaultStore
	armed atomic.Bool
}

func (b *syncFaultBase) Sync() error {
	if b.armed.Load() {
		return fmt.Errorf("base sync: %w", pager.ErrInjected)
	}
	return b.FaultStore.Sync()
}

// TestShardCheckpointFailureAcksBatch fails the base Sync of the
// checkpoint a batch made due. The batch is durable, so Apply acknowledges
// it; the shard quarantines itself with the checkpoint's error, and a
// reopen of what the crash left recovers every acknowledged motion.
func TestShardCheckpointFailureAcksBatch(t *testing.T) {
	ctx := context.Background()
	base := &syncFaultBase{FaultStore: pager.NewFaultStore(pager.NewMemStore(pager.DefaultPageSize), pager.FaultConfig{})}
	log := pager.NewMemLog()
	cfg := Config{Terrain: terrain1D, AutoCheckpointBytes: 1}
	s, err := Open(cfg, base, log)
	if err != nil {
		t.Fatal(err)
	}
	ms := motions1D(64)
	if err := s.Apply(ctx, opsFor(ms[:32])); err != nil {
		t.Fatal(err)
	}
	base.armed.Store(true)
	if err := s.Apply(ctx, opsFor(ms[32:])); err != nil {
		t.Fatalf("a durable batch was reported failed: %v", err)
	}
	h := s.Health()
	if !h.Quarantined || !errors.Is(h.Err, pager.ErrInjected) {
		t.Fatalf("after a failed checkpoint the shard reports %+v", h)
	}
	if err := s.Apply(ctx, opsFor(ms[:1])); !errors.Is(err, ErrShardDown) {
		t.Fatalf("Apply on the quarantined shard = %v, want ErrShardDown", err)
	}

	// Crash here: reopen on the base as it stands and the log as written.
	base.armed.Store(false)
	s2, err := Open(cfg, base, pager.NewMemLogFrom(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Motions()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].OID < got[j].OID })
	if !slices.Equal(got, ms) {
		t.Fatalf("reopen recovered %d motions, %d were acknowledged", len(got), len(ms))
	}
	if err := checkExact(ctx, s2, ms); err != nil {
		t.Fatal(err)
	}
}

// failSyncLog is a write-ahead log whose Sync fails while armed.
type failSyncLog struct {
	*pager.MemLog
	armed atomic.Bool
}

func (l *failSyncLog) Sync() error {
	if l.armed.Load() {
		return fmt.Errorf("log sync: %w", pager.ErrInjected)
	}
	return l.MemLog.Sync()
}

// TestShardSyncFailureQuarantines fails the log fsync of a routed write
// batch. The write is not acknowledged: its error wraps the sync failure
// and pager.ErrStoreFailed (the batch was already published, so the WAL
// cannot roll it back). The shard quarantines itself, the router feeds
// its standing queries nothing from the batch, and a reopen of what the
// media holds finds the batch absent or whole.
func TestShardSyncFailureQuarantines(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Terrain: terrain1D}
	base, log := pager.NewMemStore(pager.DefaultPageSize), &failSyncLog{MemLog: pager.NewMemLog()}
	s, err := Open(cfg, base, log)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartitioner(terrain1D.YMax, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter([]*Shard{s}, part, nil, Policy{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ms := motions1D(64)
	if err := r.Apply(ctx, opsFor(ms[:32])); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Subscribe(0, 1000, 10); err != nil {
		t.Fatal(err)
	}
	updates := r.subs.Stats().Updates

	log.armed.Store(true)
	err = r.Apply(ctx, opsFor(ms[32:]))
	var pe *PartialError
	if !errors.As(err, &pe) || len(pe.Causes) != 1 {
		t.Fatalf("Apply with a failing log sync = %v, want a PartialError naming the shard", err)
	}
	if cause := pe.Causes[0]; !errors.Is(cause, pager.ErrInjected) || !errors.Is(cause, pager.ErrStoreFailed) {
		t.Fatalf("shard error %v, want the sync failure and ErrStoreFailed", cause)
	}
	if h := s.Health(); !h.Quarantined || !errors.Is(h.Err, pager.ErrInjected) {
		t.Fatalf("after a failed log sync the shard reports %+v", h)
	}
	if got := r.subs.Stats().Updates; got != updates {
		t.Fatalf("the engine took %d upserts from an unacknowledged batch", got-updates)
	}

	// Crash here: reopen on the base and the log as they stand.
	log.armed.Store(false)
	s2, err := Open(cfg, base, pager.NewMemLogFrom(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Motions()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(got, func(i, j int) bool { return got[i].OID < got[j].OID })
	want := ms
	if len(got) == 32 {
		want = ms[:32]
	}
	if !slices.Equal(got, want) {
		t.Fatalf("reopen recovered %d motions: neither the 32 before the batch nor the 64 after it", len(got))
	}
	if err := checkExact(ctx, s2, want); err != nil {
		t.Fatal(err)
	}
}
