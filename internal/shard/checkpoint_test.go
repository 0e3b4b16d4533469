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

// parkingBase is a base store with a durability point whose first Write or
// Sync (per op) after arming parks until released: it holds the
// checkpoint a batch made due inside its I/O phase.
type parkingBase struct {
	*pager.MemStore
	op     string // "write" or "sync"
	armed  atomic.Bool
	parked chan struct{}
	open   chan struct{}
	once   sync.Once
}

func newParkingBase(op string) *parkingBase {
	return &parkingBase{MemStore: pager.NewMemStore(pager.DefaultPageSize), op: op,
		parked: make(chan struct{}, 1), open: make(chan struct{})}
}

func (b *parkingBase) pass(op string) {
	if b.op == op && b.armed.CompareAndSwap(true, false) {
		b.parked <- struct{}{}
		<-b.open
	}
}

func (b *parkingBase) release() { b.once.Do(func() { close(b.open) }) }

func (b *parkingBase) Write(p *pager.Page) error { b.pass("write"); return b.MemStore.Write(p) }
func (b *parkingBase) Sync() error               { b.pass("sync"); return nil }

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
