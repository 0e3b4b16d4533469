package ingest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

// latched serializes a tier the way internal/shard does: one write at a
// time under wmu, each fold's Build beside the readers and its Install
// under mu's write side, queries and Stats under mu's read side.
type latched struct {
	wmu  sync.Mutex
	mu   sync.RWMutex
	tier *Tier
}

func (l *latched) add(ops []Op) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	b, err := l.tier.Build(ops)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.tier.Install(b)
	return err
}

func (l *latched) query(ctx context.Context, exec *core.Executor, q dual.MORQuery) ([]dual.OID, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tier.QueryParallelCtx(ctx, exec, q)
}

func (l *latched) stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tier.Stats()
}

func (l *latched) close() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tier.Close()
}

// TestTierConcurrentAddQuery races writers (each owning a disjoint OID
// band, so the strict delete-exact discipline holds without cross-writer
// coordination) against parallel queries, across many folds, with the
// tier under the shard's latch discipline: a fold builds its new base
// while queries read the old one. Run under -race this is the gate on
// the tier's contract that Build changes nothing a reader sees.
func TestTierConcurrentAddQuery(t *testing.T) {
	leakcheck.Check(t)
	tier, err := New(newBase(t), Config{Terrain: testTerrain, FoldOps: 64})
	if err != nil {
		t.Fatal(err)
	}
	l := &latched{tier: tier}
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			cur := make(map[dual.OID]dual.Motion)
			now := 0.0
			for {
				select {
				case <-stop:
					return
				default:
				}
				now += 0.25
				id := dual.OID(g*1000 + rng.Intn(200))
				m := motionAt(rng, id, now)
				var ops []Op
				if old, live := cur[id]; live {
					ops = append(ops, Op{Insert: false, M: old})
				}
				ops = append(ops, Op{Insert: true, M: m})
				if err := l.add(ops); err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
				cur[id] = m
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			exec := core.NewExecutor(2)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := l.query(t.Context(), exec, morAt(rng, 200)); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for l.stats().Merges < 4 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if st := l.stats(); st.Merges < 4 {
		t.Fatalf("stress folded only %d times in 10 s: %+v", st.Merges, st)
	}
}

// TestTierCloseUnderLoad is the leakcheck gate for the close path: Close
// fires, under the same latches, while writers and readers hammer the
// tier; every goroutine must observe ErrClosed (or a pre-close success)
// and drain.
func TestTierCloseUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	tier, err := New(newBase(t), Config{Terrain: testTerrain, FoldOps: 32})
	if err != nil {
		t.Fatal(err)
	}
	l := &latched{tier: tier}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			now := 0.0
			for i := 0; ; i++ {
				now += 0.25
				m := motionAt(rng, dual.OID(g*100000+i), now)
				if err := l.add([]Op{{Insert: true, M: m}}); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("writer %d: %v", g, err)
					}
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(50 + g)))
			exec := core.NewExecutor(1)
			for {
				if _, err := l.query(t.Context(), exec, morAt(rng, 100)); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("reader %d: %v", g, err)
					}
					return
				}
			}
		}(g)
	}
	deadline := time.Now().Add(10 * time.Second)
	for l.stats().Merges < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if st := l.stats(); st.Merges < 2 {
		t.Fatalf("only %d folds before Close in 10 s", st.Merges)
	}
}

// parkingStore is a page store whose first Write after arming parks until
// released: it holds a fold inside the build of its new base.
type parkingStore struct {
	*pager.MemStore
	armed  atomic.Bool
	parked chan struct{}
	open   chan struct{}
}

func (s *parkingStore) Write(p *pager.Page) error {
	if s.armed.CompareAndSwap(true, false) {
		s.parked <- struct{}{}
		<-s.open
	}
	return s.MemStore.Write(p)
}

// TestTierQueryDuringFoldBuild parks a page write of the base a folding
// Add builds: between the build and the install, queries complete and
// answer the pre-batch state, and the Add returns after the fold with the
// batch in.
func TestTierQueryDuringFoldBuild(t *testing.T) {
	leakcheck.Check(t)
	st := &parkingStore{MemStore: pager.NewMemStore(1024), parked: make(chan struct{}, 1), open: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(st.open) }) }
	defer release() // a failed check must not strand the Add
	base, err := core.NewDualBPlus(st, core.DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Compact})
	if err != nil {
		t.Fatal(err)
	}
	tier, err := New(base, Config{Terrain: testTerrain, FoldOps: 16})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	var ms []dual.Motion
	var ops []Op
	for id := dual.OID(0); id < 26; id++ {
		m := motionAt(rng, id, 0)
		ms = append(ms, m)
		ops = append(ops, Op{Insert: true, M: m})
	}
	if merged, err := tier.Add(ops[:10]); err != nil || merged {
		t.Fatalf("first Add: merged %v, err %v; want a staged batch", merged, err)
	}
	qs := make([]dual.MORQuery, 20)
	for i := range qs {
		qs[i] = morAt(rng, 0)
	}
	check := func(live []dual.Motion) error {
		for _, q := range qs {
			var want []dual.OID
			for _, m := range live {
				if m.Matches(q) {
					want = append(want, m.OID)
				}
			}
			got, err := tier.Query(q)
			if err != nil {
				return err
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("query %+v: tier %v, brute force %v", q, got, want)
			}
		}
		return nil
	}

	st.armed.Store(true)
	added := make(chan error, 1)
	go func() {
		merged, err := tier.Add(ops[10:])
		if err == nil && !merged {
			err = errors.New("the Add did not fold")
		}
		added <- err
	}()
	select {
	case <-st.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the Add never built a page")
	}
	answered := make(chan error, 1)
	go func() { answered <- check(ms[:10]) }()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a query blocked behind the fold's build")
	}
	select {
	case err := <-added:
		t.Fatalf("the Add returned before its build finished (err %v)", err)
	default:
	}
	release()
	if err := <-added; err != nil {
		t.Fatal(err)
	}
	if err := check(ms); err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
}
