package ingest

import (
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

// TestTierConcurrentAddQuery races writers (each owning a disjoint OID
// band, so the strict delete-exact discipline holds without cross-writer
// coordination) against query and point-lookup readers, across many
// freeze and merge boundaries. Run under -race this is the tier's
// data-race gate.
func TestTierConcurrentAddQuery(t *testing.T) {
	leakcheck.Check(t)
	tier, err := New(newBase(t), Config{Terrain: testTerrain, MemtableFlush: 64, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
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
			for i := 0; ; i++ {
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
				if _, err := tier.Add(ops); err != nil {
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
				q := morAt(rng, 200)
				if _, err := tier.QueryParallelCtx(t.Context(), exec, q); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				if _, _, err := tier.Get(dual.OID(rng.Intn(4000))); err != nil {
					t.Errorf("reader %d get: %v", g, err)
					return
				}
			}
		}(g)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	st := tier.Stats()
	if st.Freezes == 0 || st.Merges == 0 {
		t.Fatalf("stress never crossed a flush boundary: %+v", st)
	}
}

// TestTierCloseUnderLoad is the leakcheck gate for the close path: Close
// fires while writers and readers hammer the tier; every goroutine must
// observe ErrClosed (or a pre-close success) and drain.
func TestTierCloseUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	tier, err := New(newBase(t), Config{Terrain: testTerrain, MemtableFlush: 32, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
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
				if _, err := tier.Add([]Op{{Insert: true, M: m}}); err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("writer %d: %v", g, err)
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
			for {
				if _, err := tier.Query(morAt(rng, 100)); err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("reader %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
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
// Add builds: between the build and the install, queries and lookups
// complete and answer the pre-batch state, and the Add returns after the
// fold with the batch in.
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
	tier, err := New(base, Config{Terrain: testTerrain, MemtableFlush: 16, MaxRuns: 1})
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
		for _, m := range ms {
			_, ok, err := tier.Get(m.OID)
			if err != nil {
				return err
			}
			if want := slices.Contains(live, m); ok != want {
				return fmt.Errorf("Get(%d) found %v, want %v", m.OID, ok, want)
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
