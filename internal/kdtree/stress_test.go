package kdtree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"mobidx/internal/geom"
	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

// TestConcurrentSearchWithWriter is the serving-model stress test for the
// k-d tree: SearchRect from several reader goroutines under RLock while a
// single writer inserts and deletes under Lock. The readers verify their
// answers against an oracle point set maintained under the same latch, so
// any page-level corruption or racy read surfaces as a wrong answer (and
// -race flags unsynchronized access outright).
func TestConcurrentSearchWithWriter(t *testing.T) {
	eachSpace(t, testConcurrentSearchWithWriter)
}

func testConcurrentSearchWithWriter(t *testing.T, sp space) {
	leakcheck.Check(t)
	tr, err := New(pager.NewBuffered(pager.NewMemStore(512), 64), sp.d, geom.Box{Hi: uniform(sp.d, 100)})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.RWMutex // serving latch: searches RLock, inserts/deletes Lock
	rng := rand.New(rand.NewSource(33))
	alive := make(map[uint64]Point)
	var nextVal uint64
	addPoint := func() {
		var v geom.Vec
		for k := 0; k < sp.d; k++ {
			v[k] = rng.Float64() * 100
		}
		p := Pt(v, nextVal)
		nextVal++
		if err := tr.Insert(p); err != nil {
			t.Fatalf("insert: %v", err)
		}
		alive[p.Val] = p
	}
	for i := 0; i < 400; i++ {
		addPoint()
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(100 + r)))
			for !stop.Load() {
				// A window a tenth of the domain wide in the plane; wider in
				// four dimensions so that it still holds points.
				var q geom.Box
				for k := 0; k < sp.d; k++ {
					q.Lo[k] = rrng.Float64() * 50
					q.Hi[k] = q.Lo[k] + 5*float64(sp.d*sp.d)/2
				}
				mu.RLock()
				want := map[uint64]bool{}
				for v, p := range alive {
					if q.Contains(p.Vec(), sp.d) {
						want[v] = true
					}
				}
				got := map[uint64]bool{}
				err := tr.SearchRegion(sp.box(q.Lo, q.Hi), func(p Point) bool { got[p.Val] = true; return true })
				mu.RUnlock()
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if len(got) != len(want) {
					t.Errorf("reader %d: got %d points, want %d", r, len(got), len(want))
					return
				}
				for v := range want {
					if !got[v] {
						t.Errorf("reader %d: missing point %d", r, v)
						return
					}
				}
			}
		}(r)
	}

	for round := 0; round < 300 && !t.Failed(); round++ {
		mu.Lock()
		if len(alive) > 200 && rng.Intn(2) == 0 {
			// Delete a random live point.
			for _, p := range alive {
				ok, err := tr.Delete(p)
				if err != nil {
					t.Fatalf("delete: %v", err)
				}
				if !ok {
					t.Fatalf("delete of live point %d reported absent", p.Val)
				}
				delete(alive, p.Val)
				break
			}
		} else {
			addPoint()
		}
		mu.Unlock()
	}
	stop.Store(true)
	wg.Wait()

	if tr.Len() != len(alive) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(alive))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stress: %v", err)
	}
}
