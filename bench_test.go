// Benchmarks regenerating every figure of the paper's evaluation (§5) and
// the analytic ablations, at laptop scale. Each benchmark reports the
// paper's metric — page I/Os per operation, or pages of space — via
// b.ReportMetric, so `go test -bench=. -benchmem` prints the same numbers
// cmd/mobbench tabulates at larger scale.
//
//	Figure 6 -> BenchmarkFig6QueryLarge   (avg I/Os per 10% query)
//	Figure 7 -> BenchmarkFig7QuerySmall   (avg I/Os per 1% query)
//	Figure 8 -> BenchmarkFig8Space        (pages)
//	Figure 9 -> BenchmarkFig9Update       (avg I/Os per update)
//	E5       -> BenchmarkApproxErrorVsC   (Lemma 1: K' vs c)
//	E6       -> BenchmarkKineticQuery     (Theorem 2: O(log_B(n+m)))
//	E7       -> BenchmarkPartitionTree    (§3.4: ~sqrt(n) I/Os)
//	E8       -> Benchmark2DQuery, BenchmarkRoutedQuery
package mobidx

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/harness"
	"mobidx/internal/kinetic"
	"mobidx/internal/pager"
	"mobidx/internal/parttree"
	"mobidx/internal/twod"
	"mobidx/internal/workload"
)

const benchN = 20000 // objects per benchmark index (paper: 100k-500k)

// benchIndex is a prepared index plus its stores and workload state.
type benchIndex struct {
	buf *pager.Buffered
	ix  core.Index1D
	sim *workload.Simulator
}

var (
	benchMu    sync.Mutex
	benchCache = map[string]*benchIndex{}
)

// getIndex returns a scenario-warmed index for the method, built once per
// process and shared by all benchmarks (they only read or append).
func getIndex(b *testing.B, m harness.Method) *benchIndex {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if bi, ok := benchCache[m.Name]; ok {
		return bi
	}
	base := pager.NewMemStore(pager.DefaultPageSize)
	buf := pager.NewBuffered(base, harness.BufferPages)
	ix, err := m.New(buf)
	if err != nil {
		b.Fatal(err)
	}
	p := workload.DefaultParams(benchN)
	p.Ticks = 20
	sim, err := workload.NewSimulator(p)
	if err != nil {
		b.Fatal(err)
	}
	apply := func(op workload.Op) error {
		if op.Insert {
			return ix.Insert(op.Motion)
		}
		return ix.Delete(op.Motion)
	}
	if err := sim.Bootstrap(apply); err != nil {
		b.Fatal(err)
	}
	for t := 0; t < 20; t++ {
		if err := sim.Tick(apply); err != nil {
			b.Fatal(err)
		}
	}
	bi := &benchIndex{buf: buf, ix: ix, sim: sim}
	benchCache[m.Name] = bi
	return bi
}

func benchQueries(b *testing.B, mix workload.QueryMix) {
	tr := workload.DefaultParams(1).Terrain
	for _, m := range harness.PaperMethods(tr) {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			bi := getIndex(b, m)
			rng := rand.New(rand.NewSource(7))
			var ios int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := rng.Float64() * mix.YQMax
				y1 := rng.Float64() * (tr.YMax - w)
				t1 := bi.sim.Now() + rng.Float64()*10
				q := dual.MORQuery{Y1: y1, Y2: y1 + w, T1: t1, T2: t1 + rng.Float64()*mix.TW}
				bi.buf.Clear()
				before := bi.buf.Stats()
				if err := bi.ix.Query(q, func(dual.OID) {}); err != nil {
					b.Fatal(err)
				}
				ios += bi.buf.Stats().Sub(before).IOs()
			}
			b.ReportMetric(float64(ios)/float64(b.N), "pageIO/op")
		})
	}
}

func BenchmarkFig6QueryLarge(b *testing.B) { benchQueries(b, workload.LargeQueries()) }
func BenchmarkFig7QuerySmall(b *testing.B) { benchQueries(b, workload.SmallQueries()) }

func BenchmarkFig8Space(b *testing.B) {
	tr := workload.DefaultParams(1).Terrain
	for _, m := range harness.PaperMethods(tr) {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			bi := getIndex(b, m)
			for i := 0; i < b.N; i++ {
				_ = bi.buf.PagesInUse()
			}
			b.ReportMetric(float64(bi.buf.PagesInUse()), "pages")
			b.ReportMetric(float64(bi.buf.PagesInUse())/float64(benchN)*1000, "pages/kObj")
		})
	}
}

func BenchmarkFig9Update(b *testing.B) {
	tr := workload.DefaultParams(1).Terrain
	for _, m := range harness.PaperMethods(tr) {
		m := m
		b.Run(m.Name, func(b *testing.B) {
			bi := getIndex(b, m)
			rng := rand.New(rand.NewSource(13))
			motions := bi.sim.Motions()
			now := bi.sim.Now()
			var ios int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One update = delete old motion + insert new one.
				id := rng.Intn(len(motions))
				old := motions[id]
				y := old.At(now)
				if y < 0 {
					y = 0
				}
				if y > tr.YMax {
					y = tr.YMax
				}
				v := tr.VMin + rng.Float64()*(tr.VMax-tr.VMin)
				if rng.Intn(2) == 0 {
					v = -v
				}
				nm := dual.Motion{OID: old.OID, Y0: y, T0: now, V: v}
				before := bi.buf.Stats()
				if err := bi.ix.Delete(old); err != nil {
					b.Fatal(err)
				}
				if err := bi.ix.Insert(nm); err != nil {
					b.Fatal(err)
				}
				ios += bi.buf.Stats().Sub(before).IOs()
				motions[id] = nm
			}
			b.ReportMetric(float64(ios)/float64(b.N), "pageIO/op")
		})
	}
}

// E5: approximation error versus c (Lemma 1).
func BenchmarkApproxErrorVsC(b *testing.B) {
	tr := workload.DefaultParams(1).Terrain
	for _, c := range []int{2, 4, 8, 16} {
		c := c
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			base := pager.NewMemStore(pager.DefaultPageSize)
			buf := pager.NewBuffered(base, harness.BufferPages)
			ix, err := core.NewDualBPlus(buf, core.DualBPlusConfig{Terrain: tr, C: c, Codec: bptree.Compact})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < benchN; i++ {
				v := tr.VMin + rng.Float64()*(tr.VMax-tr.VMin)
				if rng.Intn(2) == 0 {
					v = -v
				}
				if err := ix.Insert(dual.Motion{OID: dual.OID(i), Y0: rng.Float64() * tr.YMax, T0: 0, V: v}); err != nil {
					b.Fatal(err)
				}
			}
			var errSum, ansSum float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := rng.Float64() * 150
				y1 := rng.Float64() * (tr.YMax - w)
				t1 := rng.Float64() * 10
				q := dual.MORQuery{Y1: y1, Y2: y1 + w, T1: t1, T2: t1 + rng.Float64()*60}
				count := 0
				if err := ix.Query(q, func(dual.OID) { count++ }); err != nil {
					b.Fatal(err)
				}
				errSum += float64(ix.LastQueryCandidates() - count)
				ansSum += float64(count)
			}
			b.ReportMetric(errSum/float64(b.N), "Kprime/op")
			if ansSum > 0 {
				b.ReportMetric(errSum/ansSum, "Kprime/K")
			}
		})
	}
}

// E6: kinetic MOR1 query cost (Theorem 2) at two sizes.
func BenchmarkKineticQuery(b *testing.B) {
	tr := workload.DefaultParams(1).Terrain
	for _, n := range []int{20000, 80000} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(19))
			objs := make([]kinetic.Object, n)
			for i := range objs {
				v := tr.VMin + rng.Float64()*(tr.VMax-tr.VMin)
				if rng.Intn(2) == 0 {
					v = -v
				}
				objs[i] = kinetic.Object{OID: dual.OID(i), Y0: rng.Float64() * tr.YMax, V: v}
			}
			base := pager.NewMemStore(pager.DefaultPageSize)
			buf := pager.NewBuffered(base, harness.BufferPages)
			st, err := kinetic.Build(buf, objs, 0, 100)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(st.M()), "crossings")
			b.ReportMetric(float64(buf.PagesInUse()), "pages")
			var ios int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				yl := rng.Float64() * (tr.YMax - 50)
				tq := rng.Float64() * 100
				buf.Clear()
				before := buf.Stats()
				if err := st.Query(yl, yl+50, tq, func(dual.OID) {}); err != nil {
					b.Fatal(err)
				}
				ios += buf.Stats().Sub(before).IOs()
			}
			b.ReportMetric(float64(ios)/float64(b.N), "pageIO/op")
		})
	}
}

// E7: partition-tree thin-wedge simplex queries at two sizes (~sqrt(n)).
func BenchmarkPartitionTree(b *testing.B) {
	for _, n := range []int{20000, 80000} {
		n := n
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			base := pager.NewMemStore(pager.DefaultPageSize)
			buf := pager.NewBuffered(base, harness.BufferPages)
			t, err := parttree.New(buf, 2)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(23))
			pts := make([]parttree.Point, n)
			for i := range pts {
				pts[i] = parttree.Pt(geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000}, uint64(i))
			}
			if err := t.BulkLoad(pts); err != nil {
				b.Fatal(err)
			}
			var ios int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := rng.Float64() * 2000
				reg := geom.NewRegion(
					geom.Constraint{A: 1, B: 1, C: c + 0.5},
					geom.Constraint{A: -1, B: -1, C: -(c - 0.5)},
				)
				buf.Clear()
				before := buf.Stats()
				if err := t.SearchRegion(reg, func(parttree.Point) bool { return true }); err != nil {
					b.Fatal(err)
				}
				ios += buf.Stats().Sub(before).IOs()
			}
			b.ReportMetric(float64(ios)/float64(b.N), "pageIO/op")
		})
	}
}

// E8a: the two 2-dimensional methods.
func Benchmark2DQuery(b *testing.B) {
	terrain := twod.Terrain2D{XMax: 1000, YMax: 1000, VMin: 0.16, VMax: 1.66}
	methods := []struct {
		name string
		mk   func(st pager.Store) (twod.Index2D, error)
	}{
		{"kd4D", func(st pager.Store) (twod.Index2D, error) {
			return twod.NewKD4(st, twod.KD4Config{Terrain: terrain})
		}},
		{"decomposed", func(st pager.Store) (twod.Index2D, error) {
			return twod.NewDecomposed(st, twod.DecomposedConfig{Terrain: terrain, C: 4, Codec: bptree.Compact})
		}},
	}
	for _, m := range methods {
		m := m
		b.Run(m.name, func(b *testing.B) {
			base := pager.NewMemStore(pager.DefaultPageSize)
			buf := pager.NewBuffered(base, harness.BufferPages)
			ix, err := m.mk(buf)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(29))
			comp := func() float64 {
				v := terrain.VMin + rng.Float64()*(terrain.VMax-terrain.VMin)
				if rng.Intn(2) == 0 {
					v = -v
				}
				return v
			}
			for i := 0; i < benchN; i++ {
				err := ix.Insert(twod.Motion2D{
					OID: dual.OID(i),
					X0:  rng.Float64() * terrain.XMax, Y0: rng.Float64() * terrain.YMax,
					T0: 0, VX: comp(), VY: comp(),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			var ios int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := rng.Float64() * 150
				x1 := rng.Float64() * (terrain.XMax - w)
				y1 := rng.Float64() * (terrain.YMax - w)
				t1 := rng.Float64() * 10
				q := twod.MOR2Query{X1: x1, X2: x1 + w, Y1: y1, Y2: y1 + w, T1: t1, T2: t1 + rng.Float64()*40}
				buf.Clear()
				before := buf.Stats()
				if err := ix.Query(q, func(dual.OID) {}); err != nil {
					b.Fatal(err)
				}
				ios += buf.Stats().Sub(before).IOs()
			}
			b.ReportMetric(float64(ios)/float64(b.N), "pageIO/op")
		})
	}
}

// E8b: routed (1.5-dimensional) rectangle queries.
func BenchmarkRoutedQuery(b *testing.B) {
	base := pager.NewMemStore(pager.DefaultPageSize)
	buf := pager.NewBuffered(base, harness.BufferPages)
	net, err := NewRouteNetwork(buf, RouteNetworkConfig{VMin: 0.16, VMax: 1.66, C: 4, Codec: bptree.Compact})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	const world = 1000.0
	rid := RouteID(0)
	var rids []RouteID
	for i := 0; i < 10; i++ {
		c := (float64(i) + 0.5) * world / 10
		if _, err := net.AddRoute(rid, []Point{{X: 0, Y: c}, {X: world, Y: c}}); err != nil {
			b.Fatal(err)
		}
		rids = append(rids, rid)
		rid++
		if _, err := net.AddRoute(rid, []Point{{X: c, Y: 0}, {X: c, Y: world}}); err != nil {
			b.Fatal(err)
		}
		rids = append(rids, rid)
		rid++
	}
	oid := OID(0)
	for _, r := range rids {
		rt, _ := net.Route(r)
		for k := 0; k < benchN/len(rids); k++ {
			v := 0.16 + rng.Float64()*1.5
			if rng.Intn(2) == 0 {
				v = -v
			}
			if err := net.Insert(r, Motion{OID: oid, Y0: rng.Float64() * rt.Length(), T0: 0, V: v}); err != nil {
				b.Fatal(err)
			}
			oid++
		}
	}
	var ios int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := 50 + rng.Float64()*150
		x1 := rng.Float64() * (world - w)
		y1 := rng.Float64() * (world - w)
		t1 := rng.Float64() * 10
		buf.Clear()
		before := buf.Stats()
		err := net.Query(Rect{MinX: x1, MinY: y1, MaxX: x1 + w, MaxY: y1 + w},
			t1, t1+rng.Float64()*40, func(RouteHit) {})
		if err != nil {
			b.Fatal(err)
		}
		ios += buf.Stats().Sub(before).IOs()
	}
	b.ReportMetric(float64(ios)/float64(b.N), "pageIO/op")
}
