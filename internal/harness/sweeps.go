package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/kinetic"
	"mobidx/internal/pager"
	"mobidx/internal/parttree"
	"mobidx/internal/route"
	"mobidx/internal/twod"
	"mobidx/internal/workload"
)

// ---------------------------------------------------------------------------
// E5: approximation error K' and enlargement E versus c (Lemma 1 / Eq. 2)
// ---------------------------------------------------------------------------

// ApproxRow is one row of the approximation-error sweep: one query set
// at one c.
type ApproxRow struct {
	C           int
	Mix         string // query set, as workload.QueryMix.Name
	Queries     int
	AvgIOs      float64
	AvgAnswer   float64
	AvgError    float64 // average K' = candidates − answer per query
	ErrorRatio  float64 // K' / answer
	Pages       int
	AvgUpdateIO float64
}

// ApproxErrorSweep measures the Dual-B+ method's approximation error as a
// function of the observation-index count c: one §5 scenario per c,
// queried once at its end with the 1% and then the 10% query set, and one
// row per (c, query set). Lemma 1 predicts error roughly proportional to
// 1/c, traded against O(c·n) space and O(c·log n) updates. verify
// cross-checks every query against brute force.
func ApproxErrorSweep(n int, ticks int, cs []int, verify bool) ([]ApproxRow, error) {
	var out []ApproxRow
	tr := workload.DefaultParams(n).Terrain
	for _, c := range cs {
		cfg := DefaultScenario(n, ticks)
		cfg.QueryInstants = 1
		cfg.Mixes = []workload.QueryMix{workload.SmallQueries(), workload.LargeQueries()}
		cfg.Verify = verify
		r, err := RunScenario(methods["dualbp"](tr, c, bptree.Compact), cfg)
		if err != nil {
			return nil, err
		}
		for _, mix := range cfg.Mixes {
			mr := r.Mix[mix.Name]
			row := ApproxRow{
				C: c, Mix: mix.Name, Queries: mr.Queries,
				AvgIOs: mr.AvgIOs, AvgAnswer: mr.AvgAnswer, AvgError: mr.AvgCandidates - mr.AvgAnswer,
				Pages: r.Pages, AvgUpdateIO: r.AvgUpdateIO,
			}
			if row.AvgAnswer > 0 {
				row.ErrorRatio = row.AvgError / row.AvgAnswer
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// FormatApproxSweep renders the E5 table.
func FormatApproxSweep(rows []ApproxRow) string {
	var b strings.Builder
	b.WriteString("Ablation E5: Dual-B+ approximation error vs c (Lemma 1), per query set\n")
	fmt.Fprintf(&b, "%6s %6s %8s %12s %12s %12s %12s %10s %12s\n",
		"c", "set", "queries", "avg I/Os", "avg answer", "avg K'", "K'/answer", "pages", "upd I/Os")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %6s %8d %12.2f %12.1f %12.1f %12.3f %10d %12.2f\n",
			r.C, r.Mix, r.Queries, r.AvgIOs, r.AvgAnswer, r.AvgError, r.ErrorRatio, r.Pages, r.AvgUpdateIO)
	}
	return b.String()
}

// randSpeed draws a velocity as §5's generator does: a speed uniform in
// [vmin, vmax], in either direction.
func randSpeed(rng *rand.Rand, vmin, vmax float64) float64 {
	v := vmin + rng.Float64()*(vmax-vmin)
	if rng.Intn(2) == 0 {
		return -v
	}
	return v
}

// ---------------------------------------------------------------------------
// E6: kinetic MOR1 structure (Theorem 2)
// ---------------------------------------------------------------------------

// KineticRow is one row of the kinetic sweep.
type KineticRow struct {
	N          int
	Horizon    float64
	M          int // crossings within the horizon
	Pages      int
	AvgQueryIO float64
	AvgAnswer  float64
}

// KineticSweep builds the §3.6 structure for each (N, horizon) and
// measures space (O(n+m) pages) and query cost (O(log_B(n+m)) I/Os).
func KineticSweep(ns []int, horizons []float64, queries int, seed int64) ([]KineticRow, error) {
	var out []KineticRow
	rng := rand.New(rand.NewSource(seed))
	tr := workload.DefaultParams(1).Terrain
	for _, n := range ns {
		objs := make([]kinetic.Object, n)
		for i := range objs {
			v := randSpeed(rng, tr.VMin, tr.VMax)
			objs[i] = kinetic.Object{OID: dual.OID(i), Y0: rng.Float64() * tr.YMax, V: v}
		}
		for _, h := range horizons {
			pool := NewPool()
			st, err := kinetic.Build(pool, objs, 0, h)
			if err != nil {
				return nil, err
			}
			row := KineticRow{N: n, Horizon: h, M: st.M(), Pages: pool.PagesInUse()}
			for k := 0; k < queries; k++ {
				yl := rng.Float64() * tr.YMax
				yh := math.Min(yl+rng.Float64()*50, tr.YMax)
				tq := rng.Float64() * h
				count := 0
				ios, err := pool.Query(func() error {
					return st.Query(yl, yh, tq, func(dual.OID) { count++ })
				})
				if err != nil {
					return nil, err
				}
				row.AvgQueryIO += float64(ios)
				row.AvgAnswer += float64(count)
			}
			row.AvgQueryIO /= float64(queries)
			row.AvgAnswer /= float64(queries)
			out = append(out, row)
		}
	}
	return out, nil
}

// FormatKineticSweep renders the E6 table.
func FormatKineticSweep(rows []KineticRow) string {
	var b strings.Builder
	b.WriteString("Ablation E6: kinetic MOR1 structure (Theorem 2): space O(n+m), query O(log_B(n+m))\n")
	fmt.Fprintf(&b, "%10s %10s %12s %10s %12s %12s\n", "N", "horizon", "crossings M", "pages", "avg q I/Os", "avg answer")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %10.0f %12d %10d %12.2f %12.1f\n",
			r.N, r.Horizon, r.M, r.Pages, r.AvgQueryIO, r.AvgAnswer)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E7: partition tree scaling (§3.4) and crossing number
// ---------------------------------------------------------------------------

// PartRow is one row of the partition-tree sweep.
type PartRow struct {
	N             int
	Pages         int
	AvgQueryIO    float64 // thin-wedge simplex query
	SqrtN         float64
	WorstCrossing int
	RootCells     int
}

// PartTreeSweep bulk-loads Hough-X-like point sets of growing size and
// measures thin-wedge simplex query I/O against the √n curve, plus the
// empirical crossing number of the root partition.
func PartTreeSweep(ns []int, seed int64) ([]PartRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var out []PartRow
	for _, n := range ns {
		pool := NewPool()
		t, err := parttree.New(pool, 2)
		if err != nil {
			return nil, err
		}
		pts := make([]parttree.Point, n)
		for i := range pts {
			pts[i] = parttree.Pt(geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000}, uint64(i))
		}
		if err := t.BulkLoad(pts); err != nil {
			return nil, err
		}
		row := PartRow{N: n, Pages: pool.PagesInUse(), SqrtN: math.Sqrt(float64(n))}
		const reps = 20
		for k := 0; k < reps; k++ {
			c := rng.Float64() * 2000
			reg := geom.NewRegion(
				geom.Constraint{A: 1, B: 1, C: c + 0.5},
				geom.Constraint{A: -1, B: -1, C: -(c - 0.5)},
			)
			ios, err := pool.Query(func() error {
				return t.SearchRegion(reg, func(parttree.Point) bool { return true })
			})
			if err != nil {
				return nil, err
			}
			row.AvgQueryIO += float64(ios)
		}
		row.AvgQueryIO /= reps
		for k := 0; k < 40; k++ {
			theta := rng.Float64() * math.Pi
			a, bb := math.Cos(theta), math.Sin(theta)
			cc := a*rng.Float64()*1000 + bb*rng.Float64()*1000
			crossed, cells, err := t.MaxLineCrossings(geom.HalfSpace{Coef: geom.Vec{a, bb}, C: cc})
			if err != nil {
				return nil, err
			}
			row.RootCells = cells
			if crossed > row.WorstCrossing {
				row.WorstCrossing = crossed
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatPartTreeSweep renders the E7 table.
func FormatPartTreeSweep(rows []PartRow) string {
	var b strings.Builder
	b.WriteString("Ablation E7: partition tree (§3.4): thin-wedge query I/O ~ sqrt(n); crossing number ~ sqrt(r)\n")
	fmt.Fprintf(&b, "%10s %10s %12s %10s %14s %10s\n", "N", "pages", "avg q I/Os", "sqrt(N)", "worst crossing", "root cells")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d %10d %12.2f %10.1f %14d %10d\n",
			r.N, r.Pages, r.AvgQueryIO, r.SqrtN, r.WorstCrossing, r.RootCells)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// E8: the 2-dimensional methods and the 1.5-dimensional network
// ---------------------------------------------------------------------------

// TwoDRow is one method's measurements on the 2-dimensional scenario.
type TwoDRow struct {
	Method      string
	N           int
	AvgQueryIO  float64
	AvgAnswer   float64
	Pages       int
	AvgUpdateIO float64
}

// TwoDScenario compares the §4.2 methods (4-dimensional k-d dual and the
// per-axis decomposition) on a uniform planar workload.
func TwoDScenario(n, ticks, queries int, seed int64) ([]TwoDRow, error) {
	terrain := twod.Terrain2D{XMax: 1000, YMax: 1000, VMin: 0.16, VMax: 1.66}
	methods := []struct {
		name string
		mk   func(st pager.Store) (twod.Index2D, error)
	}{
		{"kd-tree 4D", func(st pager.Store) (twod.Index2D, error) {
			return twod.NewKD4(st, twod.KD4Config{Terrain: terrain})
		}},
		{"decomposed 2x1D", func(st pager.Store) (twod.Index2D, error) {
			return twod.NewDecomposed(st, twod.DecomposedConfig{Terrain: terrain, C: 4, Codec: bptree.Compact})
		}},
		{"parttree 4D", func(st pager.Store) (twod.Index2D, error) {
			return twod.NewPartTree4(st, twod.PartTree4Config{Terrain: terrain})
		}},
	}
	var out []TwoDRow
	for _, m := range methods {
		rng := rand.New(rand.NewSource(seed))
		pool := NewPool()
		ix, err := m.mk(pool)
		if err != nil {
			return nil, err
		}
		randComp := func() float64 { return randSpeed(rng, terrain.VMin, terrain.VMax) }
		cur := make([]twod.Motion2D, n)
		for i := range cur {
			cur[i] = twod.Motion2D{
				OID: dual.OID(i),
				X0:  rng.Float64() * terrain.XMax,
				Y0:  rng.Float64() * terrain.YMax,
				T0:  0,
				VX:  randComp(),
				VY:  randComp(),
			}
			if err := ix.Insert(cur[i]); err != nil {
				return nil, err
			}
		}
		row := TwoDRow{Method: m.name, N: n}
		var updIOs int64
		updates := 0
		now := 0.0
		clamp := func(v, max float64) float64 { return math.Max(0, math.Min(v, max)) }
		for t := 1; t <= ticks; t++ {
			now++
			ios, err := pool.Update(func() error {
				// Reflect any object that left the terrain during this tick.
				for i := range cur {
					mo := cur[i]
					crossAt := func(p0, v, max float64) float64 {
						if v > 0 {
							return mo.T0 + (max-p0)/v
						}
						return mo.T0 + (0-p0)/v
					}
					tx := crossAt(mo.X0, mo.VX, terrain.XMax)
					ty := crossAt(mo.Y0, mo.VY, terrain.YMax)
					tc := math.Min(tx, ty)
					if tc > now {
						continue
					}
					if err := ix.Delete(mo); err != nil {
						return err
					}
					x, y := mo.At(tc)
					nm := twod.Motion2D{OID: mo.OID, X0: clamp(x, terrain.XMax), Y0: clamp(y, terrain.YMax), T0: tc, VX: mo.VX, VY: mo.VY}
					if tx <= ty {
						nm.VX = -mo.VX
					}
					if ty <= tx {
						nm.VY = -mo.VY
					}
					if err := ix.Insert(nm); err != nil {
						return err
					}
					cur[i] = nm
					updates++
				}
				// Random motion changes, scaled like the 1-dimensional scenario.
				for k := 0; k < 200 && n > 0; k++ {
					i := rng.Intn(n)
					mo := cur[i]
					if err := ix.Delete(mo); err != nil {
						return err
					}
					x, y := mo.At(now)
					nm := twod.Motion2D{OID: mo.OID, X0: clamp(x, terrain.XMax), Y0: clamp(y, terrain.YMax), T0: now, VX: randComp(), VY: randComp()}
					if err := ix.Insert(nm); err != nil {
						return err
					}
					cur[i] = nm
					updates++
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			updIOs += ios
		}
		for k := 0; k < queries; k++ {
			w := rng.Float64() * 150
			x1 := rng.Float64() * (terrain.XMax - w)
			y1 := rng.Float64() * (terrain.YMax - w)
			t1 := now + rng.Float64()*20
			q := twod.MOR2Query{X1: x1, X2: x1 + w, Y1: y1, Y2: y1 + w, T1: t1, T2: t1 + rng.Float64()*40}
			count := 0
			ios, err := pool.Query(func() error { return ix.Query(q, func(dual.OID) { count++ }) })
			if err != nil {
				return nil, err
			}
			row.AvgQueryIO += float64(ios)
			row.AvgAnswer += float64(count)
		}
		row.AvgQueryIO /= float64(queries)
		row.AvgAnswer /= float64(queries)
		row.Pages = pool.PagesInUse()
		if updates > 0 {
			row.AvgUpdateIO = float64(updIOs) / float64(updates)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatTwoD renders the E8 2-dimensional table.
func FormatTwoD(rows []TwoDRow) string {
	var b strings.Builder
	b.WriteString("Experiment E8a: 2-dimensional MOR methods (§4.2)\n")
	fmt.Fprintf(&b, "%-18s %10s %12s %12s %10s %12s\n", "method", "N", "avg q I/Os", "avg answer", "pages", "upd I/Os")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %10d %12.2f %12.1f %10d %12.2f\n",
			r.Method, r.N, r.AvgQueryIO, r.AvgAnswer, r.Pages, r.AvgUpdateIO)
	}
	return b.String()
}

// RoutedRow summarizes the 1.5-dimensional experiment.
type RoutedRow struct {
	Routes      int
	Objects     int
	AvgQueryIO  float64
	AvgAnswer   float64
	Pages       int
	AvgUpdateIO float64
}

// RoutedScenario builds a highway-grid network (§4.1), populates it, and
// measures rectangle MOR queries decomposed through the SAM into per-route
// 1-dimensional queries.
func RoutedScenario(gridLines, objsPerRoute, ticks, queries int, seed int64) (*RoutedRow, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := NewPool()
	net, err := route.NewNetwork(pool, route.Config{VMin: 0.16, VMax: 1.66, C: 4, Codec: bptree.Compact})
	if err != nil {
		return nil, err
	}
	const world = 1000.0
	var rids []route.RouteID
	rid := route.RouteID(0)
	for i := 0; i < gridLines; i++ {
		y := (float64(i) + 0.5) * world / float64(gridLines)
		if _, err := net.AddRoute(rid, []geom.Point{{X: 0, Y: y}, {X: world, Y: y}}); err != nil {
			return nil, err
		}
		rids = append(rids, rid)
		rid++
		x := (float64(i) + 0.5) * world / float64(gridLines)
		if _, err := net.AddRoute(rid, []geom.Point{{X: x, Y: 0}, {X: x, Y: world}}); err != nil {
			return nil, err
		}
		rids = append(rids, rid)
		rid++
	}
	type tracked struct {
		rid route.RouteID
		m   dual.Motion
	}
	var objs []tracked
	oid := dual.OID(0)
	for _, r := range rids {
		rt, _ := net.Route(r)
		for k := 0; k < objsPerRoute; k++ {
			m := dual.Motion{OID: oid, Y0: rng.Float64() * rt.Length(), T0: 0, V: randSpeed(rng, 0.16, 1.66)}
			oid++
			if err := net.Insert(r, m); err != nil {
				return nil, err
			}
			objs = append(objs, tracked{r, m})
		}
	}
	row := &RoutedRow{Routes: len(rids), Objects: len(objs)}
	var updIOs int64
	updates := 0
	now := 0.0
	for t := 1; t <= ticks; t++ {
		now++
		ios, err := pool.Update(func() error {
			for i := range objs {
				o := &objs[i]
				rt, _ := net.Route(o.rid)
				var tc float64
				if o.m.V > 0 {
					tc = o.m.T0 + (rt.Length()-o.m.Y0)/o.m.V
				} else {
					tc = o.m.T0 + (0-o.m.Y0)/o.m.V
				}
				if tc > now {
					continue
				}
				if err := net.Delete(o.rid, o.m); err != nil {
					return err
				}
				end := 0.0
				if o.m.V > 0 {
					end = rt.Length()
				}
				o.m = dual.Motion{OID: o.m.OID, Y0: end, T0: tc, V: -o.m.V}
				if err := net.Insert(o.rid, o.m); err != nil {
					return err
				}
				updates++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		updIOs += ios
	}
	for k := 0; k < queries; k++ {
		w := 50 + rng.Float64()*150
		x1 := rng.Float64() * (world - w)
		y1 := rng.Float64() * (world - w)
		t1 := now + rng.Float64()*20
		count := 0
		r := geom.Rect{MinX: x1, MinY: y1, MaxX: x1 + w, MaxY: y1 + w}
		t2 := t1 + rng.Float64()*40
		ios, err := pool.Query(func() error { return net.Query(r, t1, t2, func(route.Hit) { count++ }) })
		if err != nil {
			return nil, err
		}
		row.AvgQueryIO += float64(ios)
		row.AvgAnswer += float64(count)
	}
	row.AvgQueryIO /= float64(queries)
	row.AvgAnswer /= float64(queries)
	row.Pages = pool.PagesInUse()
	if updates > 0 {
		row.AvgUpdateIO = float64(updIOs) / float64(updates)
	}
	return row, nil
}

// FormatRouted renders the E8 1.5-dimensional table.
func FormatRouted(r *RoutedRow) string {
	var b strings.Builder
	b.WriteString("Experiment E8b: 1.5-dimensional routed movement (§4.1)\n")
	fmt.Fprintf(&b, "%8s %10s %12s %12s %10s %12s\n", "routes", "objects", "avg q I/Os", "avg answer", "pages", "upd I/Os")
	fmt.Fprintf(&b, "%8d %10d %12.2f %12.1f %10d %12.2f\n",
		r.Routes, r.Objects, r.AvgQueryIO, r.AvgAnswer, r.Pages, r.AvgUpdateIO)
	return b.String()
}
