package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/pager"
)

func TestHistoryBasics(t *testing.T) {
	st := pager.NewMemStore(1024)
	h, err := NewHistory(st, testTerrain)
	if err != nil {
		t.Fatal(err)
	}
	// Object 1: moves right during [0,10], then left during [10,30], gone.
	if err := h.Begin(dual.Motion{OID: 1, Y0: 10, T0: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.Begin(dual.Motion{OID: 1, Y0: 20, T0: 10, V: -0.5}); err != nil {
		t.Fatal(err)
	}
	if err := h.End(1, 30); err != nil {
		t.Fatal(err)
	}
	if h.Closed() != 2 || h.Open() != 0 {
		t.Fatalf("closed=%d open=%d", h.Closed(), h.Open())
	}
	count := func(q dual.MORQuery) int {
		n := 0
		if err := h.QueryPast(q, func(dual.OID) { n++ }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Was at y=15 at t=5 (first leg).
	if got := count(dual.MORQuery{Y1: 14, Y2: 16, T1: 4, T2: 6}); got != 1 {
		t.Fatalf("first leg: %d", got)
	}
	// Was at y=15 again around t=20 (second leg).
	if got := count(dual.MORQuery{Y1: 14, Y2: 16, T1: 19, T2: 21}); got != 1 {
		t.Fatalf("second leg: %d", got)
	}
	// Never at y=50.
	if got := count(dual.MORQuery{Y1: 49, Y2: 51, T1: 0, T2: 30}); got != 0 {
		t.Fatalf("phantom: %d", got)
	}
	// After t=30 the object no longer exists.
	if got := count(dual.MORQuery{Y1: 0, Y2: 100, T1: 31, T2: 40}); got != 0 {
		t.Fatalf("after end: %d", got)
	}
	// A window straddling both legs reports the object once.
	if got := count(dual.MORQuery{Y1: 0, Y2: 100, T1: 0, T2: 30}); got != 1 {
		t.Fatalf("dedup: %d", got)
	}
	// Trajectory length = 10 + 20.
	if l, err := h.TrajectoryLength(1); err != nil || math.Abs(l-30) > 1e-6 {
		t.Fatalf("length %v err %v", l, err)
	}
}

func TestHistoryEndErrors(t *testing.T) {
	st := pager.NewMemStore(1024)
	h, _ := NewHistory(st, testTerrain)
	if err := h.End(9, 5); err == nil {
		t.Fatal("End of unknown object accepted")
	}
	_ = h.Begin(dual.Motion{OID: 1, Y0: 10, T0: 10, V: 1})
	if err := h.End(1, 5); err == nil {
		t.Fatal("End before Begin accepted")
	}
}

// Differential test: a full simulated history vs brute force replay.
func TestHistoryDifferential(t *testing.T) {
	st := pager.NewMemStore(1024)
	h, err := NewHistory(st, testTerrain)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(321))
	type piece struct {
		m    dual.Motion
		tEnd float64 // inf while open
	}
	pieces := map[dual.OID][]piece{}
	now := 0.0
	cur := map[dual.OID]dual.Motion{}
	randV := func() float64 {
		v := testTerrain.VMin + rng.Float64()*(testTerrain.VMax-testTerrain.VMin)
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	for i := 0; i < 150; i++ {
		m := dual.Motion{OID: dual.OID(i), Y0: rng.Float64() * testTerrain.YMax, T0: 0, V: randV()}
		if err := h.Begin(m); err != nil {
			t.Fatal(err)
		}
		cur[m.OID] = m
		pieces[m.OID] = []piece{{m: m, tEnd: math.Inf(1)}}
	}
	// Random churn: updates and departures.
	for step := 0; step < 200; step++ {
		now += 0.5
		id := dual.OID(rng.Intn(150))
		m, alive := cur[id]
		if !alive {
			continue
		}
		ps := pieces[id]
		ps[len(ps)-1].tEnd = now
		if rng.Float64() < 0.1 {
			if err := h.End(id, now); err != nil {
				t.Fatal(err)
			}
			delete(cur, id)
		} else {
			nm := dual.Motion{OID: id, Y0: m.At(now), T0: now, V: randV()}
			if err := h.Begin(nm); err != nil {
				t.Fatal(err)
			}
			cur[id] = nm
			pieces[id] = append(ps, piece{m: nm, tEnd: math.Inf(1)})
			continue
		}
		pieces[id] = ps
	}
	// Queries over the whole recorded timeline.
	for trial := 0; trial < 80; trial++ {
		y1 := rng.Float64()*200 - 50
		t1 := rng.Float64() * now
		q := dual.MORQuery{Y1: y1, Y2: y1 + rng.Float64()*30, T1: t1, T2: t1 + rng.Float64()*20}
		want := map[dual.OID]bool{}
		for id, ps := range pieces {
			for _, p := range ps {
				cq := q
				if cq.T1 < p.m.T0 {
					cq.T1 = p.m.T0
				}
				if cq.T2 > p.tEnd {
					cq.T2 = p.tEnd
				}
				if cq.T1 <= cq.T2 && p.m.Matches(cq) {
					want[id] = true
					break
				}
			}
		}
		got := map[dual.OID]bool{}
		if err := h.QueryPast(q, func(id dual.OID) { got[id] = true }); err != nil {
			t.Fatal(err)
		}
		// float32 rounding slack at boundaries.
		missing, spurious := 0, 0
		for id := range want {
			if !got[id] {
				missing++
			}
		}
		for id := range got {
			if !want[id] {
				spurious++
			}
		}
		if missing+spurious > (len(want)+20)/20 {
			t.Fatalf("trial %d: %d missing, %d spurious of %d", trial, missing, spurious, len(want))
		}
	}
}

// historyArchive is n objects with two legs each, the first archived at
// t = 1, and the pieces a brute-force scan needs to answer over it.
func historyArchive(t *testing.T, n int, seed int64) (*History, []historyPiece, map[dual.OID]dual.Motion) {
	t.Helper()
	h, err := NewHistory(pager.NewMemStore(1024), testTerrain)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	open := map[dual.OID]dual.Motion{}
	var pieces []historyPiece
	for leg := 0; leg < 2; leg++ {
		for i := 0; i < n; i++ {
			v := testTerrain.VMin + rng.Float64()*(testTerrain.VMax-testTerrain.VMin)
			if rng.Intn(2) == 0 {
				v = -v
			}
			m := dual.Motion{OID: dual.OID(i), Y0: rng.Float64() * testTerrain.YMax, T0: float64(leg), V: v}
			if err := h.Begin(m); err != nil {
				t.Fatal(err)
			}
			if old, ok := open[m.OID]; ok {
				pieces = append(pieces, historyPiece{old, m.T0})
			}
			open[m.OID] = m
		}
	}
	return h, pieces, open
}

// historyPiece is one archived trajectory piece: m over [m.T0, tEnd].
type historyPiece struct {
	m    dual.Motion
	tEnd float64
}

// historyScan answers q as History.QueryPast decides it, by a linear scan:
// every archived piece through the same float32 rectangle and segment
// test, every open motion clipped to its validity.
func historyScan(pieces []historyPiece, open map[dual.OID]dual.Motion, q dual.MORQuery) map[dual.OID]bool {
	rect := geom.Rect{MinX: q.T1, MinY: q.Y1, MaxX: q.T2, MaxY: q.Y2}
	got := map[dual.OID]bool{}
	for _, p := range pieces {
		it := segItem(p.m, geom.Segment{
			A: geom.Point{X: p.m.T0, Y: p.m.Y0},
			B: geom.Point{X: p.tEnd, Y: p.m.At(p.tEnd)},
		})
		r := it.Rect
		it.Rect = geom.Rect{
			MinX: float64(float32(r.MinX)), MinY: float64(float32(r.MinY)),
			MaxX: float64(float32(r.MaxX)), MaxY: float64(float32(r.MaxY)),
		}
		if it.Rect.Intersects(rect) && segHit(it, rect) {
			got[p.m.OID] = true
		}
	}
	for id, m := range open {
		if q.T2 < m.T0 {
			continue
		}
		cq := q
		if cq.T1 < m.T0 {
			cq.T1 = m.T0
		}
		if m.Matches(cq) {
			got[id] = true
		}
	}
	return got
}

// checkHistoryQuery runs q through QueryPast and compares it with the scan.
func checkHistoryQuery(t *testing.T, h *History, pieces []historyPiece, open map[dual.OID]dual.Motion, q dual.MORQuery) {
	t.Helper()
	got := map[dual.OID]bool{}
	if err := h.QueryPast(q, func(id dual.OID) {
		if got[id] {
			t.Fatalf("query %+v reported %d twice", q, id)
		}
		got[id] = true
	}); err != nil {
		t.Fatalf("QueryPast(%+v): %v", q, err)
	}
	want := historyScan(pieces, open, q)
	for id := range want {
		if !got[id] {
			t.Fatalf("query %+v lost %d: %d of %d reported", q, id, len(got), len(want))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("query %+v reported %d objects, the scan %d", q, len(got), len(want))
	}
}

// History refuses non-finite input instead of archiving it: a NaN
// coordinate in the R*-tree used to hide other objects' pieces from every
// later search.
func TestHistoryRefusesNonFinite(t *testing.T) {
	h, pieces, open := historyArchive(t, 400, 11)
	nan, inf := math.NaN(), math.Inf(1)
	for _, m := range []dual.Motion{
		{OID: 7, Y0: nan, T0: 3, V: 1},
		{OID: 8, Y0: 50, T0: nan, V: 1},
		{OID: 9, Y0: 50, T0: 3, V: -inf},
		{OID: 1000, Y0: inf, T0: 3, V: 0},
	} {
		if err := h.Begin(m); !errors.Is(err, ErrInvalidMotion) {
			t.Fatalf("Begin(%+v) = %v, want ErrInvalidMotion", m, err)
		}
	}
	for _, tEnd := range []float64{nan, inf, -inf, 0.5} {
		if err := h.End(5, tEnd); !errors.Is(err, ErrInvalidMotion) {
			t.Fatalf("End(5, %v) = %v, want ErrInvalidMotion", tEnd, err)
		}
	}
	// A static object from t = -1e308: closing it at +1e308 spans more
	// than the float range, so its end position is 0·Inf = NaN.
	far := dual.Motion{OID: 1000, Y0: 50, T0: -1e308}
	if err := h.Begin(far); err != nil {
		t.Fatal(err)
	}
	open[far.OID] = far
	if err := h.Begin(dual.Motion{OID: 1000, Y0: 50, T0: 1e308}); !errors.Is(err, ErrInvalidMotion) {
		t.Fatalf("Begin past the float range = %v, want ErrInvalidMotion", err)
	}
	if err := h.End(1000, 1e308); !errors.Is(err, ErrInvalidMotion) {
		t.Fatalf("End past the float range = %v, want ErrInvalidMotion", err)
	}
	for _, q := range []dual.MORQuery{
		{Y1: nan, Y2: 10, T1: 0, T2: 1},
		{Y1: 0, Y2: 10, T1: 0, T2: inf},
		{Y1: 10, Y2: 0, T1: 0, T2: 1},
		{Y1: 0, Y2: 10, T1: 2, T2: 1},
	} {
		if err := h.QueryPast(q, func(dual.OID) {}); !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("QueryPast(%+v) = %v, want ErrInvalidQuery", q, err)
		}
	}
	if h.Closed() != 400 || h.Open() != 401 {
		t.Fatalf("closed=%d open=%d after refused calls, want 400 and 401", h.Closed(), h.Open())
	}
	q := dual.MORQuery{Y1: 0, Y2: testTerrain.YMax, T1: 1, T2: 2}
	checkHistoryQuery(t, h, pieces, open, q)
	checkHistoryQuery(t, h, pieces, open, dual.MORQuery{Y1: -1e3, Y2: 1e3, T1: 0, T2: 1})
}

// FuzzHistoryHostile feeds arbitrary float bits through Begin, End and
// QueryPast on an archive of well-formed trajectories. Each call returns a
// typed ErrInvalidMotion or ErrInvalidQuery, or does what the model says:
// every later query answers what a linear scan over the archived pieces
// answers. Never a panic, never an answer lost to a poisoned tree.
func FuzzHistoryHostile(f *testing.F) {
	bits := math.Float64bits
	f.Add(uint8(3), bits(50), bits(2), bits(1), bits(4), bits(0), bits(100), bits(0), bits(5))
	f.Add(uint8(3), bits(math.NaN()), bits(2), bits(1), bits(4), bits(0), bits(100), bits(0), bits(5))
	f.Add(uint8(5), bits(50), bits(math.NaN()), bits(1), bits(4), bits(0), bits(100), bits(1), bits(2))
	f.Add(uint8(45), bits(50), bits(2), bits(0), bits(1e308), bits(-1e308), bits(1e308), bits(-1e308), bits(1e308))
	f.Add(uint8(7), bits(1e300), bits(-1e300), bits(1e300), bits(1e300), bits(1), bits(math.Inf(1)), bits(0), bits(1))
	f.Add(uint8(9), bits(math.Copysign(0, -1)), bits(1), bits(-0.5), bits(math.Inf(-1)), bits(5), bits(4), bits(1), bits(3))
	f.Fuzz(func(t *testing.T, oid uint8, y0, t0, v, tEnd, y1, y2, t1, t2 uint64) {
		h, pieces, open := historyArchive(t, 40, 3)
		finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
		// piece reports whether closing m at tEnd is a piece History keeps.
		piece := func(m dual.Motion, tEnd float64) bool { return tEnd >= m.T0 && finite(m.At(tEnd)) }

		id := dual.OID(oid % 48) // 0–39 hold motions, 40–47 are new
		m := dual.Motion{OID: id, Y0: math.Float64frombits(y0), T0: math.Float64frombits(t0), V: math.Float64frombits(v)}
		old, had := open[id]
		refuse := !finite(m.Y0) || !finite(m.T0) || !finite(m.V) || (had && !piece(old, m.T0))
		switch err := h.Begin(m); {
		case err == nil && !refuse:
			if had {
				pieces = append(pieces, historyPiece{old, m.T0})
			}
			open[id] = m
		case refuse && errors.Is(err, ErrInvalidMotion):
		default:
			t.Fatalf("Begin(%+v) = %v, want refused: %v", m, err, refuse)
		}

		te := math.Float64frombits(tEnd)
		old, had = open[id]
		switch err := h.End(id, te); {
		case err == nil && had && finite(te) && piece(old, te):
			pieces = append(pieces, historyPiece{old, te})
			delete(open, id)
		case err != nil && (!had || !finite(te) || !piece(old, te)):
			// Only closing an object with no open motion may fail untyped.
			if (had || !finite(te)) && !errors.Is(err, ErrInvalidMotion) {
				t.Fatalf("End(%d, %v) = %v, want ErrInvalidMotion", id, te, err)
			}
		default:
			t.Fatalf("End(%d, %v) = %v with an open motion: %v", id, te, err, had)
		}

		q := dual.MORQuery{Y1: math.Float64frombits(y1), Y2: math.Float64frombits(y2),
			T1: math.Float64frombits(t1), T2: math.Float64frombits(t2)}
		if ValidateQuery(q) != nil {
			if err := h.QueryPast(q, func(dual.OID) {}); !errors.Is(err, ErrInvalidQuery) {
				t.Fatalf("QueryPast(%+v) = %v, want ErrInvalidQuery", q, err)
			}
		} else {
			checkHistoryQuery(t, h, pieces, open, q)
		}
		checkHistoryQuery(t, h, pieces, open, dual.MORQuery{Y1: -1e300, Y2: 1e300, T1: -1e300, T2: 1e300})
	})
}
