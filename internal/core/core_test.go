package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

var testTerrain = dual.Terrain{YMax: 100, VMin: 0.5, VMax: 2.0}

// sim is a tiny mobile-object simulator used by the differential tests:
// objects move in the terrain, reflect at borders (issuing updates), and
// randomly change speed.
type sim struct {
	rng  *rand.Rand
	tr   dual.Terrain
	now  float64
	cur  map[dual.OID]dual.Motion
	next dual.OID
}

func newSim(seed int64, tr dual.Terrain) *sim {
	return &sim{rng: rand.New(rand.NewSource(seed)), tr: tr, cur: make(map[dual.OID]dual.Motion)}
}

func (s *sim) randV() float64 {
	v := s.tr.VMin + s.rng.Float64()*(s.tr.VMax-s.tr.VMin)
	if s.rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func (s *sim) spawn(ix Index1D, t *testing.T) dual.OID {
	t.Helper()
	m := dual.Motion{
		OID: s.next,
		Y0:  s.rng.Float64() * s.tr.YMax,
		T0:  s.now,
		V:   s.randV(),
	}
	s.next++
	if err := ix.Insert(m); err != nil {
		t.Fatalf("insert: %v", err)
	}
	s.cur[m.OID] = m
	return m.OID
}

// tick advances time by dt, reflecting every object that reached a border
// (the forced update of §2) through delete+insert.
func (s *sim) tick(ix Index1D, dt float64, t *testing.T) {
	t.Helper()
	s.now += dt
	for id, m := range s.cur {
		var tCross float64
		if m.V > 0 {
			tCross = m.T0 + (s.tr.YMax-m.Y0)/m.V
		} else {
			tCross = m.T0 + (0-m.Y0)/m.V
		}
		if tCross <= s.now {
			if err := ix.Delete(m); err != nil {
				t.Fatalf("reflect delete: %v", err)
			}
			ny := 0.0
			if m.V > 0 {
				ny = s.tr.YMax
			}
			nm := dual.Motion{OID: id, Y0: ny, T0: tCross, V: -m.V}
			if err := ix.Insert(nm); err != nil {
				t.Fatalf("reflect insert: %v", err)
			}
			s.cur[id] = nm
		}
	}
}

// churn randomly updates k objects' motion at the current time.
func (s *sim) churn(ix Index1D, k int, t *testing.T) {
	t.Helper()
	ids := make([]dual.OID, 0, len(s.cur))
	for id := range s.cur {
		ids = append(ids, id)
	}
	for i := 0; i < k && len(ids) > 0; i++ {
		id := ids[s.rng.Intn(len(ids))]
		old := s.cur[id]
		if err := ix.Delete(old); err != nil {
			t.Fatalf("churn delete: %v", err)
		}
		nm := dual.Motion{OID: id, Y0: old.At(s.now), T0: s.now, V: s.randV()}
		// Clamp reflection artifacts: At() may drift outside if tick was
		// skipped; keep it in terrain.
		if nm.Y0 < 0 {
			nm.Y0 = 0
		}
		if nm.Y0 > s.tr.YMax {
			nm.Y0 = s.tr.YMax
		}
		if err := ix.Insert(nm); err != nil {
			t.Fatalf("churn insert: %v", err)
		}
		s.cur[id] = nm
	}
}

func (s *sim) randQuery(maxW, maxT float64) dual.MORQuery {
	y1 := s.rng.Float64() * s.tr.YMax
	y2 := math.Min(y1+s.rng.Float64()*maxW, s.tr.YMax)
	t1 := s.now + s.rng.Float64()*20
	t2 := t1 + s.rng.Float64()*maxT
	return dual.MORQuery{Y1: y1, Y2: y2, T1: t1, T2: t2}
}

func (s *sim) bruteForce(q dual.MORQuery) map[dual.OID]bool {
	out := make(map[dual.OID]bool)
	for id, m := range s.cur {
		if m.Matches(q) {
			out[id] = true
		}
	}
	return out
}

// nearBoundary reports whether m sits within tol of the query boundary, in
// which case float32 page rounding may legitimately flip its membership.
func nearBoundary(m dual.Motion, q dual.MORQuery, tol float64) bool {
	big := dual.MORQuery{Y1: q.Y1 - tol, Y2: q.Y2 + tol, T1: q.T1 - tol, T2: q.T2 + tol}
	small := dual.MORQuery{Y1: q.Y1 + tol, Y2: q.Y2 - tol, T1: q.T1 + tol, T2: q.T2 - tol}
	if small.Y1 > small.Y2 || small.T1 > small.T2 {
		return m.Matches(big)
	}
	return m.Matches(big) && !m.Matches(small)
}

// checkQuery compares an index's answer against brute force; when tol > 0,
// mismatches are forgiven for objects within tol of the query boundary.
func checkQuery(t *testing.T, ix Index1D, s *sim, q dual.MORQuery, tol float64) {
	t.Helper()
	want := s.bruteForce(q)
	got := make(map[dual.OID]bool)
	dups := 0
	if err := ix.Query(q, func(id dual.OID) {
		if got[id] {
			dups++
		}
		got[id] = true
	}); err != nil {
		t.Fatalf("query: %v", err)
	}
	if dups > 0 {
		t.Fatalf("query emitted %d duplicates", dups)
	}
	for id := range want {
		if !got[id] {
			if tol > 0 && nearBoundary(s.cur[id], q, tol) {
				continue
			}
			t.Fatalf("missing object %d (motion %+v) for query %+v", id, s.cur[id], q)
		}
	}
	for id := range got {
		if !want[id] {
			if tol > 0 && nearBoundary(s.cur[id], q, tol) {
				continue
			}
			t.Fatalf("spurious object %d (motion %+v) for query %+v", id, s.cur[id], q)
		}
	}
}

// runDifferential drives a full simulated scenario against an index.
func runDifferential(t *testing.T, mk func(st pager.Store) Index1D, tol float64, seed int64) {
	t.Helper()
	st := pager.NewMemStore(1024)
	ix := mk(st)
	s := newSim(seed, testTerrain)
	for i := 0; i < 400; i++ {
		s.spawn(ix, t)
	}
	for step := 0; step < 60; step++ {
		s.tick(ix, 5, t)
		s.churn(ix, 15, t)
		if step%5 == 0 {
			// Small queries (within a subterrain) and large ones.
			checkQuery(t, ix, s, s.randQuery(8, 10), tol)
			checkQuery(t, ix, s, s.randQuery(60, 30), tol)
			checkQuery(t, ix, s, s.randQuery(100, 50), tol)
			// Degenerate-width and degenerate-time queries.
			q := s.randQuery(0, 10)
			checkQuery(t, ix, s, q, tol)
			q = s.randQuery(40, 0)
			checkQuery(t, ix, s, q, tol)
		}
	}
	if ix.Len() != len(s.cur) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(s.cur))
	}
}

func TestDualBPlusDifferential(t *testing.T) {
	for _, c := range []int{1, 4, 8} {
		c := c
		mk := func(st pager.Store) Index1D {
			ix, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: c, Codec: bptree.Wide})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		}
		runDifferential(t, mk, 0, int64(1000+c))
	}
}

func TestKDDualDifferential(t *testing.T) {
	mk := func(st pager.Store) Index1D {
		ix, err := NewKDDual(st, KDDualConfig{Terrain: testTerrain})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	runDifferential(t, mk, 0.02, 2000)
}

func TestRStarSegDifferential(t *testing.T) {
	mk := func(st pager.Store) Index1D {
		ix, err := NewRStarSeg(st, RStarSegConfig{Terrain: testTerrain})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	runDifferential(t, mk, 0.02, 3000)
}

// The rotation scheme must keep at most two live generations over many
// periods, and retired generations must release their pages.
func TestRotationBoundsGenerations(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(7, testTerrain)
	for i := 0; i < 200; i++ {
		s.spawn(ix, t)
	}
	// TPeriod = 100/0.5 = 200. Simulate 5 periods.
	peakPages := 0
	for step := 0; step < 500; step++ {
		s.tick(ix, 2, t)
		s.churn(ix, 5, t)
		if g := ix.Generations(); g > 2 {
			t.Fatalf("step %d: %d live generations", step, g)
		}
		if p := st.PagesInUse(); p > peakPages {
			peakPages = p
		}
	}
	// Space must stay bounded (no leak across generations): the last
	// snapshot should be within 3x of what one generation of 200 objects
	// needs — generously bounded by the observed peak.
	if st.PagesInUse() > peakPages {
		t.Fatal("space grew past peak after rotations")
	}
	checkQuery(t, ix, s, s.randQuery(50, 30), 0)
}

func TestValidateMotion(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix, _ := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4})
	bad := []dual.Motion{
		{OID: 1, Y0: 50, T0: 0, V: 0.1}, // too slow
		{OID: 1, Y0: 50, T0: 0, V: 5},   // too fast
		{OID: 1, Y0: 50, T0: 0, V: -5},  // too fast negative
		{OID: 1, Y0: 200, T0: 0, V: 1},  // outside terrain
		{OID: 1, Y0: -5, T0: 0, V: 1},   // outside terrain
		{OID: 1, Y0: 50, T0: 0, V: math.NaN()},
		{OID: 1, Y0: math.NaN(), T0: 0, V: 1},
		{OID: 1, Y0: 50, T0: math.NaN(), V: 1},
		{OID: 1, Y0: 50, T0: math.Inf(1), V: 1},
	}
	for i, m := range bad {
		if err := ix.Insert(m); err == nil {
			t.Errorf("case %d: invalid motion accepted: %+v", i, m)
		}
	}
	if ix.Len() != 0 {
		t.Errorf("Len() = %d after only rejected inserts", ix.Len())
	}
}

// A query the planners cannot order is refused at every entry point:
// unchecked, they clamp it into band 0 (or scan past a bound they never
// look at) and answer with the wrong objects and a nil error. Ranges that
// are merely degenerate or off the terrain stay legal and exact.
func TestValidateQuery(t *testing.T) {
	ix := newParallelDual(t, 4)
	s := newSim(17, testTerrain)
	for i := 0; i < 300; i++ {
		s.spawn(ix, t)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, q := range []dual.MORQuery{
		{Y1: nan, Y2: 60, T1: 20, T2: 30},
		{Y1: 10, Y2: nan, T1: 20, T2: 30},
		{Y1: 10, Y2: 60, T1: nan, T2: 30},
		{Y1: 10, Y2: 60, T1: 20, T2: nan},
		{Y1: 10, Y2: inf, T1: 20, T2: 30},
		{Y1: -inf, Y2: 60, T1: 20, T2: 30},
		{Y1: 10, Y2: 60, T1: 20, T2: inf},
		{Y1: 60, Y2: 10, T1: 20, T2: 30},
		{Y1: 10, Y2: 90, T1: 30, T2: 20}, // a Lemma-1 query, reversed in time
	} {
		if err := ValidateQuery(q); err == nil || !strings.HasPrefix(err.Error(), "core: ") {
			t.Errorf("ValidateQuery(%+v) = %v, want a core: error", q, err)
		}
		emitted := 0
		err := ix.Query(q, func(dual.OID) { emitted++ })
		got, aerr := ix.QueryAppend(nil, q)
		par, perr := ix.QueryParallelCtx(context.Background(), NewExecutor(2), q)
		if err == nil || aerr == nil || perr == nil || emitted+len(got)+len(par) != 0 {
			t.Errorf("query %+v: errors %v / %v / %v with %d answers, want three refusals and none",
				q, err, aerr, perr, emitted+len(got)+len(par))
		}
	}
	for _, q := range []dual.MORQuery{
		{Y1: 40, Y2: 40, T1: 20, T2: 30},
		{Y1: 10, Y2: 60, T1: 25, T2: 25},
		{Y1: 40, Y2: 40, T1: 25, T2: 25},
		{Y1: -50, Y2: -10, T1: 20, T2: 30},
		{Y1: 150, Y2: 300, T1: 20, T2: 30},
		{Y1: -10, Y2: 200, T1: 20, T2: 30},
	} {
		if err := ValidateQuery(q); err != nil {
			t.Errorf("ValidateQuery(%+v) = %v, want nil", q, err)
		}
		checkQuery(t, ix, s, q, 0.02)
	}
}

func TestDeleteUnknown(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix, _ := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4})
	m := dual.Motion{OID: 5, Y0: 10, T0: 0, V: 1}
	if err := ix.Delete(m); err == nil {
		t.Fatal("delete of absent motion succeeded")
	}
	kd, _ := NewKDDual(st, KDDualConfig{Terrain: testTerrain})
	_ = kd.Insert(m)
	wrong := m
	wrong.V = 1.5
	if err := kd.Delete(wrong); err == nil {
		t.Fatal("kd delete of wrong motion succeeded")
	}
}

// DualBPlus must route small queries to the observation index with minimal
// E: verify via direct construction that a query near line i uses data
// consistent with that line (black-box: identical answers regardless,
// white-box: exercised for coverage of all c routes).
func TestDualBPlusAllRoutes(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 8, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(13, testTerrain)
	for i := 0; i < 300; i++ {
		s.spawn(ix, t)
	}
	h := testTerrain.YMax / 8
	for i := 0; i < 8; i++ {
		// A query centered in each subterrain.
		y1 := (float64(i) + 0.25) * h
		q := dual.MORQuery{Y1: y1, Y2: y1 + h/2, T1: 5, T2: 15}
		checkQuery(t, ix, s, q, 0)
	}
}

// Full-terrain queries exercise the pure case-ii path (all subterrains).
func TestDualBPlusFullTerrainQuery(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(17, testTerrain)
	for i := 0; i < 250; i++ {
		s.spawn(ix, t)
	}
	q := dual.MORQuery{Y1: 0, Y2: testTerrain.YMax, T1: 1, T2: 30}
	checkQuery(t, ix, s, q, 0)
	// Nearly every object matches a full-terrain query; the exceptions are
	// motions that extrapolate past a border before the window opens.
	got := 0
	_ = ix.Query(q, func(dual.OID) { got++ })
	if got < 240 {
		t.Fatalf("full-terrain query found only %d of 250", got)
	}
}

// Query at a single time instant (T1 == T2) — the MOR1 special case — must
// work through every method.
func TestInstantQueries(t *testing.T) {
	st := pager.NewMemStore(1024)
	bp, _ := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Wide})
	s := newSim(19, testTerrain)
	for i := 0; i < 200; i++ {
		s.spawn(bp, t)
	}
	for k := 0; k < 20; k++ {
		q := s.randQuery(30, 0)
		q.T2 = q.T1
		checkQuery(t, bp, s, q, 0)
	}
}

func TestPartTreeDualDifferential(t *testing.T) {
	mk := func(st pager.Store) Index1D {
		ix, err := NewPartTreeDual(st, PartTreeDualConfig{Terrain: testTerrain})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	runDifferential(t, mk, 0.02, 4000)
}

// SpeedPartitioned handles the paper's slow-object population (§3/§3.6):
// a mixed workload of static, crawling and moving objects must answer
// exactly.
func TestSpeedPartitioned(t *testing.T) {
	st := pager.NewMemStore(1024)
	moving, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewSpeedPartitioned(st, SpeedPartitionedConfig{Terrain: testTerrain, Codec: bptree.Wide}, moving)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(97))
	cur := map[dual.OID]dual.Motion{}
	for i := 0; i < 600; i++ {
		var v float64
		switch i % 3 {
		case 0: // static
			v = 0
		case 1: // crawling below VMin
			v = (rng.Float64() - 0.5) * 2 * testTerrain.VMin * 0.9
		default: // moving
			v = testTerrain.VMin + rng.Float64()*(testTerrain.VMax-testTerrain.VMin)
			if rng.Intn(2) == 0 {
				v = -v
			}
		}
		m := dual.Motion{OID: dual.OID(i), Y0: rng.Float64() * testTerrain.YMax, T0: rng.Float64() * 10, V: v}
		if err := ix.Insert(m); err != nil {
			t.Fatalf("insert %d (v=%v): %v", i, v, err)
		}
		cur[m.OID] = m
	}
	if ix.SlowLen() != 400 {
		t.Fatalf("slow side holds %d, want 400", ix.SlowLen())
	}
	if ix.Len() != 600 {
		t.Fatalf("Len = %d", ix.Len())
	}
	for trial := 0; trial < 60; trial++ {
		y1 := rng.Float64() * testTerrain.YMax
		y2 := math.Min(y1+rng.Float64()*80, testTerrain.YMax)
		t1 := 10 + rng.Float64()*30
		q := dual.MORQuery{Y1: y1, Y2: y2, T1: t1, T2: t1 + rng.Float64()*40}
		want := map[dual.OID]bool{}
		for id, m := range cur {
			if m.Matches(q) {
				want[id] = true
			}
		}
		got := map[dual.OID]bool{}
		if err := ix.Query(q, func(id dual.OID) { got[id] = true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("missing %d", id)
			}
		}
	}
	// Updates on both sides.
	for i := 0; i < 200; i++ {
		id := dual.OID(rng.Intn(600))
		old := cur[id]
		if err := ix.Delete(old); err != nil {
			t.Fatalf("delete: %v", err)
		}
		nm := dual.Motion{OID: id, Y0: rng.Float64() * testTerrain.YMax, T0: 50, V: 0}
		if rng.Intn(2) == 0 {
			nm.V = testTerrain.VMin + rng.Float64()
		}
		if err := ix.Insert(nm); err != nil {
			t.Fatalf("reinsert: %v", err)
		}
		cur[id] = nm
	}
	q := dual.MORQuery{Y1: 100, Y2: 300, T1: 60, T2: 90}
	want := 0
	for _, m := range cur {
		if m.Matches(q) {
			want++
		}
	}
	got := 0
	_ = ix.Query(q, func(dual.OID) { got++ })
	if got != want {
		t.Fatalf("after churn: got %d want %d", got, want)
	}
}

// The slow side's scan must cover windows before t = 0: a slow object
// drifts from its intercept by up to cutoff·|t| at either end of the
// window, and a window ending below zero would otherwise narrow the scan.
func TestSpeedPartitionedWindowBeforeZero(t *testing.T) {
	tr := dual.Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66}
	st := pager.NewMemStore(1024)
	moving, err := NewDualBPlus(st, DualBPlusConfig{Terrain: tr, C: 4, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewSpeedPartitioned(st, SpeedPartitionedConfig{Terrain: tr, SlowCutoff: 0.3, Codec: bptree.Wide}, moving)
	if err != nil {
		t.Fatal(err)
	}
	m := dual.Motion{OID: 1, Y0: 500, T0: 0, V: 0.1}
	if err := ix.Insert(m); err != nil {
		t.Fatal(err)
	}
	for _, q := range []dual.MORQuery{
		{Y1: 489.5, Y2: 490.5, T1: -100, T2: -50},
		{Y1: 489.5, Y2: 490.5, T1: -100, T2: 10},
	} {
		if !m.Matches(q) {
			t.Fatalf("%+v does not match %+v; the test is wrong", m, q)
		}
		n := 0
		if err := ix.Query(q, func(dual.OID) { n++ }); err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Fatalf("query %+v reported %d objects, want the slow one", q, n)
		}
	}
}

// Both sides refuse an off-terrain motion as ErrInvalidMotion.
func TestSpeedPartitionedOffTerrainTyped(t *testing.T) {
	st := pager.NewMemStore(1024)
	moving, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewSpeedPartitioned(st, SpeedPartitionedConfig{Terrain: testTerrain, Codec: bptree.Wide}, moving)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 0.1, 1} { // static, slow, moving
		err := ix.Insert(dual.Motion{OID: 1, Y0: testTerrain.YMax + 50, V: v})
		if !errors.Is(err, ErrInvalidMotion) {
			t.Fatalf("v=%v: off-terrain insert returned %v, want ErrInvalidMotion", v, err)
		}
	}
	if ix.Len() != 0 {
		t.Fatalf("Len = %d after refused inserts", ix.Len())
	}
}

func TestConstructorValidation(t *testing.T) {
	st := pager.NewMemStore(1024)
	bad := dual.Terrain{YMax: -1, VMin: 0.5, VMax: 2}
	if _, err := NewDualBPlus(st, DualBPlusConfig{Terrain: bad}); err == nil {
		t.Error("DualBPlus accepted bad terrain")
	}
	if _, err := NewKDDual(st, KDDualConfig{Terrain: bad}); err == nil {
		t.Error("KDDual accepted bad terrain")
	}
	if _, err := NewRStarSeg(st, RStarSegConfig{Terrain: bad}); err == nil {
		t.Error("RStarSeg accepted bad terrain")
	}
	if _, err := NewPartTreeDual(st, PartTreeDualConfig{Terrain: bad}); err == nil {
		t.Error("PartTreeDual accepted bad terrain")
	}
	if _, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: -3}); err == nil {
		t.Error("DualBPlus accepted negative c")
	}
	moving, _ := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain})
	if _, err := NewSpeedPartitioned(st, SpeedPartitionedConfig{Terrain: testTerrain, SlowCutoff: 99}, moving); err == nil {
		t.Error("SpeedPartitioned accepted cutoff above VMax")
	}
	if _, err := NewRotator[dual.Motion, *dualBPGen](0, motionTime, nil); err == nil {
		t.Error("Rotator accepted zero period")
	}
	if _, err := NewHistory(st, dual.Terrain{}); err == nil {
		t.Error("History accepted zero terrain")
	}
}

func TestPageSizeTooSmall(t *testing.T) {
	tiny := pager.NewMemStore(32)
	if _, err := bptree.New(tiny, bptree.Config{}); err == nil {
		t.Error("bptree accepted 32-byte pages")
	}
}

// Metamorphic property: enlarging a query never loses results, for every
// index type.
func TestQueryMonotonicity(t *testing.T) {
	builders := map[string]func(st pager.Store) Index1D{
		"dualbp": func(st pager.Store) Index1D {
			ix, _ := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Wide})
			return ix
		},
		"kd": func(st pager.Store) Index1D {
			ix, _ := NewKDDual(st, KDDualConfig{Terrain: testTerrain})
			return ix
		},
		"rstar": func(st pager.Store) Index1D {
			ix, _ := NewRStarSeg(st, RStarSegConfig{Terrain: testTerrain})
			return ix
		},
		"parttree": func(st pager.Store) Index1D {
			ix, _ := NewPartTreeDual(st, PartTreeDualConfig{Terrain: testTerrain})
			return ix
		},
	}
	for name, mk := range builders {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			st := pager.NewMemStore(1024)
			ix := mk(st)
			s := newSim(int64(5000+len(name)), testTerrain)
			for i := 0; i < 300; i++ {
				s.spawn(ix, t)
			}
			for trial := 0; trial < 30; trial++ {
				q := s.randQuery(40, 20)
				grow := s.rng.Float64() * 15
				big := dual.MORQuery{Y1: q.Y1 - grow, Y2: q.Y2 + grow, T1: q.T1, T2: q.T2 + grow}
				inner := map[dual.OID]bool{}
				_ = ix.Query(q, func(id dual.OID) { inner[id] = true })
				outer := map[dual.OID]bool{}
				_ = ix.Query(big, func(id dual.OID) { outer[id] = true })
				for id := range inner {
					if !outer[id] {
						t.Fatalf("%s: enlarging the query lost object %d", name, id)
					}
				}
			}
		})
	}
}

// The Compact codec (the paper's 4-byte records) must survive rotation
// across several periods with only boundary-rounding error.
func TestCompactRotationLongRun(t *testing.T) {
	st := pager.NewMemStore(4096)
	ix, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Compact})
	if err != nil {
		t.Fatal(err)
	}
	s := newSim(6007, testTerrain)
	for i := 0; i < 300; i++ {
		s.spawn(ix, t)
	}
	for step := 0; step < 400; step++ {
		s.tick(ix, 2, t)
		s.churn(ix, 6, t)
		if step%40 == 0 {
			checkQuery(t, ix, s, s.randQuery(30, 15), 0.05)
		}
	}
	if g := ix.Generations(); g > 2 {
		t.Fatalf("%d generations live", g)
	}
}

// A generation that empties while newest must be retired once a newer
// generation appears (no page leak across epochs).
func TestRotatorRetiresStaleEmptyGeneration(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix, err := NewDualBPlus(st, DualBPlusConfig{Terrain: testTerrain, C: 2, Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	m := dual.Motion{OID: 1, Y0: 10, T0: 5, V: 1}
	if err := ix.Insert(m); err != nil {
		t.Fatal(err)
	}
	// Drain the only generation: it stays (nothing newer exists yet).
	if err := ix.Delete(m); err != nil {
		t.Fatal(err)
	}
	if g := ix.Generations(); g != 1 {
		t.Fatalf("generations after drain = %d", g)
	}
	// Insert into a much later epoch: the stale empty generation retires.
	period := testTerrain.TPeriod()
	m2 := dual.Motion{OID: 2, Y0: 10, T0: 3*period + 1, V: 1}
	if err := ix.Insert(m2); err != nil {
		t.Fatal(err)
	}
	if g := ix.Generations(); g != 1 {
		t.Fatalf("stale generation not retired: %d live", g)
	}
}
