package twod

import (
	"math"
	"math/rand"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

var terr = Terrain2D{XMax: 100, YMax: 100, VMin: 0.5, VMax: 2}

type sim2 struct {
	rng  *rand.Rand
	now  float64
	cur  map[dual.OID]Motion2D
	next dual.OID
}

func newSim2(seed int64) *sim2 {
	return &sim2{rng: rand.New(rand.NewSource(seed)), cur: make(map[dual.OID]Motion2D)}
}

func (s *sim2) randComp() float64 {
	v := terr.VMin + s.rng.Float64()*(terr.VMax-terr.VMin)
	if s.rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

func (s *sim2) spawn(ix Index2D, t *testing.T) {
	t.Helper()
	m := Motion2D{
		OID: s.next,
		X0:  s.rng.Float64() * terr.XMax,
		Y0:  s.rng.Float64() * terr.YMax,
		T0:  s.now,
		VX:  s.randComp(),
		VY:  s.randComp(),
	}
	s.next++
	if err := ix.Insert(m); err != nil {
		t.Fatalf("insert: %v", err)
	}
	s.cur[m.OID] = m
}

// tick reflects components at borders, as the model's forced updates.
func (s *sim2) tick(ix Index2D, dt float64, t *testing.T) {
	t.Helper()
	s.now += dt
	for id, m := range s.cur {
		cross := func(p0, v, max float64) float64 {
			if v > 0 {
				return m.T0 + (max-p0)/v
			}
			return m.T0 + (0-p0)/v
		}
		tx := cross(m.X0, m.VX, terr.XMax)
		ty := cross(m.Y0, m.VY, terr.YMax)
		tc := math.Min(tx, ty)
		if tc <= s.now {
			if err := ix.Delete(m); err != nil {
				t.Fatalf("reflect delete: %v", err)
			}
			x, y := m.At(tc)
			nm := Motion2D{OID: id, X0: clamp(x, terr.XMax), Y0: clamp(y, terr.YMax), T0: tc, VX: m.VX, VY: m.VY}
			if tx <= ty {
				nm.VX = -m.VX
			}
			if ty <= tx {
				nm.VY = -m.VY
			}
			if err := ix.Insert(nm); err != nil {
				t.Fatalf("reflect insert: %v", err)
			}
			s.cur[id] = nm
		}
	}
}

func clamp(v, max float64) float64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}

func (s *sim2) churn(ix Index2D, k int, t *testing.T) {
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
		x, y := old.At(s.now)
		nm := Motion2D{OID: id, X0: clamp(x, terr.XMax), Y0: clamp(y, terr.YMax), T0: s.now, VX: s.randComp(), VY: s.randComp()}
		if err := ix.Insert(nm); err != nil {
			t.Fatalf("churn insert: %v", err)
		}
		s.cur[id] = nm
	}
}

func (s *sim2) randQuery(maxW, maxT float64) MOR2Query {
	x1 := s.rng.Float64() * terr.XMax
	y1 := s.rng.Float64() * terr.YMax
	t1 := s.now + s.rng.Float64()*15
	return MOR2Query{
		X1: x1, X2: math.Min(x1+s.rng.Float64()*maxW, terr.XMax),
		Y1: y1, Y2: math.Min(y1+s.rng.Float64()*maxW, terr.YMax),
		T1: t1, T2: t1 + s.rng.Float64()*maxT,
	}
}

func near2(m Motion2D, q MOR2Query, tol float64) bool {
	big := MOR2Query{X1: q.X1 - tol, X2: q.X2 + tol, Y1: q.Y1 - tol, Y2: q.Y2 + tol, T1: q.T1 - tol, T2: q.T2 + tol}
	small := MOR2Query{X1: q.X1 + tol, X2: q.X2 - tol, Y1: q.Y1 + tol, Y2: q.Y2 - tol, T1: q.T1 + tol, T2: q.T2 - tol}
	if small.X1 > small.X2 || small.Y1 > small.Y2 || small.T1 > small.T2 {
		return m.Matches(big)
	}
	return m.Matches(big) && !m.Matches(small)
}

func check2(t *testing.T, ix Index2D, s *sim2, q MOR2Query, tol float64) {
	t.Helper()
	want := map[dual.OID]bool{}
	for id, m := range s.cur {
		if m.Matches(q) {
			want[id] = true
		}
	}
	got := map[dual.OID]bool{}
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
		t.Fatalf("%d duplicate emissions", dups)
	}
	for id := range want {
		if !got[id] && !(tol > 0 && near2(s.cur[id], q, tol)) {
			t.Fatalf("missing %d (%+v) for %+v", id, s.cur[id], q)
		}
	}
	for id := range got {
		if !want[id] && !(tol > 0 && near2(s.cur[id], q, tol)) {
			t.Fatalf("spurious %d (%+v) for %+v", id, s.cur[id], q)
		}
	}
}

func runDifferential2(t *testing.T, mk func(st pager.Store) Index2D, tol float64, seed int64) {
	t.Helper()
	st := pager.NewMemStore(1024)
	ix := mk(st)
	s := newSim2(seed)
	for i := 0; i < 300; i++ {
		s.spawn(ix, t)
	}
	for step := 0; step < 40; step++ {
		s.tick(ix, 4, t)
		s.churn(ix, 10, t)
		if step%5 == 0 {
			check2(t, ix, s, s.randQuery(15, 10), tol)
			check2(t, ix, s, s.randQuery(60, 25), tol)
			q := s.randQuery(30, 0) // instant query
			check2(t, ix, s, q, tol)
		}
	}
	if ix.Len() != len(s.cur) {
		t.Fatalf("Len = %d want %d", ix.Len(), len(s.cur))
	}
}

func TestMatches2Exact(t *testing.T) {
	m := Motion2D{OID: 1, X0: 0, Y0: 100, T0: 0, VX: 1, VY: -1}
	// At t=50: (50, 50).
	if !m.Matches(MOR2Query{X1: 45, X2: 55, Y1: 45, Y2: 55, T1: 50, T2: 50}) {
		t.Fatal("exact hit missed")
	}
	// x-range holds at t≈10, y-range at t≈80: no common instant.
	if m.Matches(MOR2Query{X1: 8, X2: 12, Y1: 18, Y2: 22, T1: 0, T2: 100}) {
		t.Fatal("accepted object whose axis conditions hold at different times")
	}
}

func TestKD4Differential(t *testing.T) {
	mk := func(st pager.Store) Index2D {
		ix, err := NewKD4(st, KD4Config{Terrain: terr})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	runDifferential2(t, mk, 0.02, 71)
}

func TestDecomposedDifferential(t *testing.T) {
	mk := func(st pager.Store) Index2D {
		ix, err := NewDecomposed(st, DecomposedConfig{Terrain: terr, C: 4, Codec: bptree.Wide})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	runDifferential2(t, mk, 0, 73)
}

// The rotation table (TestPointDualRotation) re-rolls every update; this is
// the one run at d = 4 whose objects keep physically consistent motions —
// sim2 reflects them at the borders — across several rotation periods.
func TestKD4Rotation(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix, err := NewKD4(st, KD4Config{Terrain: terr})
	if err != nil {
		t.Fatal(err)
	}
	s := newSim2(79)
	for i := 0; i < 150; i++ {
		s.spawn(ix, t)
	}
	// TPeriod = 100/0.5 = 200; run 3+ periods.
	for step := 0; step < 350; step++ {
		s.tick(ix, 2, t)
		s.churn(ix, 4, t)
		if g := ix.Generations(); g > 2 {
			t.Fatalf("step %d: %d generations", step, g)
		}
	}
	check2(t, ix, s, s.randQuery(40, 15), 0.02)
}

func TestValidate2D(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix, _ := NewKD4(st, KD4Config{Terrain: terr})
	bad := []Motion2D{
		{OID: 1, X0: 50, Y0: 50, T0: 0, VX: 0.1, VY: 1}, // vx too slow
		{OID: 1, X0: 50, Y0: 50, T0: 0, VX: 1, VY: 5},   // vy too fast
		{OID: 1, X0: 500, Y0: 50, T0: 0, VX: 1, VY: 1},  // outside
		{OID: 1, X0: 50, Y0: -50, T0: 0, VX: 1, VY: 1},  // outside
	}
	for i, m := range bad {
		if err := ix.Insert(m); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDecomposedDuplicateInsert(t *testing.T) {
	st := pager.NewMemStore(1024)
	ix, _ := NewDecomposed(st, DecomposedConfig{Terrain: terr, C: 4})
	m := Motion2D{OID: 9, X0: 10, Y0: 10, T0: 0, VX: 1, VY: 1}
	if err := ix.Insert(m); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(m); err == nil {
		t.Fatal("duplicate insert accepted")
	}
}

func TestPartTree4Differential(t *testing.T) {
	mk := func(st pager.Store) Index2D {
		ix, err := NewPartTree4(st, PartTree4Config{Terrain: terr})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	runDifferential2(t, mk, 0.02, 83)
}
