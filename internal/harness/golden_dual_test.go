package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/twod"
)

// The assembled-index golden test pins what the four rotated point-dual
// indexes — the k-d and partition-tree duals at d = 2 (package core) and
// d = 4 (package twod) — leave on their pages, what the whole stream costs
// in store reads and writes, and what a fixed query set answers, so that a
// refactor of the assembly layer is shown not to move the paper
// reproduction. Every constant below was captured from the four separate
// implementations (core.KDDual, core.PartTreeDual, twod.KD4,
// twod.PartTree4) as they stood at commit 80c80ed, with one change: the
// rotator walks its generations in ascending epoch order instead of Go map
// order, without which a bulk load's page ids differ from run to run. None
// may be edited to make a later commit pass.

// goldenDual is the surface the stream drives; every one of the four
// indexes has it for its own motion and query type.
type goldenDual[M, Q any] interface {
	Insert(M) error
	Delete(M) error
	Query(Q, func(dual.OID)) error
	Len() int
}

// goldenDualSpec is one row's generators: a motion of object id updated at
// time now, and a query whose window opens shortly after now.
type goldenDualSpec[M, Q any] struct {
	motion func(rng *rand.Rand, id dual.OID, now float64) M
	query  func(rng *rand.Rand, now float64) Q
}

type goldenDualResult struct {
	size, pages   int
	reads, writes int64
	results       int
	answers       string
	pagesHash     string
}

// The terrains: extent 100 and speeds in [0.5, 2] make the rotation period
// T = 100/0.5 = 200 at both dimensionalities.
var (
	goldenTerrain1D = dual.Terrain{YMax: 100, VMin: 0.5, VMax: 2}
	goldenTerrain2D = twod.Terrain2D{XMax: 100, YMax: 100, VMin: 0.5, VMax: 2}
)

const goldenPeriod = 200.0

func goldenSpeed(rng *rand.Rand) float64 {
	v := 0.5 + rng.Float64()*1.5
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

var goldenSpec1D = goldenDualSpec[dual.Motion, dual.MORQuery]{
	motion: func(rng *rand.Rand, id dual.OID, now float64) dual.Motion {
		return dual.Motion{OID: id, Y0: rng.Float64() * 100, T0: now, V: goldenSpeed(rng)}
	},
	query: func(rng *rand.Rand, now float64) dual.MORQuery {
		y1 := rng.Float64() * 90
		t1 := now + rng.Float64()*15
		return dual.MORQuery{Y1: y1, Y2: y1 + rng.Float64()*25, T1: t1, T2: t1 + rng.Float64()*20}
	},
}

var goldenSpec2D = goldenDualSpec[twod.Motion2D, twod.MOR2Query]{
	motion: func(rng *rand.Rand, id dual.OID, now float64) twod.Motion2D {
		return twod.Motion2D{OID: id, X0: rng.Float64() * 100, Y0: rng.Float64() * 100, T0: now,
			VX: goldenSpeed(rng), VY: goldenSpeed(rng)}
	},
	query: func(rng *rand.Rand, now float64) twod.MOR2Query {
		x1, y1 := rng.Float64()*70, rng.Float64()*70
		t1 := now + rng.Float64()*15
		return twod.MOR2Query{X1: x1, X2: x1 + rng.Float64()*40, Y1: y1, Y2: y1 + rng.Float64()*40,
			T1: t1, T2: t1 + rng.Float64()*20}
	},
}

// goldenDualStream drives the seeded stream over two rotation epochs and
// returns everything the test pins. Objects are created through epoch 0;
// then time runs from 0.85 T to 1.45 T under an update / delete / insert
// mix, so both generations are live; a first query set runs there; the
// rows that have the step reindex the live set with one BulkLoad (two
// epoch groups); every object still in epoch 0 is then updated, which
// retires that generation; a last mix and a second query set follow. bulk
// is nil on the rows whose stream has no bulk-load step (the 4-dimensional
// indexes had no bulk loader when the constants were captured).
func goldenDualStream[M, Q any](t *testing.T, st *pager.MemStore, ix goldenDual[M, Q], bulk func([]M) error,
	spec goldenDualSpec[M, Q], updTime func(M) float64) goldenDualResult {
	t.Helper()
	rng := rand.New(rand.NewSource(2299))
	// ids parallels live: M is opaque here, and an update re-inserts the
	// object under its own id.
	var live []M
	var ids []dual.OID
	next := dual.OID(0)
	insert := func(now float64) {
		m := spec.motion(rng, next, now)
		if err := ix.Insert(m); err != nil {
			t.Fatal(err)
		}
		live, ids = append(live, m), append(ids, next)
		next++
	}
	remove := func(i int) {
		if err := ix.Delete(live[i]); err != nil {
			t.Fatal(err)
		}
		live, ids = append(live[:i], live[i+1:]...), append(ids[:i], ids[i+1:]...)
	}
	// update is the paper's update: delete the old motion, insert the new.
	update := func(i int, now float64) {
		if err := ix.Delete(live[i]); err != nil {
			t.Fatal(err)
		}
		m := spec.motion(rng, ids[i], now)
		if err := ix.Insert(m); err != nil {
			t.Fatal(err)
		}
		live[i] = m
	}
	mix := func(ops int, from, to float64) {
		for op := 0; op < ops; op++ {
			now := from + (to-from)*float64(op)/float64(ops)
			switch r := rng.Float64(); {
			case r < 0.7:
				update(rng.Intn(len(live)), now)
			case r < 0.85:
				remove(rng.Intn(len(live)))
			default:
				insert(now)
			}
		}
	}
	answers := sha256.New()
	results := 0
	queries := func(n int, now float64) {
		for qi := 0; qi < n; qi++ {
			var got []dual.OID
			if err := ix.Query(spec.query(rng, now), func(id dual.OID) { got = append(got, id) }); err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(qi)<<32|uint64(len(got)))
			answers.Write(b[:])
			for _, id := range got {
				binary.LittleEndian.PutUint64(b[:], uint64(id))
				answers.Write(b[:])
			}
			results += len(got)
		}
	}

	for i := 0; i < 1200; i++ {
		insert(0.8 * goldenPeriod * float64(i) / 1200)
	}
	mix(1500, 0.85*goldenPeriod, 1.45*goldenPeriod)
	queries(25, 1.45*goldenPeriod)
	if bulk != nil {
		if err := bulk(live); err != nil {
			t.Fatal(err)
		}
	}
	for i := range live {
		if updTime(live[i]) < goldenPeriod {
			update(i, 1.5*goldenPeriod)
		}
	}
	mix(300, 1.5*goldenPeriod, 1.6*goldenPeriod)
	queries(25, 1.6*goldenPeriod)

	if ix.Len() != len(live) {
		t.Fatalf("Len = %d, stream left %d live", ix.Len(), len(live))
	}
	stats := st.Stats()
	return goldenDualResult{
		size: ix.Len(), pages: st.PagesInUse(),
		reads: stats.Reads, writes: stats.Writes,
		results: results, answers: hex.EncodeToString(answers.Sum(nil)),
		pagesHash: goldenPagesHash(t, st),
	}
}

func TestGoldenDualIndexes(t *testing.T) {
	time1D := func(m dual.Motion) float64 { return m.T0 }
	time2D := func(m twod.Motion2D) float64 { return m.T0 }
	rows := []struct {
		name string
		run  func(t *testing.T, st *pager.MemStore) goldenDualResult
		want goldenDualResult
	}{
		{name: "KDDual/bulk", run: func(t *testing.T, st *pager.MemStore) goldenDualResult {
			ix, err := core.NewKDDual(st, core.KDDualConfig{Terrain: goldenTerrain1D})
			if err != nil {
				t.Fatal(err)
			}
			return goldenDualStream[dual.Motion, dual.MORQuery](t, st, ix, ix.BulkLoad, goldenSpec1D, time1D)
		}, want: goldenDualResult{size: 1175, pages: 51, reads: 11876, writes: 5555, results: 4443,
			answers:   "54e913356ba8e5c54d8cc70bfed692ff73358aef46447d1d83e219eff4648bde",
			pagesHash: "27b28d978f23db7fc277b14b4116a8583e2cdbbc559710bf6548c8ba0ce2fa7d"}},
		{name: "KDDual", run: func(t *testing.T, st *pager.MemStore) goldenDualResult {
			ix, err := core.NewKDDual(st, core.KDDualConfig{Terrain: goldenTerrain1D})
			if err != nil {
				t.Fatal(err)
			}
			return goldenDualStream[dual.Motion, dual.MORQuery](t, st, ix, nil, goldenSpec1D, time1D)
		}, want: goldenDualResult{size: 1175, pages: 52, reads: 11768, writes: 5513, results: 4443,
			answers:   "54e913356ba8e5c54d8cc70bfed692ff73358aef46447d1d83e219eff4648bde",
			pagesHash: "3edbd3ae728431f4bdf1b532d2ef116bf9c7a99874eeeb57f80107175eda9459"}},
		{name: "PartTreeDual/bulk", run: func(t *testing.T, st *pager.MemStore) goldenDualResult {
			ix, err := core.NewPartTreeDual(st, core.PartTreeDualConfig{Terrain: goldenTerrain1D})
			if err != nil {
				t.Fatal(err)
			}
			return goldenDualStream[dual.Motion, dual.MORQuery](t, st, ix, ix.BulkLoad, goldenSpec1D, time1D)
		}, want: goldenDualResult{size: 1175, pages: 67, reads: 18003, writes: 5661, results: 4443,
			answers:   "54e913356ba8e5c54d8cc70bfed692ff73358aef46447d1d83e219eff4648bde",
			pagesHash: "bfc23ad9aef1fc5a000696ec8e648d5d4bf8c8bb179562d1f3786cc4efabcdbf"}},
		{name: "PartTreeDual", run: func(t *testing.T, st *pager.MemStore) goldenDualResult {
			ix, err := core.NewPartTreeDual(st, core.PartTreeDualConfig{Terrain: goldenTerrain1D})
			if err != nil {
				t.Fatal(err)
			}
			return goldenDualStream[dual.Motion, dual.MORQuery](t, st, ix, nil, goldenSpec1D, time1D)
		}, want: goldenDualResult{size: 1175, pages: 69, reads: 18426, writes: 5658, results: 4443,
			answers:   "54e913356ba8e5c54d8cc70bfed692ff73358aef46447d1d83e219eff4648bde",
			pagesHash: "b06aa38e7f80f2b87e28409dfe49d1823b73264e96330790220419320432cf31"}},
		{name: "KD4", run: func(t *testing.T, st *pager.MemStore) goldenDualResult {
			ix, err := twod.NewKD4(st, twod.KD4Config{Terrain: goldenTerrain2D})
			if err != nil {
				t.Fatal(err)
			}
			return goldenDualStream[twod.Motion2D, twod.MOR2Query](t, st, ix, nil, goldenSpec2D, time2D)
		}, want: goldenDualResult{size: 1174, pages: 77, reads: 14094, writes: 5606, results: 961,
			answers:   "23a8648e53d8a9be1e4c5729ba53b8d5e32d4c33d891931cf61dd2e2e7ef0b5f",
			pagesHash: "15fccb6576d0759e1f61aca78651cea2fb0bc84a8e9b76b11ff698083bfce9c7"}},
		{name: "PartTree4", run: func(t *testing.T, st *pager.MemStore) goldenDualResult {
			ix, err := twod.NewPartTree4(st, twod.PartTree4Config{Terrain: goldenTerrain2D})
			if err != nil {
				t.Fatal(err)
			}
			return goldenDualStream[twod.Motion2D, twod.MOR2Query](t, st, ix, nil, goldenSpec2D, time2D)
		}, want: goldenDualResult{size: 1174, pages: 104, reads: 19795, writes: 5866, results: 961,
			answers:   "23a8648e53d8a9be1e4c5729ba53b8d5e32d4c33d891931cf61dd2e2e7ef0b5f",
			pagesHash: "88c72fcb53f3b341aac545a2362976dde0798363ebab0a6082fba8ebe4af1761"}},
	}
	for _, row := range rows {
		got := row.run(t, pager.NewMemStore(512))
		t.Logf("%s: %#v", row.name, got)
		if got != row.want {
			t.Errorf("%s:\n got %+v\nwant %+v", row.name, got, row.want)
		}
	}
}
