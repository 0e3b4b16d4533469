package ingest

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

var testTerrain = dual.Terrain{YMax: 100, VMin: 0.5, VMax: 2.0}

func newBase(t testing.TB) *core.DualBPlus {
	t.Helper()
	d, err := core.NewDualBPlus(pager.NewMemStore(1024),
		core.DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: bptree.Compact})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// motionAt issues a motion updated at time now, like the sim in core:
// queries are generated at T1 ≥ now, honoring MORQuery's now ≤ T1
// contract (the regime where the flat index is exact).
func motionAt(rng *rand.Rand, oid dual.OID, now float64) dual.Motion {
	tr := testTerrain
	v := tr.VMin + rng.Float64()*(tr.VMax-tr.VMin)
	if rng.Intn(2) == 0 {
		v = -v
	}
	return dual.Motion{
		OID: oid,
		Y0:  rng.Float64() * tr.YMax,
		T0:  now,
		V:   v,
	}
}

// morAt issues a model-conformant query at time now.
func morAt(rng *rand.Rand, now float64) dual.MORQuery {
	tr := testTerrain
	y1 := rng.Float64() * tr.YMax
	y2 := y1 + rng.Float64()*(tr.YMax-y1)
	t1 := now + rng.Float64()*20
	t2 := t1 + rng.Float64()*40
	return dual.MORQuery{Y1: y1, Y2: y2, T1: t1, T2: t2}
}

// TestTierDifferential is the tentpole gate: a Tier with small thresholds
// (so freezes and merges fire constantly mid-stream) must answer every
// MOR query byte-identically to a flat DualBPlus maintained with direct
// Insert/Delete — sequentially and through QueryParallelCtx at worker
// counts 1, 2 and 8 — and Get must agree with a tracked oracle map.
func TestTierDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	flat := newBase(t)
	tier, err := New(newBase(t), Config{
		Terrain:       testTerrain,
		MemtableFlush: 32, // tiny: force freezes mid-stream
		MaxRuns:       3,  // and merges
	})
	if err != nil {
		t.Fatal(err)
	}
	execs := []*core.Executor{core.NewExecutor(1), core.NewExecutor(2), core.NewExecutor(8)}
	cur := make(map[dual.OID]dual.Motion)
	ctx := context.Background()
	now := 0.0

	check := func(round int) {
		t.Helper()
		if tier.Len() != flat.Len() || tier.Len() != len(cur) {
			t.Fatalf("round %d: tier Len=%d flat Len=%d oracle=%d", round, tier.Len(), flat.Len(), len(cur))
		}
		for i := 0; i < 5; i++ {
			q := morAt(rng, now)
			want, err := flat.QueryParallelCtx(context.Background(), execs[0], q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := tier.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(want, got) {
				t.Fatalf("round %d query %d: tier %v, flat %v (stats %+v)", round, i, got, want, tier.Stats())
			}
			for _, ex := range execs {
				par, err := tier.QueryParallelCtx(ctx, ex, q)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(want, par) {
					t.Fatalf("round %d query %d: tier parallel (%d workers) diverges", round, i, ex.Workers())
				}
			}
		}
		// Point lookups: present and absent OIDs.
		for i := 0; i < 20; i++ {
			id := dual.OID(rng.Intn(600))
			m, ok, err := tier.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := cur[id]
			if ok != wantOK || (ok && m != want) {
				t.Fatalf("round %d: Get(%d) = %+v,%v, oracle %+v,%v", round, id, m, ok, want, wantOK)
			}
		}
	}

	// 40 rounds × 8 time units crosses the 200-unit rotation period, so
	// the flat index (and the tier's merged base) spans two generations.
	for round := 0; round < 40; round++ {
		now += 8
		var ops []Op
		for i := 0; i < 25; i++ {
			id := dual.OID(rng.Intn(500))
			m := motionAt(rng, id, now)
			if old, live := cur[id]; live {
				// An update is delete(old)+insert(new), the paper's model.
				if err := flat.Delete(old); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, Op{Insert: false, M: old})
			}
			if err := flat.Insert(m); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, Op{Insert: true, M: m})
			cur[id] = m
		}
		// Occasionally plain deletes, so tombstones outlive their OID.
		if round%5 == 4 {
			for id, old := range cur {
				if err := flat.Delete(old); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, Op{Insert: false, M: old})
				delete(cur, id)
				if len(ops) > 60 {
					break
				}
			}
		}
		if _, err := tier.Add(ops); err != nil {
			t.Fatal(err)
		}
		check(round)
	}
	st := tier.Stats()
	if st.Freezes == 0 || st.Merges == 0 {
		t.Fatalf("thresholds never fired: stats %+v — the differential never saw a mid-flush state", st)
	}
	// A final explicit Flush must leave answers unchanged.
	if err := tier.Flush(); err != nil {
		t.Fatal(err)
	}
	check(999)
	if got := tier.Stats(); got.MemLen != 0 {
		t.Fatalf("Flush left delta behind: %+v", got)
	}
}

// TestTierStrictDiscipline pins the admission rules: inserts validate
// against the terrain, an insert of a live OID fails, a delete must name
// the exact live motion, and a failed Add leaves prior state intact.
func TestTierStrictDiscipline(t *testing.T) {
	tier, err := New(newBase(t), Config{Terrain: testTerrain})
	if err != nil {
		t.Fatal(err)
	}
	m := dual.Motion{OID: 1, Y0: 10, T0: 0, V: 1}
	if _, err := tier.Add([]Op{{Insert: true, M: m}}); err != nil {
		t.Fatal(err)
	}
	cases := []Op{
		{Insert: true, M: dual.Motion{OID: 2, Y0: 10, T0: 0, V: 99}},  // speed out of band
		{Insert: true, M: dual.Motion{OID: 3, Y0: -500, T0: 0, V: 1}}, // position out of terrain
		{Insert: true, M: dual.Motion{OID: 1, Y0: 20, T0: 1, V: 1}},   // live OID
		{Insert: false, M: dual.Motion{OID: 1, Y0: 99, T0: 0, V: 1}},  // wrong motion
		{Insert: false, M: dual.Motion{OID: 7, Y0: 10, T0: 0, V: 1}},  // absent OID
	}
	for i, op := range cases {
		if _, err := tier.Add([]Op{op}); err == nil {
			t.Fatalf("case %d: Add(%+v) succeeded, want error", i, op)
		}
	}
	// A T0 that would pick an undefined rotation epoch: the tier passes the
	// index's own admission error through, wrapped.
	nonFinite := dual.Motion{OID: 4, Y0: 10, T0: math.Inf(1), V: 1}
	_, err = tier.Add([]Op{{Insert: true, M: nonFinite}})
	if want := core.ValidateMotion(nonFinite, testTerrain); want == nil || err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("Add(non-finite T0) = %v, want it to carry %v", err, want)
	}
	// A batch is all-or-nothing: OID 5 precedes the refused op, so it must
	// not be staged either.
	fresh := dual.Motion{OID: 5, Y0: 10, T0: 0, V: 1}
	if _, err := tier.Add([]Op{{Insert: true, M: fresh}, {Insert: true, M: dual.Motion{OID: 1, Y0: 20, T0: 1, V: 1}}}); err == nil {
		t.Fatal("Add(insert 5, insert live 1) succeeded, want error")
	}
	if tier.Len() != 1 {
		t.Fatalf("failed Adds changed Len: %d", tier.Len())
	}
	if _, ok, err := tier.Get(5); err != nil || ok {
		t.Fatalf("Get(5) = %v,%v after a refused batch; want absent", ok, err)
	}
	got, ok, err := tier.Get(1)
	if err != nil || !ok || got != m {
		t.Fatalf("Get(1) = %+v,%v,%v; want original motion", got, ok, err)
	}
}

// TestTierAttachReplay covers the recovery path: Attach over a base
// holding a flushed prefix, then Replay of the delta suffix, must
// reproduce the full state — and Replay must never merge.
func TestTierAttachReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// Build the "pre-crash" tier and capture its durable pieces.
	orig, err := New(newBase(t), Config{Terrain: testTerrain, MemtableFlush: 16, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	cur := make(map[dual.OID]dual.Motion)
	var suffix []Op // ops since the last merge (what a journal would hold)
	now := 0.0
	for i := 0; i < 400; i++ {
		now += 0.5
		id := dual.OID(rng.Intn(120))
		m := motionAt(rng, id, now)
		var ops []Op
		if old, live := cur[id]; live {
			ops = append(ops, Op{Insert: false, M: old})
		}
		ops = append(ops, Op{Insert: true, M: m})
		cur[id] = m
		merged, err := orig.Add(ops)
		if err != nil {
			t.Fatal(err)
		}
		if merged {
			suffix = suffix[:0]
		} else {
			suffix = append(suffix, ops...)
		}
	}
	baseMs := append([]dual.Motion(nil), orig.BaseMotions()...)
	if len(suffix) == 0 {
		t.Fatal("test never accumulated a delta suffix; tune thresholds")
	}

	// "Recover": fresh base bulk-loaded with the flushed prefix, Attach,
	// Replay the suffix.
	base := newBase(t)
	if err := base.BulkLoad(baseMs); err != nil {
		t.Fatal(err)
	}
	rec, err := Attach(base, baseMs, Config{Terrain: testTerrain, MemtableFlush: 16, MaxRuns: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Replay(suffix); err != nil {
		t.Fatal(err)
	}
	if rec.Stats().Merges != 0 {
		t.Fatal("Replay merged; recovery must not write through the base")
	}
	if rec.Len() != len(cur) {
		t.Fatalf("recovered Len=%d, want %d", rec.Len(), len(cur))
	}
	for id, want := range cur {
		m, ok, err := rec.Get(id)
		if err != nil || !ok || m != want {
			t.Fatalf("recovered Get(%d) = %+v,%v,%v; want %+v", id, m, ok, err, want)
		}
	}
	// And the recovered tier answers queries identically to the original.
	for i := 0; i < 20; i++ {
		q := morAt(rng, now)
		want, err := orig.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rec.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(want, got) {
			t.Fatalf("query %d: recovered %v, original %v", i, got, want)
		}
	}
}

// TestTierAttachRejectsMismatch: Attach must refuse a base whose length
// disagrees with the motions it is told the base holds.
func TestTierAttachRejectsMismatch(t *testing.T) {
	base := newBase(t)
	ms := []dual.Motion{{OID: 1, Y0: 10, T0: 0, V: 1}}
	if _, err := Attach(base, ms, Config{Terrain: testTerrain}); err == nil {
		t.Fatal("Attach accepted a base missing its motions")
	}
	if _, err := Attach(base, []dual.Motion{
		{OID: 5, Y0: 1, T0: 0, V: 1}, {OID: 5, Y0: 2, T0: 0, V: 1},
	}, Config{Terrain: testTerrain}); err == nil {
		t.Fatal("Attach accepted duplicate OIDs")
	}
}

// TestTierClosed: operations after Close fail with ErrClosed.
func TestTierClosed(t *testing.T) {
	tier, err := New(newBase(t), Config{Terrain: testTerrain})
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tier.Add([]Op{{Insert: true, M: dual.Motion{OID: 1, Y0: 1, T0: 0, V: 1}}}); err != ErrClosed {
		t.Fatalf("Add after Close: %v, want ErrClosed", err)
	}
	if _, err := tier.Query(dual.MORQuery{Y1: 0, Y2: 10, T1: 0, T2: 10}); err != ErrClosed {
		t.Fatalf("Query after Close: %v, want ErrClosed", err)
	}
	if _, _, err := tier.Get(1); err != ErrClosed {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
}
