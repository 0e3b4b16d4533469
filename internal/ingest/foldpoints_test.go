package ingest

import (
	"math/rand"
	"slices"
	"testing"

	"mobidx/internal/dual"
)

// TestTierFoldPoints pins where the delta folds, with FoldOps 5. Every op
// counts toward the bound, a tombstone and a rewrite of an OID the delta
// already holds included, so a hot set of a few OIDs folds as often as
// fresh ones do. The fold waits for the end of the Add that reaches the
// bound and covers that whole Add. After each Add the test checks merged,
// Merges, the ops staged since the last fold and the tier's answers
// against a brute-force map; from step 4 on, a tier rebuilt by Attach +
// Replay shadows the original and must fold at the same points.
func TestTierFoldPoints(t *testing.T) {
	cfg := Config{Terrain: testTerrain, FoldOps: 5}
	rng := rand.New(rand.NewSource(7))
	tier, err := New(newBase(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cur := make(map[dual.OID]dual.Motion)
	now := 0.0
	ins := func(id dual.OID) []Op {
		m := motionAt(rng, id, now)
		cur[id] = m
		return []Op{{Insert: true, M: m}}
	}
	del := func(id dual.OID) []Op {
		old := cur[id]
		delete(cur, id)
		return []Op{{M: old}}
	}
	upd := func(id dual.OID) []Op { return append(del(id), ins(id)...) }
	batch := func(parts ...[]Op) []Op { return slices.Concat(parts...) }

	steps := []struct {
		ops            func() []Op
		merged         bool
		staged, merges int
	}{
		{func() []Op { return batch(ins(1), ins(2)) }, false, 2, 0},
		{func() []Op { return upd(1) }, false, 4, 0},
		// Reaching the bound exactly folds.
		{func() []Op { return ins(3) }, true, 0, 1},
		{func() []Op { return upd(1) }, false, 2, 1},
		// Crossing it mid-batch folds at the batch's end.
		{func() []Op { return batch(upd(2), upd(3)) }, true, 0, 2},
		// One batch past the bound folds once.
		{func() []Op { return batch(ins(4), ins(5), ins(6), ins(7), ins(8), ins(9), ins(10)) }, true, 0, 3},
		// A tombstone, a reinsert and rewrites of that one OID all count.
		{func() []Op { return del(4) }, false, 1, 3},
		{func() []Op { return ins(4) }, false, 2, 3},
		{func() []Op { return upd(4) }, false, 4, 3},
		{func() []Op { return upd(4) }, true, 0, 4},
		{func() []Op { return batch(ins(11), ins(12)) }, false, 2, 4},
		{func() []Op { return batch(del(11), del(12), del(5)) }, true, 0, 5},
	}

	var rec *Tier   // the Attach + Replay copy, built after step 4
	var suffix []Op // ops since the last fold: what the shard's journal holds
	check := func(step int, tr *Tier, who string) {
		t.Helper()
		if tr.Len() != len(cur) {
			t.Fatalf("step %d %s: Len %d, oracle %d", step, who, tr.Len(), len(cur))
		}
		for id := dual.OID(0); id <= 13; id++ {
			m, ok := tr.current(id)
			want, wantOK := cur[id]
			if ok != wantOK || (ok && m != want) {
				t.Fatalf("step %d %s: OID %d resolves to %+v,%v, oracle %+v,%v", step, who, id, m, ok, want, wantOK)
			}
		}
		qs := []dual.MORQuery{{Y1: 0, Y2: testTerrain.YMax, T1: now, T2: now + 100}}
		for i := 0; i < 4; i++ {
			qs = append(qs, morAt(rng, now))
		}
		for _, q := range qs {
			got, err := tr.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			var want []dual.OID
			for id, m := range cur {
				if m.Matches(q) {
					want = append(want, id)
				}
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d %s: query %+v = %v, brute force %v", step, who, q, got, want)
			}
		}
	}
	for i, st := range steps {
		step := i + 1
		now += 1
		ops := st.ops()
		merged, err := tier.Add(ops)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		s := tier.Stats()
		if merged != st.merged || tier.staged != st.staged || s.Merges != st.merges {
			t.Fatalf("step %d: merged=%v staged=%d Merges=%d, want %v %d %d",
				step, merged, tier.staged, s.Merges, st.merged, st.staged, st.merges)
		}
		check(step, tier, "tier")
		if rec != nil {
			recMerged, err := rec.Add(ops)
			if err != nil {
				t.Fatalf("step %d replayed: %v", step, err)
			}
			if recMerged != merged || rec.staged != tier.staged {
				t.Fatalf("step %d replayed: merged=%v staged=%d, original %v %d",
					step, recMerged, rec.staged, merged, tier.staged)
			}
			check(step, rec, "replayed")
		}
		if merged {
			suffix = suffix[:0]
		} else {
			suffix = append(suffix, ops...)
		}
		if step == 4 {
			// The journal suffix is the delta; a recovered tier rebuilt from
			// the base and that suffix must stand where the original stands.
			base := newBase(t)
			baseMs := append([]dual.Motion(nil), tier.BaseMotions()...)
			if err := base.BulkLoad(baseMs); err != nil {
				t.Fatal(err)
			}
			if rec, err = Attach(base, baseMs, cfg); err != nil {
				t.Fatal(err)
			}
			if err := rec.Replay(suffix); err != nil {
				t.Fatal(err)
			}
			if rec.staged != tier.staged {
				t.Fatalf("replayed tier staged %d ops, original %d", rec.staged, tier.staged)
			}
			check(step, rec, "replayed")
		}
	}
}
