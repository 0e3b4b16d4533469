package ingest

import (
	"math/rand"
	"slices"
	"testing"

	"mobidx/internal/dual"
)

// TestTierFoldPoints pins where generations close and where the delta
// folds, with MemtableFlush 3 and MaxRuns 2. A generation closes once
// three distinct OIDs have been written in it: an OID rewritten inside
// its generation counts once, one rewritten in a later generation counts
// again (a plain distinct-OID count over the delta misses the second
// case). The fold waits for the end of the Add that closes the second
// generation. After each Add the test checks merged, Freezes, Merges and
// the tier's answers against a brute-force map; from step 4 on, a tier
// rebuilt by Attach + Replay shadows the original and must fold at the
// same points.
func TestTierFoldPoints(t *testing.T) {
	cfg := Config{Terrain: testTerrain, MemtableFlush: 3, MaxRuns: 2}
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
		ops             func() []Op
		merged          bool
		freezes, merges int
	}{
		{func() []Op { return batch(ins(1), ins(2)) }, false, 0, 0},
		// A rewrite inside gen 0 counts once.
		{func() []Op { return upd(1) }, false, 0, 0},
		// The third distinct OID closes gen 0.
		{func() []Op { return ins(3) }, false, 1, 0},
		// A rewrite in gen 1 counts again.
		{func() []Op { return upd(1) }, false, 1, 0},
		// Closing gen 1 folds.
		{func() []Op { return batch(upd(2), upd(3)) }, true, 2, 1},
		// Two generations close mid-batch; the fold waits for its end.
		{func() []Op { return batch(ins(4), ins(5), ins(6), ins(7), ins(8), ins(9), ins(10)) }, true, 4, 2},
		// A tombstone, then a reinsert inside its generation.
		{func() []Op { return del(4) }, false, 4, 2},
		{func() []Op { return ins(4) }, false, 4, 2},
		{func() []Op { return batch(ins(11), ins(12)) }, false, 5, 2},
		{func() []Op { return batch(del(11), del(12), del(5)) }, true, 6, 3},
	}

	var rec *Tier   // the Attach + Replay copy, built after step 4
	var suffix []Op // ops since the last fold: what the shard's journal holds
	check := func(step int, tr *Tier, who string) {
		t.Helper()
		if tr.Len() != len(cur) {
			t.Fatalf("step %d %s: Len %d, oracle %d", step, who, tr.Len(), len(cur))
		}
		for id := dual.OID(0); id <= 13; id++ {
			m, ok, err := tr.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK := cur[id]
			if ok != wantOK || (ok && m != want) {
				t.Fatalf("step %d %s: Get(%d) = %+v,%v, oracle %+v,%v", step, who, id, m, ok, want, wantOK)
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
		if merged != st.merged || s.Freezes != st.freezes || s.Merges != st.merges {
			t.Fatalf("step %d: merged=%v Freezes=%d Merges=%d, want %v %d %d",
				step, merged, s.Freezes, s.Merges, st.merged, st.freezes, st.merges)
		}
		check(step, tier, "tier")
		if rec != nil {
			recMerged, err := rec.Add(ops)
			if err != nil {
				t.Fatalf("step %d replayed: %v", step, err)
			}
			if rs := rec.Stats(); recMerged != merged || rs.Freezes != s.Freezes || rs.Merges != s.Merges {
				t.Fatalf("step %d replayed: merged=%v Freezes=%d Merges=%d, original %v %d %d",
					step, recMerged, rs.Freezes, rs.Merges, merged, s.Freezes, s.Merges)
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
			check(step, rec, "replayed")
		}
	}
}
