package ingest

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
)

// resortBase is a base index that checks each fold's motion list, at the
// moment the tier installs it, against the list the fold computed before
// it merged: the unmasked base and the delta's live upserts, concatenated
// and sorted by OID.
type resortBase struct {
	*core.DualBPlus
	t     *testing.T
	tier  *Tier // nil while the tier is being built
	folds int
}

func (b *resortBase) Build(ms []dual.Motion) (func() error, error) {
	install, err := b.DualBPlus.Build(ms)
	if err != nil || b.tier == nil {
		return install, err
	}
	return func() error {
		// The tier installs on this goroutine, with the batch staged into
		// the delta.
		tr := b.tier
		var want []dual.Motion
		for _, m := range tr.baseMs {
			if _, masked := tr.slot[m.OID]; !masked {
				want = append(want, m)
			}
		}
		for _, e := range tr.delta {
			if !e.tomb {
				want = append(want, e.m)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].OID < want[j].OID })
		if !slices.Equal(ms, want) {
			b.t.Errorf("fold %d: merged list of %d motions differs from the resorted %d", b.folds, len(ms), len(want))
		}
		b.folds++
		return install()
	}, nil
}

// TestTierFoldMatchesResort drives a seeded stream through a tier with a
// small fold bound and checks every fold's motion list against the
// concatenate-and-sort result and against a model of the live set. The
// stream upserts base OIDs, inserts new OIDs below, between and above the
// base OIDs, deletes (tombstones) and re-inserts an OID tombstoned earlier
// in the same delta.
func TestTierFoldMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := &resortBase{DualBPlus: newBase(t), t: t}
	tier, err := New(base, Config{Terrain: testTerrain, FoldOps: 40})
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	cur := make(map[dual.OID]dual.Motion)
	var initial []dual.Motion
	for id := dual.OID(1000); id < 1600; id += 3 {
		m := motionAt(rng, id, now)
		initial = append(initial, m)
		cur[id] = m
	}
	if err := tier.Load(initial); err != nil {
		t.Fatal(err)
	}
	base.tier = tier

	live := func() []dual.OID {
		ids := make([]dual.OID, 0, len(cur))
		for id := range cur {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	var tombed []dual.OID // tombstoned since the last fold
	kinds := make(map[string]int)
	for round := 0; round < 800; round++ {
		now += 0.5
		var ops []Op
		ins := func(id dual.OID) {
			m := motionAt(rng, id, now)
			cur[id] = m
			ops = append(ops, Op{Insert: true, M: m})
		}
		del := func(id dual.OID) {
			ops = append(ops, Op{M: cur[id]})
			delete(cur, id)
		}
		fresh := func(lo, hi int) (dual.OID, bool) {
			id := dual.OID(lo + rng.Intn(hi-lo))
			_, taken := cur[id]
			return id, !taken && !slices.Contains(tombed, id)
		}
		switch k := rng.Intn(6); k {
		case 0: // upsert a live OID
			ids := live()
			id := ids[rng.Intn(len(ids))]
			del(id)
			ins(id)
			kinds["upsert"]++
		case 1: // a new OID below every base OID
			if id, ok := fresh(0, 1000); ok {
				ins(id)
				kinds["below"]++
			}
		case 2: // a new OID above every base OID
			if id, ok := fresh(1600, 2600); ok {
				ins(id)
				kinds["above"]++
			}
		case 3: // a new OID between two base OIDs
			if id, ok := fresh(1000, 1600); ok {
				ins(id)
				kinds["between"]++
			}
		case 4: // a tombstone
			ids := live()
			id := ids[rng.Intn(len(ids))]
			del(id)
			tombed = append(tombed, id)
			kinds["tombstone"]++
		case 5: // re-upsert an OID tombstoned earlier in this delta
			if len(tombed) > 0 {
				i := rng.Intn(len(tombed))
				ins(tombed[i])
				tombed = slices.Delete(tombed, i, i+1)
				kinds["reupsert"]++
			}
		}
		if len(ops) == 0 {
			continue
		}
		merged, err := tier.Add(ops)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if merged {
			tombed = tombed[:0]
			got := tier.BaseMotions()
			ids := live()
			if len(got) != len(ids) {
				t.Fatalf("round %d: base holds %d motions, model %d", round, len(got), len(ids))
			}
			for i, m := range got {
				if m.OID != ids[i] || m != cur[m.OID] {
					t.Fatalf("round %d: base[%d] = %+v, model has OID %d as %+v", round, i, m, ids[i], cur[ids[i]])
				}
			}
		}
	}
	if base.folds < 10 {
		t.Errorf("only %d folds; the stream should fold at least 10 times", base.folds)
	}
	for _, k := range []string{"upsert", "below", "above", "between", "tombstone", "reupsert"} {
		if kinds[k] == 0 {
			t.Errorf("the stream never issued a %s", k)
		}
	}
}

// BenchmarkTierFold times one fold of a 2048-OID delta (upserts,
// tombstones and new OIDs) into a 100k-motion base: the merge and the
// base's bulk reindex. Staging the delta is not timed.
func BenchmarkTierFold(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	tier, err := New(newBase(b), Config{Terrain: testTerrain, FoldOps: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	cur := make([]dual.Motion, 0, n)
	for id := dual.OID(0); id < n; id++ {
		cur = append(cur, motionAt(rng, id, 0))
	}
	if err := tier.Load(cur); err != nil {
		b.Fatal(err)
	}
	live := make([]bool, len(cur))
	for i := range cur {
		live[i] = true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ops := make([]Op, 0, 4096)
		for j := 0; j < 2048; j++ {
			id := dual.OID(rng.Intn(len(cur)))
			switch {
			case j%8 == 0: // a new OID above every other
				m := motionAt(rng, dual.OID(len(cur)), 0)
				cur, live = append(cur, m), append(live, true)
				ops = append(ops, Op{Insert: true, M: m})
			case !live[id]: // re-insert
				cur[id] = motionAt(rng, id, 0)
				live[id] = true
				ops = append(ops, Op{Insert: true, M: cur[id]})
			case j%8 == 1: // a tombstone
				live[id] = false
				ops = append(ops, Op{M: cur[id]})
			default: // an upsert
				old := cur[id]
				cur[id] = motionAt(rng, id, 0)
				ops = append(ops, Op{M: old}, Op{Insert: true, M: cur[id]})
			}
		}
		if _, err := tier.Add(ops); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		fold(b, tier)
	}
}
