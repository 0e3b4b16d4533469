package ingest

import (
	"context"
	"math/rand"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
)

// probeCounts is the counter half of Stats, the part a golden pins.
type probeCounts struct {
	RunProbes       int
	Freezes, Merges int
}

func probeCountsOf(t *Tier) probeCounts {
	s := t.Stats()
	return probeCounts{s.RunProbes, s.Freezes, s.Merges}
}

// TestGoldenProbeCounters pins the tier's probe counters after a seeded
// add / fold / query / lookup stream: the same ops feed two tiers, one
// answering through the sequential Query path and one through a
// two-worker executor. Both count one probe per deduplicated base answer
// and must read the same numbers; each Get is one probe more. Freezes and
// Merges were captured from the implementation that kept the delta in a
// memtable and frozen runs, so they pin the fold points across that
// change. RunProbes was re-based when the delta became one map, and its
// value is the executor path's count of that capture: the sequential
// path's, which counted every emission of a Lemma 1 piece, was the one
// that disagreed with Stats' "one per base answer".
func TestGoldenProbeCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(3101))
	cfg := Config{Terrain: testTerrain, MemtableFlush: 24, MaxRuns: 3}
	seq, err := New(newBase(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(newBase(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec := core.NewExecutor(2)
	ctx := context.Background()

	cur := make(map[dual.OID]dual.Motion)
	var ids []dual.OID // live OIDs in insertion order: no map iteration
	now := 0.0
	answers := 0
	for round := 0; round < 30; round++ {
		now += 6
		var ops []Op
		for i := 0; i < 20; i++ {
			id := dual.OID(rng.Intn(400))
			if old, live := cur[id]; live {
				ops = append(ops, Op{M: old})
			} else {
				ids = append(ids, id)
			}
			m := motionAt(rng, id, now)
			ops = append(ops, Op{Insert: true, M: m})
			cur[id] = m
		}
		if round%4 == 3 { // plain deletes leave tombstones in the delta
			for k := 0; k < 8 && len(ids) > 0; k++ {
				i := rng.Intn(len(ids))
				id := ids[i]
				ops = append(ops, Op{M: cur[id]})
				delete(cur, id)
				ids = append(ids[:i], ids[i+1:]...)
			}
		}
		for _, tier := range []*Tier{seq, par} {
			if _, err := tier.Add(ops); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		if round == 17 {
			for _, tier := range []*Tier{seq, par} {
				if err := tier.Flush(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 4; i++ {
			q := morAt(rng, now)
			a, err := seq.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.QueryParallelCtx(ctx, exec, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(a) != len(b) {
				t.Fatalf("round %d: sequential %d answers, executor %d", round, len(a), len(b))
			}
			answers += len(a)
		}
		for i := 0; i < 6; i++ {
			id := dual.OID(rng.Intn(450))
			for _, tier := range []*Tier{seq, par} {
				if _, _, err := tier.Get(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	if answers != goldenProbeAnswers {
		t.Errorf("stream answered %d OIDs, golden %d: the stream itself changed", answers, goldenProbeAnswers)
	}
	if got := probeCountsOf(seq); got != goldenProbes {
		t.Errorf("sequential path: %+v, golden %+v", got, goldenProbes)
	}
	if got := probeCountsOf(par); got != goldenProbes {
		t.Errorf("executor path: %+v, golden %+v", got, goldenProbes)
	}
}

// Never edit these to make the test pass.
const goldenProbeAnswers = 3850

var goldenProbes = probeCounts{RunProbes: 3048, Freezes: 22, Merges: 8}

// TestRunProbesSameOnEveryExecutor runs a Lemma 1 query — wider than one
// subterrain, so its pieces emit some objects more than once — on a one-
// and a two-worker executor: each counts one probe per deduplicated base
// answer, not one per emission.
func TestRunProbesSameOnEveryExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(3102))
	tier, err := New(newBase(t), Config{Terrain: testTerrain, MemtableFlush: 1 << 20, MaxRuns: 8})
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for i := 0; i < 600; i++ {
		ops = append(ops, Op{Insert: true, M: motionAt(rng, dual.OID(i), 0)})
	}
	if _, err := tier.Add(ops); err != nil {
		t.Fatal(err)
	}
	if err := tier.Flush(); err != nil {
		t.Fatal(err)
	}
	q := dual.MORQuery{Y1: 5, Y2: 95, T1: 2, T2: 10}
	emissions := 0
	for _, sub := range tier.base.Subqueries(q) {
		if err := sub(func(dual.OID) { emissions++ }); err != nil {
			t.Fatal(err)
		}
	}
	base, err := core.RunSubqueriesCtx(context.Background(), core.NewExecutor(1), tier.base.Subqueries(q))
	if err != nil {
		t.Fatal(err)
	}
	if emissions <= len(base) {
		t.Fatalf("the query's pieces emit %d times for %d answers: no duplicate to count", emissions, len(base))
	}
	for _, workers := range []int{1, 2} {
		before := tier.Stats().RunProbes
		if _, err := tier.QueryParallelCtx(context.Background(), core.NewExecutor(workers), q); err != nil {
			t.Fatal(err)
		}
		if got := tier.Stats().RunProbes - before; got != len(base) {
			t.Errorf("%d workers: %d probes, want one per base answer (%d)", workers, got, len(base))
		}
	}
}
