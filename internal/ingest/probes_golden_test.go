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
// answering through the sequential Query path (the mask fused into the
// emit path, one probe per emission) and one through a two-worker
// executor (one probe per merged base answer); each Get is one probe
// more. Freezes and Merges were captured from the implementation that
// kept the delta in a memtable and frozen runs, so they pin the fold
// points across that change; RunProbes was re-based when the delta became
// one map, and however the counting is batched, serialized traffic must
// read the same numbers.
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
	if got := probeCountsOf(seq); got != goldenProbeSeq {
		t.Errorf("sequential path: %+v, golden %+v", got, goldenProbeSeq)
	}
	if got := probeCountsOf(par); got != goldenProbeExec {
		t.Errorf("executor path: %+v, golden %+v", got, goldenProbeExec)
	}
}

// Never edit these to make the test pass.
const goldenProbeAnswers = 3850

var (
	goldenProbeSeq  = probeCounts{RunProbes: 3874, Freezes: 22, Merges: 8}
	goldenProbeExec = probeCounts{RunProbes: 3048, Freezes: 22, Merges: 8}
)
