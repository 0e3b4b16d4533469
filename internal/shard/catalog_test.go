package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// catalogStep is one write to a test catalog: a rewrite of ms when
// rewrite is set, an append of ops otherwise.
type catalogStep struct {
	rewrite bool
	ms      []dual.Motion
	ops     []Op
}

// buildCatalog writes steps, one WAL batch each, into a fresh catalog of
// pageSize-byte pages.
func buildCatalog(tb testing.TB, pageSize int, steps []catalogStep) *catalog {
	tb.Helper()
	w, err := pager.OpenWALStore(pager.NewMemStore(pageSize), pager.NewMemLog(), pager.WALConfig{})
	if err != nil {
		tb.Fatal(err)
	}
	var c *catalog
	if err := pager.RunBatch(w, func() (err error) {
		c, err = initCatalog(w)
		return err
	}); err != nil {
		tb.Fatal(err)
	}
	for _, st := range steps {
		if err := pager.RunBatch(w, func() error {
			if st.rewrite {
				return c.rewrite(st.ms)
			}
			return c.appendRaw(st.ops)
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// refReplay is the reference fold replay must match: it counts each
// motion of the prefix in a map, refuses a negative count, and sorts the
// survivors in the catalog's order.
func refReplay(c *catalog, prefix int) ([]dual.Motion, []Op, error) {
	counts := make(map[dual.Motion]int)
	var suffix []Op
	n := 0
	err := c.chain.Scan(func(recs []byte) error {
		for ; len(recs) >= catRecLen; recs = recs[catRecLen:] {
			switch op := decodeCatRec(recs); {
			case n >= prefix:
				suffix = append(suffix, op)
			case op.Insert:
				counts[op.M]++
			default:
				counts[op.M]--
			}
			n++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var ms []dual.Motion
	for m, k := range counts {
		if k < 0 {
			return nil, nil, fmt.Errorf("motion %d deleted more than inserted: %w", m.OID, pager.ErrPageCorrupt)
		}
		for ; k > 0; k-- {
			ms = append(ms, m)
		}
	}
	slices.SortFunc(ms, compareMotions)
	return ms, suffix, nil
}

// updates returns n updates of random motions of ms, each a delete of the
// motion and an insert of its successor, and applies them to ms.
func updates(rng *rand.Rand, ms []dual.Motion, n int) []Op {
	ops := make([]Op, 0, 2*n)
	for range n {
		i := rng.Intn(len(ms))
		next := ms[i]
		next.Y0, next.T0 = rng.Float64()*1000, next.T0+1
		ops = append(ops, Op{M: ms[i]}, Op{Insert: true, M: next})
		ms[i] = next
	}
	return ops
}

// TestCatalogReplayDifferential replays catalogs written the ways a shard
// writes them, cut at every prefix, against the map-based reference:
// the same motions in the same order, the same suffix ops, and an error
// exactly where the reference refuses the prefix.
func TestCatalogReplayDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	sorted := clusterMotions(60)
	shuffled := slices.Clone(sorted)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	live := slices.Clone(sorted)
	ups := updates(rng, live, 15)
	rng.Shuffle(len(ups)/2, func(i, j int) {
		ups[2*i], ups[2*i+1], ups[2*j], ups[2*j+1] = ups[2*j], ups[2*j+1], ups[2*i], ups[2*i+1]
	})
	dup := sorted[7]
	replicas := append(slices.Clone(sorted[:20]), dup, dup)
	slices.SortFunc(replicas, compareMotions)

	for _, tc := range []struct {
		name  string
		steps []catalogStep
	}{
		{"empty", nil},
		{"sorted rewrite", []catalogStep{{rewrite: true, ms: sorted}}},
		{"unsorted rewrite", []catalogStep{{rewrite: true, ms: shuffled}}},
		{"rewrite then updates", []catalogStep{{rewrite: true, ms: sorted}, {ops: ups[:10]}, {ops: ups[10:]}}},
		{"unsorted inserts then updates", []catalogStep{{ops: opsFor(shuffled)}, {ops: ups}}},
		{"replicas, one deleted", []catalogStep{{rewrite: true, ms: replicas}, {ops: []Op{{M: dup}}}}},
		{"replicas, all deleted", []catalogStep{
			{rewrite: true, ms: replicas}, {ops: []Op{{M: dup}, {M: dup}, {M: dup}}}}},
		{"delete before insert", []catalogStep{{ops: []Op{{M: dup}}}, {ops: []Op{{Insert: true, M: dup}}}}},
		{"random ops", []catalogStep{{ops: randomOps(rng, 40)}, {ops: randomOps(rng, 40)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := buildCatalog(t, logPageSize, tc.steps)
			for prefix := 0; prefix <= c.records; prefix++ {
				wantMs, wantOps, wantErr := refReplay(c, prefix)
				ms, ops, err := c.replay(prefix)
				if (err != nil) != (wantErr != nil) || (err != nil && !errors.Is(err, pager.ErrPageCorrupt)) {
					t.Fatalf("prefix %d: error %v, reference %v", prefix, err, wantErr)
				}
				if !slices.Equal(ms, wantMs) || !slices.Equal(ops, wantOps) {
					t.Fatalf("prefix %d: %d motions and %d ops, reference %d and %d\n got %v\nwant %v",
						prefix, len(ms), len(ops), len(wantMs), len(wantOps), ms, wantMs)
				}
			}
			if ms, err := c.motions(); err == nil && c.live != len(ms) {
				t.Fatalf("%d motions replayed, %d counted live", len(ms), c.live)
			}
		})
	}
}

// TestCatalogReplayDeletedMoreThanInserted: a delete with no insert left
// to cancel, alone or the second of two deletes of one insert, makes the
// catalog corrupt, but only in a replay whose prefix holds it.
func TestCatalogReplayDeletedMoreThanInserted(t *testing.T) {
	m := testMotion(3)
	for _, tc := range []struct {
		name string
		ops  []Op
	}{
		{"lone delete", []Op{{M: m}}},
		{"two deletes of one insert", []Op{{Insert: true, M: m}, {M: m}, {M: m}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := buildCatalog(t, logPageSize, []catalogStep{{ops: tc.ops}})
			if _, _, err := c.replay(c.records); !errors.Is(err, pager.ErrPageCorrupt) {
				t.Fatalf("replay: %v, want ErrPageCorrupt", err)
			}
			if _, err := c.motions(); !errors.Is(err, pager.ErrPageCorrupt) {
				t.Fatalf("motions: %v, want ErrPageCorrupt", err)
			}
			if ms, ops, err := c.replay(c.records - 1); err != nil || len(ms) != 0 || len(ops) != 1 {
				t.Fatalf("replay before the last delete: %d motions, %d ops, %v; want 0, 1, nil", len(ms), len(ops), err)
			}
		})
	}
}

// BenchmarkCatalogReplay times one full replay of a 50k-motion catalog:
// as a rewrite leaves it (one sorted run of inserts), and with 10k
// update pairs appended after it (a delete and an insert each, in no
// order), as a flat shard's Apply traffic leaves it.
func BenchmarkCatalogReplay(b *testing.B) {
	const n = 50_000
	rng := rand.New(rand.NewSource(1))
	ms := clusterMotions(n)
	base := []catalogStep{{rewrite: true, ms: slices.Clone(ms)}}
	for _, bc := range []struct {
		name  string
		steps []catalogStep
	}{
		{"rewritten", base},
		{"updated", append(base, catalogStep{ops: updates(rng, ms, 10_000)})},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c := buildCatalog(b, pager.DefaultPageSize, bc.steps)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				got, err := c.motions()
				if err != nil || len(got) != n {
					b.Fatalf("%d motions, %v; want %d", len(got), err, n)
				}
			}
		})
	}
}
