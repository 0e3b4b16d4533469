package shard

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// The deterministic 1-D population and query set every shard test runs —
// the same conventions as the storage-fault sweeps (internal/pager/
// faulttest), so fingerprints are comparable across layers.

var terrain1D = dual.Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66}

func motions1D(n int) []dual.Motion {
	ms := make([]dual.Motion, n)
	for i := range ms {
		v := 0.2 + 0.2*float64(i%7)
		if i%2 == 1 {
			v = -v
		}
		ms[i] = dual.Motion{OID: dual.OID(i + 1), Y0: float64((i * 137) % 1000), T0: 0, V: v}
	}
	return ms
}

var queries1D = []dual.MORQuery{
	{Y1: 100, Y2: 300, T1: 10, T2: 40},
	{Y1: 0, Y2: 1000, T1: 0, T2: 5},
	{Y1: 450, Y2: 480, T1: 100, T2: 150},
	{Y1: 700, Y2: 900, T1: 0, T2: 60},
}

// openMem opens a shard over fresh in-memory media, a MemEnv's, of
// cfg.PageSize (0 selects the default).
func openMem(cfg Config) (*Shard, error) {
	m, err := NewMemEnv(cfg.PageSize).OpenMedia(shardMediaName(cfg.ID))
	if err != nil {
		return nil, err
	}
	return Open(cfg, m.Base, m.Log)
}

// openCluster opens an n-band cluster over a fresh MemEnv of the given
// page size (0 selects the default), closes it when the test ends, and
// returns its router.
func openCluster(t testing.TB, pageSize int, cfg ClusterConfig, n int) *Router {
	t.Helper()
	c, err := OpenCluster(NewMemEnv(pageSize), cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return c.Router()
}

// fingerprint canonicalizes one result set: sorted, deduplicated OIDs.
func fingerprint(ids []dual.OID) string {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sb strings.Builder
	var prev dual.OID
	for i, id := range ids {
		if i > 0 && id == prev {
			continue
		}
		fmt.Fprintf(&sb, "%d,", id)
		prev = id
	}
	return sb.String()
}

// newOracle builds the unsharded reference index on a clean MemStore.
func newOracle(t testing.TB) *core.DualBPlus {
	t.Helper()
	ix, err := core.NewDualBPlus(pager.NewMemStore(pager.DefaultPageSize),
		core.DualBPlusConfig{Terrain: terrain1D})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// bruteForce answers q exactly over ms, restricted to the given bands
// (nil = all): the ground truth for degraded-answer assertions.
func bruteForce(p *Partitioner, ms []dual.Motion, q dual.MORQuery, healthy map[int]bool) []dual.OID {
	var out []dual.OID
	for _, m := range ms {
		if !m.Matches(q) {
			continue
		}
		if healthy != nil {
			held := false
			for _, b := range p.Assign(m) {
				if healthy[b] {
					held = true
					break
				}
			}
			if !held {
				continue
			}
		}
		out = append(out, m.OID)
	}
	return out
}

// healthyUnion is the degraded-answer oracle: the exact union of what the
// healthy shards among the query's targets hold and match.
func healthyUnion(p *Partitioner, ms []dual.Motion, q dual.MORQuery, down map[int]bool) []dual.OID {
	healthy := make(map[int]bool)
	for _, b := range p.Overlapping(q) {
		if !down[b] {
			healthy[b] = true
		}
	}
	return bruteForce(p, ms, q, healthy)
}
