// Package shard is the fault-isolated sharded serving layer: the object
// space is partitioned into contiguous spatial bands, each band owned by a
// Shard wrapping its own write-ahead-logged store and Dual-B+ index, and a
// Router fans MOR queries to the shards whose bands overlap the query,
// merging with the same sort+dedup contract core.Executor guarantees — a
// no-fault routed query is byte-identical to the same query against a
// single unsharded index.
//
// The layer's reason to exist is what happens when a shard is NOT fine.
// The router makes one attempt per shard, behind a per-shard circuit
// breaker fed by Health() and call outcomes; nothing in the stack retries.
// When a shard fails, or its breaker is open, the query degrades instead
// of dying: the router returns the merged results of the shards that
// served together with a typed *PartialError naming the missing
// partitions. Writes degrade the same way.
//
// A Cluster makes the deployment durable: each shard keeps a superblock and
// a motion catalog beside its trees, and the cluster a manifest, all three
// pager.RecordChains written in the WAL batch of the change they describe
// (durable.go, manifest.go), so a crash recovers exactly one topology.
package shard

import (
	"fmt"
	"sort"

	"mobidx/internal/dual"
)

// assignSlack widens band boundaries when routing motions and queries.
// Matches() admits candidates within geom.Eps of the query edges, so a
// motion sitting exactly on a band boundary could have its epsilon-wide
// witness fall one band below its assignment; a slack much larger than
// the predicate tolerance (and much smaller than any band) makes the
// boundary case route to both sides. Over-inclusion is free — shard
// answers are exact and the merge deduplicates — while under-inclusion
// would drop an object from the answer.
const assignSlack = 1e-6

// Partitioner deterministically splits the terrain [0, YMax] into
// contiguous bands at interior cut positions: with cuts c1 < … < c_{n-1},
// band 0 owns [0, c1), band i owns [c_i, c_{i+1}), and the top band also
// owns y = YMax. It is pure arithmetic over an immutable cut list — every
// router replica computes the same assignment, which is what makes the
// sharding contract testable against a single-index oracle, and a
// rebalance is a new Partitioner with one more cut, never a mutation
// (see SplitBand).
type Partitioner struct {
	yMax float64
	cuts []float64 // interior cuts, strictly ascending, within (0, yMax)
}

// NewPartitioner builds a partitioner over [0, yMax] with n equal bands.
func NewPartitioner(yMax float64, n int) (*Partitioner, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: partitioner needs >= 1 band, got %d", n)
	}
	cuts := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		cuts = append(cuts, yMax*float64(i)/float64(n))
	}
	return NewPartitionerCuts(yMax, cuts)
}

// NewPartitionerCuts builds a partitioner over [0, yMax] with the given
// interior cuts (strictly ascending, strictly inside (0, yMax)); len(cuts)
// + 1 bands result. An empty cut list is the single-band partitioner.
func NewPartitionerCuts(yMax float64, cuts []float64) (*Partitioner, error) {
	if yMax <= 0 {
		return nil, fmt.Errorf("shard: partitioner needs yMax > 0, got %v", yMax)
	}
	own := make([]float64, len(cuts))
	copy(own, cuts)
	prev := 0.0
	for i, c := range own {
		if c <= prev || c >= yMax {
			return nil, fmt.Errorf("shard: cut %d = %v out of order in (0, %v)", i, c, yMax)
		}
		prev = c
	}
	return &Partitioner{yMax: yMax, cuts: own}, nil
}

// N returns the number of bands.
func (p *Partitioner) N() int { return len(p.cuts) + 1 }

// Cuts returns a copy of the interior cut positions (ascending).
func (p *Partitioner) Cuts() []float64 {
	out := make([]float64, len(p.cuts))
	copy(out, p.cuts)
	return out
}

// Bounds returns band i's extent [lo, hi) (the top band also owns hi).
func (p *Partitioner) Bounds(i int) (lo, hi float64) {
	lo, hi = 0, p.yMax
	if i > 0 {
		lo = p.cuts[i-1]
	}
	if i < len(p.cuts) {
		hi = p.cuts[i]
	}
	return lo, hi
}

// SplitBand returns a new partitioner with band i split at cut, which
// must fall strictly inside the band. Band i becomes [lo, cut) and a new
// band i+1 becomes [cut, hi); every band above shifts up by one. The
// receiver is untouched — topology swaps install the new value atomically.
func (p *Partitioner) SplitBand(i int, cut float64) (*Partitioner, error) {
	if i < 0 || i >= p.N() {
		return nil, fmt.Errorf("shard: split band %d of %d", i, p.N())
	}
	lo, hi := p.Bounds(i)
	if cut <= lo || cut >= hi {
		return nil, fmt.Errorf("shard: split cut %v outside band %d = [%v, %v)", cut, i, lo, hi)
	}
	cuts := make([]float64, 0, len(p.cuts)+1)
	cuts = append(cuts, p.cuts[:i]...)
	cuts = append(cuts, cut)
	cuts = append(cuts, p.cuts[i:]...)
	return NewPartitionerCuts(p.yMax, cuts)
}

// band returns the band owning position y: the number of interior cuts at
// or below y, so a position exactly on a cut belongs to the band above it
// (out-of-terrain positions clamp to the border bands).
func (p *Partitioner) band(y float64) int {
	return sort.Search(len(p.cuts), func(i int) bool { return p.cuts[i] > y })
}

// Overlapping returns the bands a query must be fanned to: every band
// intersecting [Y1, Y2], widened by the routing slack. The slice is
// ascending and non-empty for any well-formed query.
func (p *Partitioner) Overlapping(q dual.MORQuery) []int {
	lo := p.band(q.Y1 - assignSlack)
	hi := p.band(q.Y2 + assignSlack)
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// Assign returns the bands that must hold motion m: every band its
// trajectory touches from its update position until it reaches a terrain
// border, where the model forces a fresh update (§2). A MOR query's
// matching witness extrapolates the current motion linearly, so any
// position the object can be queried at lies between Y0 and the border it
// is heading for — replicating the motion across exactly those bands is
// what makes the union of per-shard answers equal the unsharded answer.
// The slice is ascending; replication averages (n+1)/2 bands, the honest
// price of trajectories that run border-to-border.
func (p *Partitioner) Assign(m dual.Motion) []int {
	var lo, hi int
	if m.V >= 0 {
		lo, hi = p.band(m.Y0-assignSlack), p.N()-1
	} else {
		lo, hi = 0, p.band(m.Y0+assignSlack)
	}
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}
