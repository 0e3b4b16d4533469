package main

import (
	"fmt"
	"time"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/workload"
)

// The deployment under test, identical for every workload: the paper's §5
// terrain split into two equal bands, c = 4 observation indexes with the
// paper's 12-byte records, 4 KiB pages, and an LRU pool of poolPages per
// shard installed above the WAL, where queries read.
const (
	bands          = 2
	observationC   = 4
	recordCodec    = bptree.Compact
	pageSize       = 4096
	autoCheckpoint = 8 << 20
	updatesPerCall = 10 // motion updates (delete+insert pairs) per Apply

	// feedPeriod is the subscription feed's clock: a tick is due this often.
	// A tick takes about 55 ms beside the query client, so the feed holds the
	// shards a quarter of the time and keeps up on a host several times
	// slower.
	feedPeriod = 200 * time.Millisecond
)

var terrain = dual.Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66}

// splitCuts takes the cluster from 2 to 8 equal bands, widest bands first.
var splitCuts = []float64{250, 750, 125, 375, 625, 875}

// peerKind is what the second client does while the first issues queries.
type peerKind int

const (
	peerQuery  peerKind = iota // a second query client
	peerUpdate                 // Simulator ticks, one Apply per updatesPerCall updates
	peerFeed                   // a GeofenceSim tick every feedPeriod: Apply whole tick, AdvanceSubs, DrainSubs
	peerSplit                  // the six splits of splitCuts; the query client then serves out the window
)

// cacheRelation is the working-set property a workload is built around.
type cacheRelation int

const (
	cacheAny     cacheRelation = iota
	cacheFits                  // pages in use ≤ pool: every read is a hit
	cacheExceeds               // pages in use ≥ 3 × pool: descents miss
)

// spec is one workload: a traffic mix chosen because it loads layers the
// others leave idle (why), at full size.
type spec struct {
	name     string
	why      string
	n        int // mobile objects
	fences   int // standing queries (peerFeed only)
	mix      workload.QueryMix
	peer     peerKind
	peerDoes string // what one peer call and one peer work item are
	ingest   bool   // shards carry shard.Config.Ingest defaults
	cache    cacheRelation

	// The traced run replays rounds × (one peer call, then on every
	// queryStride-th round queriesPerRound queries) from one client, so
	// its counts repeat for a seed.
	rounds          int
	queriesPerRound int
	queryStride     int
}

var specs = []spec{
	{
		name: "read_small", n: 200000, mix: workload.SmallQueries(), peer: peerQuery, cache: cacheExceeds,
		why:      "1% queries over an index several times the pool: Lemma-1 planning, B+-tree descents and pool misses down to FileStore; WAL, ingest and subscribe idle",
		peerDoes: "call = item = one 1% query from the second query client",
		rounds:   500, queriesPerRound: 1, queryStride: 1,
	},
	{
		name: "read_large", n: 40000, mix: workload.LargeQueries(), peer: peerQuery, cache: cacheFits,
		why:      "10% queries over an index that fits the pool: leaf scans, Matches filtering of false hits and sort/dedup merges; the pager is all hits",
		peerDoes: "call = item = one 10% query from the second query client",
		rounds:   200, queriesPerRound: 1, queryStride: 1,
	},
	{
		name: "mixed_direct", n: 200000, mix: workload.SmallQueries(), peer: peerUpdate,
		why:      "the paper's update model on real media: each Apply mutates the trees in one WAL batch with one fsync under the shard write latch while a reader queues on it",
		peerDoes: "call = one Apply of 10 motion updates; item = one motion update made durable",
		rounds:   150, queriesPerRound: 4, queryStride: 1,
	},
	{
		name: "mixed_ingest", n: 200000, mix: workload.SmallQueries(), peer: peerUpdate, ingest: true,
		why:      "the same traffic through the ingest tier: memtable, catalog journal and bulk folds replace per-write tree mutation, and queries pay the overlay",
		peerDoes: "call = one Apply of 10 motion updates; item = one motion update made durable",
		// Enough updates that every shard's tier folds at least once.
		rounds: 1500, queriesPerRound: 1, queryStride: 3,
	},
	{
		name: "subscribe_feed", n: 2000, fences: 1000, mix: workload.SmallQueries(), peer: peerFeed,
		why:      "1000 standing geofences over 2000 commuters fed a whole tick per Apply, five ticks a second: the subscription matcher, certificates and drains dominate instead of fsync",
		peerDoes: "call = one feed tick, due every 200 ms and timed from then (Apply whole tick, AdvanceSubs, DrainSubs of every fence); item = one motion update fed, so the rate is the offered one unless the feed falls behind",
		rounds:   20, queriesPerRound: 10, queryStride: 1,
	},
	{
		name: "split_recover", n: 100000, mix: workload.SmallQueries(), peer: peerSplit,
		why:      "a window of queries that opens with six live splits (2 to 8 bands), then a reopen: manifest, catalog enumeration, receiver bulk load, quiesce barrier, WAL replay, index reattach",
		peerDoes: "call = item = one Cluster.Split; the six run back to back from the start of the window, and the rate is over the time they took",
		rounds:   len(splitCuts), queriesPerRound: 100, queryStride: 1,
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scale shrinks every workload by the same factor for the smoke test, the
// pool with it so the cache relations keep their direction.
type scale struct {
	div       int // object and fence counts are divided by this
	roundDiv  int // traced-replay rounds are divided by this
	poolPages int // LRU pool per shard
	setups    int // set-ups per run; setup_s is their median
	checks    int // oracle queries after the clients quiesce
	gates     bool
}

var (
	fullScale  = scale{div: 1, roundDiv: 1, poolPages: 1024, setups: 3, checks: 200, gates: true}
	shortScale = scale{div: 40, roundDiv: 10, poolPages: 25, setups: 1, checks: 50}
)

func (sc scale) of(n int) int {
	if n == 0 {
		return 0
	}
	if n = n / sc.div; n < 1 {
		n = 1
	}
	return n
}

// roundsOf keeps at least a handful of rounds at short scale, except for
// the splits, which are always all six.
func (sc scale) roundsOf(sp *spec) int {
	if sp.peer == peerSplit {
		return sp.rounds
	}
	if n := sp.rounds / sc.roundDiv; n > 6 {
		return n
	}
	return 6
}
