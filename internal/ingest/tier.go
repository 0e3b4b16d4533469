package ingest

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"mobidx/internal/core"
	"mobidx/internal/dual"
)

// Op is one motion mutation (see dual.Op).
type Op = dual.Op

// Base is the immutable bulk-loaded index the tier fronts. core.DualBPlus
// satisfies it; any Index1D with Subqueries would.
type Base interface {
	// BulkLoad atomically replaces the index contents (one WAL batch on a
	// batching store).
	BulkLoad(ms []dual.Motion) error
	// Subqueries decomposes a MOR query into independent exact pieces.
	Subqueries(q dual.MORQuery) []func(emit func(dual.OID)) error
	// Len reports the number of indexed motions.
	Len() int
}

// Config tunes the tier. The zero value selects the defaults.
type Config struct {
	// Terrain validates inserted motions exactly as the base index would,
	// so a motion the eventual merge must reject is refused at Add time.
	Terrain dual.Terrain
	// MemtableFlush closes the delta's open generation once this many
	// distinct OIDs have been written in it (0 selects 2048).
	MemtableFlush int
	// MaxRuns folds the delta into the base via one atomic BulkLoad
	// reindex once this many generations have closed (0 selects 4).
	MaxRuns int
}

func (c Config) withDefaults() Config {
	if c.MemtableFlush <= 0 {
		c.MemtableFlush = 2048
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 4
	}
	return c
}

// entry is the newest known state of one OID in the delta: an upserted
// motion, or a tombstone masking the base, stamped with the generation
// it was last written in.
type entry struct {
	m    dual.Motion // a tombstone keeps only m.OID meaningful
	tomb bool
	gen  int
}

// ErrClosed is returned by operations on a closed tier.
var ErrClosed = errors.New("ingest: tier closed")

// Stats is a point-in-time snapshot of the tier's shape and counters.
type Stats struct {
	// BaseLen and MemLen describe the current shape: motions in the base,
	// OIDs in the delta.
	BaseLen, MemLen int
	// Freezes counts closed generations; Merges counts folds into the
	// base.
	Freezes, Merges int
	// RunProbes counts the per-OID delta lookups of queries (one per base
	// answer) and point lookups.
	RunProbes int
	// BloomSkips and BloomFalsePos are always zero: the tier has no bloom
	// filters. They remain because the benchmark's trace still reads them.
	BloomSkips, BloomFalsePos int
}

// Tier is the log-structured write tier. All methods are safe for
// concurrent use: Add/Flush/Load serialize on a write latch, queries and
// lookups share a read latch (and may run in parallel through a
// core.Executor). Durability is the caller's concern — the tier is the
// volatile serving structure; internal/shard journals ops in its motion
// catalog within the same WAL batch.
type Tier struct {
	cfg  Config
	base Base

	mu sync.RWMutex
	// The delta: every OID written since the last fold, newest-wins. slot
	// maps an OID to its entry, so masking a base answer is one lookup and
	// the query join ranges over the dense slice.
	slot  map[dual.OID]int
	delta []entry
	// gen is the open generation, which is also the number closed since
	// the last fold; genLen counts the distinct OIDs written in it.
	gen, genLen int

	baseMs []dual.Motion // base contents, ascending OID, unique
	live   int           // total live motions (base ⊕ delta)
	fail   error         // sticky: a failed merge left base in-memory state unknown
	closed bool
	stats  Stats

	// runProbes is atomic so queries and lookups count under the read
	// latch; each call adds its tally once.
	runProbes atomic.Int64
}

// New builds a tier over an empty base index.
func New(base Base, cfg Config) (*Tier, error) {
	return Attach(base, nil, cfg)
}

// Attach builds a tier over a base index already holding exactly ms
// (the recovery path: the shard reattaches its bulk-loaded index and
// hands the tier the flushed prefix of its catalog). ms must carry
// unique OIDs; the tier upserts per object.
func Attach(base Base, ms []dual.Motion, cfg Config) (*Tier, error) {
	t := &Tier{cfg: cfg.withDefaults(), base: base, slot: make(map[dual.OID]int)}
	sorted, err := sortByOID(ms)
	if err != nil {
		return nil, err
	}
	if base.Len() != len(sorted) {
		return nil, fmt.Errorf("ingest: base holds %d motions, attach given %d", base.Len(), len(sorted))
	}
	t.baseMs = sorted
	t.live = len(sorted)
	return t, nil
}

func byOID(a, b dual.Motion) int { return cmp.Compare(a.OID, b.OID) }

func sortByOID(ms []dual.Motion) ([]dual.Motion, error) {
	out := slices.Clone(ms)
	slices.SortFunc(out, byOID)
	for i := 1; i < len(out); i++ {
		if out[i].OID == out[i-1].OID {
			return nil, fmt.Errorf("ingest: duplicate OID %d (the tier upserts per object)", out[i].OID)
		}
	}
	return out, nil
}

func (t *Tier) ok() error {
	if t.closed {
		return ErrClosed
	}
	return t.fail
}

// currentLocked resolves id to its live motion, if any: the delta's
// entry when it holds one, else the base contents.
func (t *Tier) currentLocked(id dual.OID) (dual.Motion, bool) {
	if i, ok := t.slot[id]; ok {
		if e := t.delta[i]; !e.tomb {
			return e.m, true
		}
		return dual.Motion{}, false
	}
	i := sort.Search(len(t.baseMs), func(i int) bool { return t.baseMs[i].OID >= id })
	if i < len(t.baseMs) && t.baseMs[i].OID == id {
		return t.baseMs[i], true
	}
	return dual.Motion{}, false
}

// Get is the point lookup: the live motion for id, if any. Lookups
// share the read latch, so they run concurrently with queries.
func (t *Tier) Get(id dual.OID) (dual.Motion, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.ok(); err != nil {
		return dual.Motion{}, false, err
	}
	t.runProbes.Add(1)
	m, ok := t.currentLocked(id)
	return m, ok, nil
}

// Add applies ops to the write tier in order: inserts are validated
// against the terrain and must target an absent OID, deletes must name
// the exact live motion — the same discipline the flat Insert/Delete
// path enforces. A batch is all-or-nothing: every op is checked before
// any is staged. A generation closes once MemtableFlush distinct OIDs
// have been written in it. If, after every op is staged, MaxRuns
// generations have closed, the whole delta folds into the base via one
// atomic BulkLoad reindex; the merge deliberately waits for the end of
// the batch so that merged=true means the base covers every op from this
// and all earlier Adds — a caller that journals the delta can truncate
// its journal on that signal without losing the batch's own tail. On a
// batching store the fold is atomic; if it fails the base's in-memory
// state is unknown and the tier poisons itself — the shard quarantines
// on the same failure.
func (t *Tier) Add(ops []Op) (merged bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ok(); err != nil {
		return false, err
	}
	if err := t.stageLocked(ops, ""); err != nil {
		return false, err
	}
	if t.gen >= t.cfg.MaxRuns {
		if err := t.mergeLocked(); err != nil {
			return false, err
		}
		merged = true
	}
	return merged, nil
}

// Replay re-applies recovered delta ops (the catalog suffix past the
// flushed watermark) without ever merging: recovery must not write pages
// outside a batch, and the replayed delta is already durable. Generations
// still close, so the recovered tier folds where the original would have.
func (t *Tier) Replay(ops []Op) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ok(); err != nil {
		return err
	}
	return t.stageLocked(ops, "replay ")
}

// stageLocked checks ops as one batch, each against the state the
// batch's earlier ops leave, and only then writes them into the delta,
// closing generations as they fill. verb prefixes the error messages.
func (t *Tier) stageLocked(ops []Op, verb string) error {
	batch := make(map[dual.OID]entry, len(ops)) // each OID as the earlier ops leave it
	for _, op := range ops {
		id := op.M.OID
		cur, seen := batch[id]
		if !seen {
			var live bool
			cur.m, live = t.currentLocked(id)
			cur.tomb = !live
		}
		if op.Insert {
			if err := core.ValidateMotion(op.M, t.cfg.Terrain); err != nil {
				return fmt.Errorf("ingest: %s%w", verb, err)
			}
			if !cur.tomb {
				return fmt.Errorf("ingest: %sinsert of live OID %d without delete", verb, id)
			}
		} else if cur.tomb || cur.m != op.M {
			return fmt.Errorf("ingest: %sdelete of absent motion (OID %d)", verb, id)
		}
		batch[id] = entry{m: op.M, tomb: !op.Insert}
	}
	for _, op := range ops {
		e := entry{m: op.M, tomb: !op.Insert, gen: t.gen}
		if i, ok := t.slot[op.M.OID]; !ok {
			t.slot[op.M.OID] = len(t.delta)
			t.delta = append(t.delta, e)
			t.genLen++
		} else {
			if t.delta[i].gen != t.gen {
				t.genLen++
			}
			t.delta[i] = e
		}
		if op.Insert {
			t.live++
		} else {
			t.live--
		}
		if t.genLen >= t.cfg.MemtableFlush {
			t.gen++
			t.genLen = 0
			t.stats.Freezes++
		}
	}
	return nil
}

// mergeLocked folds the delta into the base with one atomic BulkLoad
// reindex of the exact live motion set. baseMs is already in OID order,
// so only the delta is sorted, and one linear merge of the two yields the
// new base: a delta entry replaces the base motion with its OID (or, as a
// tombstone, drops it), and a delta upsert with a new OID joins in order.
func (t *Tier) mergeLocked() error {
	ds := make([]dual.Motion, 0, len(t.delta))
	for _, e := range t.delta {
		if !e.tomb {
			ds = append(ds, e.m)
		}
	}
	slices.SortFunc(ds, byOID)
	ms := make([]dual.Motion, 0, len(t.baseMs)+len(ds))
	for _, m := range t.baseMs {
		for len(ds) > 0 && ds[0].OID < m.OID {
			ms, ds = append(ms, ds[0]), ds[1:]
		}
		if _, masked := t.slot[m.OID]; !masked {
			ms = append(ms, m)
		}
	}
	ms = append(ms, ds...)
	if err := t.base.BulkLoad(ms); err != nil {
		// On a batching store the reindex batch rolled back, but the base's
		// in-memory generations may hold a partial build: nothing above can
		// trust this tier again.
		t.fail = fmt.Errorf("ingest: merge reindex: %w", err)
		return t.fail
	}
	t.baseMs = ms
	t.resetDeltaLocked()
	t.stats.Merges++
	return nil
}

func (t *Tier) resetDeltaLocked() {
	clear(t.slot)
	t.delta = t.delta[:0]
	t.gen, t.genLen = 0, 0
}

// Flush folds the entire delta into the base now, regardless of
// thresholds. No-op when the delta is empty.
func (t *Tier) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ok(); err != nil {
		return err
	}
	if len(t.delta) == 0 {
		return nil
	}
	return t.mergeLocked()
}

// Load atomically replaces the whole tier's contents with ms: the base
// is bulk-loaded and the delta cleared (the shard BulkLoad path).
func (t *Tier) Load(ms []dual.Motion) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ok(); err != nil {
		return err
	}
	sorted, err := sortByOID(ms)
	if err != nil {
		return err
	}
	if err := t.base.BulkLoad(sorted); err != nil {
		t.fail = fmt.Errorf("ingest: load reindex: %w", err)
		return t.fail
	}
	t.baseMs = sorted
	t.resetDeltaLocked()
	t.live = len(sorted)
	return nil
}

// BaseMotions returns the base index's exact contents, ascending OID.
// After a merge (Add returning merged=true, or Flush) this is the full
// live state. Callers must not mutate the returned slice; it is the
// tier's own backing array, exposed so the shard can rewrite its catalog
// inside the same WAL batch without a copy.
func (t *Tier) BaseMotions() []dual.Motion {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.baseMs
}

// Len returns the number of live motions (base ⊕ delta).
func (t *Tier) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Stats returns a snapshot of the tier's shape and counters.
func (t *Tier) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.stats
	s.MemLen = len(t.delta)
	s.BaseLen = len(t.baseMs)
	s.RunProbes = int(t.runProbes.Load())
	return s
}

// Query answers the MOR query sequentially: sorted ascending,
// deduplicated — identical to a flat index over the same motions.
func (t *Tier) Query(q dual.MORQuery) ([]dual.OID, error) {
	return t.QueryParallelCtx(context.Background(), core.NewExecutor(1), q)
}

// QueryParallelCtx answers the MOR query with the base subqueries and one
// delta piece — the delta upserts matching the query — fanned out on exec
// into the query's scratch (core.Scratch.RunPiecesCtx), then merges the
// overlay exactly: base answers masked by any delta entry for the same OID
// drop out (the delta is newer), and the matching delta upserts join. The
// result is byte-identical to the flat index at every worker count: the
// base answer is deterministic (core.Scratch.Union of the sorted
// buckets), and the overlay is resolved newest-wins per OID. Identity
// holds for model-conformant queries (dual.MORQuery's now ≤ T1 contract,
// so T1 is at or after every live motion's update time) — the regime in
// which the flat index itself is exact. The answer is the query's one
// allocation: survivors and upserts are disjoint, so their union is
// sized exactly before it is built.
func (t *Tier) QueryParallelCtx(ctx context.Context, exec *core.Executor, q dual.MORQuery) ([]dual.OID, error) {
	if err := core.ValidateQuery(q); err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.ok(); err != nil {
		return nil, err
	}
	pieces := t.base.Subqueries(q)
	nb := len(pieces)
	// The delta holds one newest-wins entry per OID, so one pass decides
	// every upsert.
	pieces = append(pieces, func(emit func(dual.OID)) error {
		for _, e := range t.delta {
			if !e.tomb && e.m.Matches(q) {
				emit(e.m.OID)
			}
		}
		return nil
	})
	sc := core.GetScratch()
	defer sc.Release()
	buckets, err := sc.RunPiecesCtx(ctx, exec, pieces)
	if err != nil {
		return nil, err
	}
	// The tier keeps its typed sort, per bucket, and merges the sorted
	// base buckets (Scratch.Union) rather than through Scratch.Merge's
	// reflective sort, which cost mixed_ingest 7 % of its query rate on
	// a 2-CPU host (EXPERIMENTS.md, "A query allocates its answer").
	// Once the benchmark stops counting kept answers (ROADMAP item
	// 1(a)), Scratch.Merge should merge this way and this loop go. The
	// deduplicated base answer is masked with one delta lookup per OID:
	// any delta entry for the OID is newer, so the base's version drops
	// out (the delta's version decides through the upserts).
	for _, b := range buckets {
		slices.Sort(b)
	}
	base := sc.Union(buckets[:nb])
	if len(base) > 0 {
		t.runProbes.Add(int64(len(base)))
	}
	base = slices.DeleteFunc(base, func(id dual.OID) bool {
		_, masked := t.slot[id]
		return masked
	})
	upserts := buckets[nb]
	if len(base)+len(upserts) == 0 {
		return nil, nil
	}
	return core.AppendUnion(make([]dual.OID, 0, len(base)+len(upserts)), base, upserts), nil
}

// Close marks the tier closed; further operations fail with ErrClosed.
// In-flight queries drain under the read latch first.
func (t *Tier) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	return nil
}
