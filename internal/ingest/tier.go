package ingest

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"mobidx/internal/core"
	"mobidx/internal/dual"
)

// Op is one motion mutation (see dual.Op).
type Op = dual.Op

// Base is the bulk-loaded index the tier fronts. core.DualBPlus
// satisfies it.
type Base interface {
	// Build loads ms beside the live contents, which keep answering, and
	// returns the step that installs them in their place and frees the
	// old pages (see core.DualBPlus.Build). On a batching store both
	// steps belong in the caller's batch.
	Build(ms []dual.Motion) (install func() error, err error)
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
	// FoldOps folds the delta into the base, rebuilt in bulk, at the end
	// of the Add that brings the ops staged since the last fold to this
	// many or more (0 selects DefaultFoldOps).
	FoldOps int
}

// DefaultFoldOps is FoldOps' default. On the benchmark's mixed_ingest
// traffic it keeps the fold rate of the distinct-OID rule it replaced,
// which folded every 13 123 to 13 330 ops (EXPERIMENTS.md).
const DefaultFoldOps = 13 * 1024

func (c Config) withDefaults() Config {
	if c.FoldOps <= 0 {
		c.FoldOps = DefaultFoldOps
	}
	return c
}

// entry is the newest known state of one OID in the delta: an upserted
// motion, or a tombstone masking the base.
type entry struct {
	m    dual.Motion // a tombstone keeps only m.OID meaningful
	tomb bool
}

// ErrClosed is returned by operations on a closed tier.
var ErrClosed = errors.New("ingest: tier closed")

// Stats is a point-in-time snapshot of the tier's shape and counters.
type Stats struct {
	// BaseLen and MemLen describe the current shape: motions in the base,
	// OIDs in the delta.
	BaseLen, MemLen int
	// Merges counts folds into the base.
	Merges int
	// RunProbes counts the per-OID delta lookups of queries, one per base
	// answer.
	RunProbes int
	// BloomSkips and BloomFalsePos are always zero: the tier has no bloom
	// filters. They remain because the benchmark's trace still reads them.
	BloomSkips, BloomFalsePos int
}

// Tier is the log-structured write tier. It takes no latch: the caller
// runs one write at a time — Add, Load, Replay, Close, or Build or
// BuildLoad followed by the Install of its batch — and keeps the readers
// (queries, Len, Stats, BaseMotions) out of every write step but Build
// and BuildLoad. Those change nothing a reader sees, so readers may run
// beside them and beside each other, queries in parallel through a
// core.Executor: a fold builds its new base beside the live one while
// queries keep answering from the old (Build, Install). internal/shard
// keeps this contract with its own latches: every write runs under
// Shard.wmu, an Install under the write side of Shard.mu, and queries
// under its read side. Durability is the caller's concern — the tier is
// the volatile serving structure; internal/shard journals ops in its
// motion catalog within the same WAL batch.
type Tier struct {
	cfg  Config
	base Base

	// The delta: every OID written since the last fold, newest-wins. slot
	// maps an OID to its entry, so masking a base answer is one lookup and
	// the query join ranges over the dense slice.
	slot  map[dual.OID]int
	delta []entry
	// staged counts the ops staged since the last fold or load; in a
	// shard, they are its catalog records past the flushed watermark.
	staged int

	baseMs []dual.Motion // base contents, ascending OID, unique
	live   int           // total live motions (base ⊕ delta)
	// fail is sticky: ErrClosed, or the failed install that left the
	// base's in-memory state unknown.
	fail  error
	stats Stats

	// runProbes is atomic because queries run concurrently; each adds its
	// tally once.
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

// current resolves id to its live motion, if any: the delta's entry
// when it holds one, else the base contents.
func (t *Tier) current(id dual.OID) (dual.Motion, bool) {
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

// Add applies ops to the write tier in order: inserts are validated
// against the terrain and must target an absent OID, deletes must name
// the exact live motion — the same discipline the flat Insert/Delete
// path enforces. A batch is all-or-nothing: every op is checked before
// any is staged. If, with the batch staged, FoldOps or more ops have
// been staged since the last fold, the whole delta folds into a base
// rebuilt in bulk; the fold deliberately covers the whole batch, so
// merged=true means the base covers every op from this and all earlier
// Adds — a caller that journals the delta can truncate its journal on
// that signal without losing the batch's own tail. Add is Build then
// Install. The fold is atomic when the caller runs Add inside a batch on
// a batching store, as the shard does through Build and Install; if its
// install fails the base's in-memory state is unknown and the tier
// poisons itself — the shard quarantines on the same failure.
func (t *Tier) Add(ops []Op) (merged bool, err error) {
	b, err := t.Build(ops)
	if err != nil {
		return false, err
	}
	return t.Install(b)
}

// Batch is one write split into its two steps: Build stages it where no
// query looks, Install makes it visible.
type Batch struct {
	ops     []Op
	ms      []dual.Motion // the new base's contents, when install is set
	install func() error  // the base's install step: the batch folds or loads
	load    bool          // ms replaces the whole tier (Load)
}

// Build is Add's first step. It checks ops as Add does, and when staging
// them will fold the delta it builds the folded base — the delta, the
// batch's entries newest, merged into the base's contents — beside the
// live one. It changes nothing a reader sees, so queries may run
// meanwhile and answer the pre-batch state. No other write may run
// between Build and the Install of its batch.
func (t *Tier) Build(ops []Op) (*Batch, error) {
	if t.fail != nil {
		return nil, t.fail
	}
	batch, err := t.check(ops, "")
	if err != nil {
		return nil, err
	}
	b := &Batch{ops: ops}
	if t.staged+len(ops) < t.cfg.FoldOps {
		return b, nil
	}
	b.ms = t.folded(batch)
	if b.install, err = t.base.Build(b.ms); err != nil {
		return nil, fmt.Errorf("ingest: fold build: %w", err)
	}
	return b, nil
}

// Install is the second step of Add or Load: it makes b visible. An Add
// batch stages its ops into the delta; when it folds, the base Build
// made replaces the live one, whose pages it frees, and the delta
// empties. merged reports a fold.
func (t *Tier) Install(b *Batch) (merged bool, err error) {
	if t.fail != nil {
		return false, t.fail
	}
	if !b.load {
		t.apply(b.ops)
	}
	if b.install == nil {
		return false, nil
	}
	if err := b.install(); err != nil {
		// On a batching store the caller's batch rolls back, but the
		// base's in-memory generations may be half freed: nothing above
		// can trust this tier again.
		t.fail = fmt.Errorf("ingest: install folded base: %w", err)
		return false, t.fail
	}
	t.baseMs = b.ms
	clear(t.slot)
	t.delta = t.delta[:0]
	t.staged = 0
	if b.load {
		t.live = len(b.ms)
	} else {
		t.stats.Merges++
	}
	return true, nil
}

// Replay re-applies recovered delta ops (the catalog suffix past the
// flushed watermark) without ever folding: recovery must not write pages
// outside a batch, and the replayed delta is already durable. The ops
// count toward FoldOps, so the recovered tier folds where the original
// would have.
func (t *Tier) Replay(ops []Op) error {
	if t.fail != nil {
		return t.fail
	}
	if _, err := t.check(ops, "replay "); err != nil {
		return err
	}
	t.apply(ops)
	return nil
}

// check checks ops as one batch, each against the state the batch's
// earlier ops leave, and returns each OID the batch writes with its entry
// as the batch leaves it. verb prefixes the error messages.
func (t *Tier) check(ops []Op, verb string) (map[dual.OID]entry, error) {
	batch := make(map[dual.OID]entry, len(ops))
	for _, op := range ops {
		id := op.M.OID
		cur, seen := batch[id]
		if !seen {
			var live bool
			cur.m, live = t.current(id)
			cur.tomb = !live
		}
		if op.Insert {
			if err := core.ValidateMotion(op.M, t.cfg.Terrain); err != nil {
				return nil, fmt.Errorf("ingest: %s%w", verb, err)
			}
			if !cur.tomb {
				return nil, fmt.Errorf("ingest: %sinsert of live OID %d without delete", verb, id)
			}
		} else if cur.tomb || cur.m != op.M {
			return nil, fmt.Errorf("ingest: %sdelete of absent motion (OID %d)", verb, id)
		}
		batch[id] = entry{m: op.M, tomb: !op.Insert}
	}
	return batch, nil
}

// apply writes checked ops into the delta.
func (t *Tier) apply(ops []Op) {
	for _, op := range ops {
		e := entry{m: op.M, tomb: !op.Insert}
		if i, ok := t.slot[op.M.OID]; ok {
			t.delta[i] = e
		} else {
			t.slot[op.M.OID] = len(t.delta)
			t.delta = append(t.delta, e)
		}
		if op.Insert {
			t.live++
		} else {
			t.live--
		}
	}
	t.staged += len(ops)
}

// folded returns the exact live motion set once the batch is staged,
// ascending OID: the contents a fold loads into the new base. baseMs is
// already in OID order, so only the delta is sorted, and one linear merge
// of the two yields the set: a delta entry replaces the base motion with
// its OID (or, as a tombstone, drops it), and a delta upsert with a new
// OID joins in order. The batch's entries are the delta's newest.
func (t *Tier) folded(batch map[dual.OID]entry) []dual.Motion {
	ds := make([]dual.Motion, 0, len(t.delta)+len(batch))
	for _, e := range t.delta {
		if _, newer := batch[e.m.OID]; !newer && !e.tomb {
			ds = append(ds, e.m)
		}
	}
	for _, e := range batch {
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
		_, masked := t.slot[m.OID]
		if _, newer := batch[m.OID]; !masked && !newer {
			ms = append(ms, m)
		}
	}
	return append(ms, ds...)
}

// Load atomically replaces the whole tier's contents with ms: the base
// is rebuilt in bulk and the delta cleared (the shard BulkLoad path). It
// is BuildLoad then Install.
func (t *Tier) Load(ms []dual.Motion) error {
	b, err := t.BuildLoad(ms)
	if err != nil {
		return err
	}
	_, err = t.Install(b)
	return err
}

// BuildLoad is Load's first step, under the same contract as Build: it
// builds a base holding exactly ms beside the live one, and the Install
// of its batch replaces the tier's contents with it.
func (t *Tier) BuildLoad(ms []dual.Motion) (*Batch, error) {
	if t.fail != nil {
		return nil, t.fail
	}
	sorted, err := sortByOID(ms)
	if err != nil {
		return nil, err
	}
	b := &Batch{ms: sorted, load: true}
	if b.install, err = t.base.Build(sorted); err != nil {
		return nil, fmt.Errorf("ingest: load build: %w", err)
	}
	return b, nil
}

// BaseMotions returns the base index's exact contents, ascending OID.
// After a fold (Add returning merged=true) or a Load this is the full
// live state. Callers must not mutate the returned slice; it is the
// tier's own backing array, exposed so the shard can rewrite its catalog
// inside the same WAL batch without a copy.
func (t *Tier) BaseMotions() []dual.Motion { return t.baseMs }

// Len returns the number of live motions (base ⊕ delta).
func (t *Tier) Len() int { return t.live }

// Stats returns a snapshot of the tier's shape and counters.
func (t *Tier) Stats() Stats {
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
	if t.fail != nil {
		return nil, t.fail
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

// Close closes the tier: every later write or query fails with
// ErrClosed.
func (t *Tier) Close() error {
	t.fail = ErrClosed
	return nil
}
