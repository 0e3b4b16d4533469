package ingest

import (
	"context"
	"errors"
	"fmt"
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
	// MemtableFlush freezes the memtable into an immutable run once it
	// holds this many distinct OIDs (0 selects 2048).
	MemtableFlush int
	// MaxRuns folds runs + memtable into the base via one atomic BulkLoad
	// reindex once this many frozen runs exist (0 selects 4).
	MaxRuns int
	// BloomBitsPerKey sizes each run's bloom filter (0 selects 10, ~1%
	// false positives).
	BloomBitsPerKey int
}

func (c Config) withDefaults() Config {
	if c.MemtableFlush <= 0 {
		c.MemtableFlush = 2048
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 4
	}
	if c.BloomBitsPerKey <= 0 {
		c.BloomBitsPerKey = 10
	}
	return c
}

// delta is the newest known state of one OID in the write tier: an
// upserted motion, or a tombstone masking the base.
type delta struct {
	m    dual.Motion
	tomb bool
}

// run is a frozen memtable: deltas sorted by OID with a bloom filter
// over the member OIDs so point lookups skip runs that cannot hold the
// key.
type run struct {
	oids   []dual.OID // ascending
	deltas []delta    // parallel to oids
	filter *Bloom
}

func (r *run) get(id dual.OID) (delta, bool) {
	i := sort.Search(len(r.oids), func(i int) bool { return r.oids[i] >= id })
	if i < len(r.oids) && r.oids[i] == id {
		return r.deltas[i], true
	}
	return delta{}, false
}

// ErrClosed is returned by operations on a closed tier.
var ErrClosed = errors.New("ingest: tier closed")

// Stats is a point-in-time snapshot of the tier's shape and bloom
// effectiveness.
type Stats struct {
	// BaseLen, MemLen, Runs describe the current shape.
	BaseLen, MemLen, Runs int
	// Freezes and Merges count memtable→run and runs→base transitions.
	Freezes, Merges int
	// RunProbes counts point lookups that consulted at least one run;
	// BloomSkips counts runs skipped by their filter; BloomFalsePos
	// counts runs whose filter said maybe but held no entry.
	RunProbes, BloomSkips, BloomFalsePos int
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

	mu     sync.RWMutex
	mem    map[dual.OID]delta
	runs   []*run        // oldest first
	baseMs []dual.Motion // base contents, ascending OID, unique
	live   int           // total live motions (base ⊕ delta)
	fail   error         // sticky: a failed merge left base in-memory state unknown
	closed bool
	stats  Stats

	// Bloom-probe counters are atomic so point lookups and query-time
	// masking can run under the read latch.
	runProbes, bloomSkips, bloomFalsePos atomic.Int64
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
	t := &Tier{cfg: cfg.withDefaults(), base: base, mem: make(map[dual.OID]delta)}
	sorted, err := sortByOID(ms)
	if err != nil {
		return nil, err
	}
	if base.Len() != len(sorted) {
		return nil, fmt.Errorf("ingest: base holds %d motions, attach given %d", base.Len(), len(sorted))
	}
	t.baseMs = sorted
	t.live = len(sorted)
	t.stats.BaseLen = len(sorted)
	return t, nil
}

func sortByOID(ms []dual.Motion) ([]dual.Motion, error) {
	out := append([]dual.Motion(nil), ms...)
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
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

// deltaLocked returns the newest delta for id across memtable and runs
// (newest first), maintaining the bloom counters. Safe under the read
// latch: the counters are atomic.
func (t *Tier) deltaLocked(id dual.OID) (delta, bool) {
	if d, ok := t.mem[id]; ok {
		return d, true
	}
	if len(t.runs) > 0 {
		t.runProbes.Add(1)
	}
	for i := len(t.runs) - 1; i >= 0; i-- {
		r := t.runs[i]
		if !r.filter.MayContain(uint64(id)) {
			t.bloomSkips.Add(1)
			continue
		}
		if d, ok := r.get(id); ok {
			return d, true
		}
		t.bloomFalsePos.Add(1)
	}
	return delta{}, false
}

// shadowedLocked reports whether a level newer than run i (the memtable,
// or a later run) holds a delta for id — i.e. whether run i's entry for
// id is stale. Blooms skip runs that cannot hold the key.
func (t *Tier) shadowedLocked(id dual.OID, i int) bool {
	if _, ok := t.mem[id]; ok {
		return true
	}
	for j := len(t.runs) - 1; j > i; j-- {
		r := t.runs[j]
		if !r.filter.MayContain(uint64(id)) {
			t.bloomSkips.Add(1)
			continue
		}
		if _, ok := r.get(id); ok {
			return true
		}
		t.bloomFalsePos.Add(1)
	}
	return false
}

// baseMotionLocked binary-searches the base contents for id.
func (t *Tier) baseMotionLocked(id dual.OID) (dual.Motion, bool) {
	i := sort.Search(len(t.baseMs), func(i int) bool { return t.baseMs[i].OID >= id })
	if i < len(t.baseMs) && t.baseMs[i].OID == id {
		return t.baseMs[i], true
	}
	return dual.Motion{}, false
}

// currentLocked resolves id to its live motion, if any, across the whole
// tier.
func (t *Tier) currentLocked(id dual.OID) (dual.Motion, bool) {
	if d, ok := t.deltaLocked(id); ok {
		if d.tomb {
			return dual.Motion{}, false
		}
		return d.m, true
	}
	return t.baseMotionLocked(id)
}

// Get is the point lookup: the live motion for id, if any. Lookups
// share the read latch, so they run concurrently with queries.
func (t *Tier) Get(id dual.OID) (dual.Motion, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.ok(); err != nil {
		return dual.Motion{}, false, err
	}
	m, ok := t.currentLocked(id)
	return m, ok, nil
}

// Add applies ops to the write tier in order: inserts are validated
// against the terrain and must target an absent OID, deletes must name
// the exact live motion — the same discipline the flat Insert/Delete
// path enforces. Crossing the memtable threshold freezes it into a run.
// If, after every op is staged, MaxRuns frozen runs exist, the whole
// delta folds into the base via one atomic BulkLoad reindex; the merge
// deliberately waits for the end of the batch so that merged=true means
// the base covers every op from this and all earlier Adds — a caller
// that journals the delta can truncate its journal on that signal
// without losing the batch's own tail. On a batching store the fold is
// atomic; if it fails the base's in-memory state is unknown and the tier
// poisons itself — the shard quarantines on the same failure.
func (t *Tier) Add(ops []Op) (merged bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ok(); err != nil {
		return false, err
	}
	for _, op := range ops {
		if op.Insert {
			if err := core.ValidateMotion(op.M, t.cfg.Terrain); err != nil {
				return false, fmt.Errorf("ingest: %w", err)
			}
			if _, live := t.currentLocked(op.M.OID); live {
				return false, fmt.Errorf("ingest: insert of live OID %d without delete", op.M.OID)
			}
			t.mem[op.M.OID] = delta{m: op.M}
			t.live++
		} else {
			cur, live := t.currentLocked(op.M.OID)
			if !live || cur != op.M {
				return false, fmt.Errorf("ingest: delete of absent motion (OID %d)", op.M.OID)
			}
			t.mem[op.M.OID] = delta{tomb: true}
			t.live--
		}
		if len(t.mem) >= t.cfg.MemtableFlush {
			t.freezeLocked()
		}
	}
	if len(t.runs) >= t.cfg.MaxRuns {
		if err := t.mergeLocked(); err != nil {
			return false, err
		}
		merged = true
	}
	return merged, nil
}

// Replay re-applies recovered delta ops (the catalog suffix past the
// flushed watermark) without ever merging: recovery must not write pages
// outside a batch, and the replayed delta is already durable. Freezes
// still happen so the recovered shape honors the memtable bound.
func (t *Tier) Replay(ops []Op) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ok(); err != nil {
		return err
	}
	for _, op := range ops {
		if op.Insert {
			if _, live := t.currentLocked(op.M.OID); live {
				return fmt.Errorf("ingest: replay insert of live OID %d", op.M.OID)
			}
			t.mem[op.M.OID] = delta{m: op.M}
			t.live++
		} else {
			cur, live := t.currentLocked(op.M.OID)
			if !live || cur != op.M {
				return fmt.Errorf("ingest: replay delete of absent motion (OID %d)", op.M.OID)
			}
			t.mem[op.M.OID] = delta{tomb: true}
			t.live--
		}
		if len(t.mem) >= t.cfg.MemtableFlush {
			t.freezeLocked()
		}
	}
	return nil
}

// freezeLocked turns the memtable into an immutable sorted run with a
// bloom filter over its OIDs.
func (t *Tier) freezeLocked() {
	if len(t.mem) == 0 {
		return
	}
	oids := make([]dual.OID, 0, len(t.mem))
	for id := range t.mem {
		oids = append(oids, id)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	r := &run{
		oids:   oids,
		deltas: make([]delta, len(oids)),
		filter: NewBloom(len(oids), t.cfg.BloomBitsPerKey),
	}
	for i, id := range oids {
		r.deltas[i] = t.mem[id]
		r.filter.Add(uint64(id))
	}
	t.runs = append(t.runs, r)
	t.mem = make(map[dual.OID]delta)
	t.stats.Freezes++
}

// overlayLocked collapses memtable + runs into newest-wins per-OID
// deltas.
func (t *Tier) overlayLocked() map[dual.OID]delta {
	ov := make(map[dual.OID]delta)
	for _, r := range t.runs { // oldest first: later entries overwrite
		for i, id := range r.oids {
			ov[id] = r.deltas[i]
		}
	}
	for id, d := range t.mem {
		ov[id] = d
	}
	return ov
}

// mergedMotionsLocked applies the overlay to the base contents: the
// exact live motion set, ascending OID.
func (t *Tier) mergedMotionsLocked() []dual.Motion {
	ov := t.overlayLocked()
	out := make([]dual.Motion, 0, len(t.baseMs)+len(ov))
	for _, m := range t.baseMs {
		if _, masked := ov[m.OID]; masked {
			continue
		}
		out = append(out, m)
	}
	for id, d := range ov {
		if !d.tomb {
			_ = id
			out = append(out, d.m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
	return out
}

// mergeLocked folds the whole delta (runs + memtable) into the base with
// one atomic BulkLoad reindex.
func (t *Tier) mergeLocked() error {
	ms := t.mergedMotionsLocked()
	if err := t.base.BulkLoad(ms); err != nil {
		// On a batching store the reindex batch rolled back, but the base's
		// in-memory generations may hold a partial build: nothing above can
		// trust this tier again.
		t.fail = fmt.Errorf("ingest: merge reindex: %w", err)
		return t.fail
	}
	t.baseMs = ms
	t.runs = nil
	t.mem = make(map[dual.OID]delta)
	t.stats.Merges++
	t.stats.BaseLen = len(ms)
	return nil
}

// Flush folds the entire delta into the base now, regardless of
// thresholds. No-op when the delta is empty.
func (t *Tier) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.ok(); err != nil {
		return err
	}
	if len(t.mem) == 0 && len(t.runs) == 0 {
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
	t.runs = nil
	t.mem = make(map[dual.OID]delta)
	t.live = len(sorted)
	t.stats.BaseLen = len(sorted)
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

// DeltaLen returns the number of delta entries not yet folded into the
// base (counting an OID once per run it appears in — a shape metric, not
// a distinct count).
func (t *Tier) DeltaLen() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := len(t.mem)
	for _, r := range t.runs {
		n += len(r.oids)
	}
	return n
}

// Stats returns a snapshot of the tier's shape and bloom counters.
func (t *Tier) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := t.stats
	s.MemLen = len(t.mem)
	s.Runs = len(t.runs)
	s.BaseLen = len(t.baseMs)
	s.RunProbes = int(t.runProbes.Load())
	s.BloomSkips = int(t.bloomSkips.Load())
	s.BloomFalsePos = int(t.bloomFalsePos.Load())
	return s
}

// Query answers the MOR query sequentially: sorted ascending,
// deduplicated — identical to a flat index over the same motions.
func (t *Tier) Query(q dual.MORQuery) ([]dual.OID, error) {
	return t.QueryParallelCtx(context.Background(), core.NewExecutor(1), q)
}

// QueryParallelCtx answers the MOR query with the base subqueries fanned
// out on exec, then merges the delta overlay exactly: base answers
// masked by any delta entry for the same OID drop out (the delta is
// newer), and delta upserts matching the query join. The result is
// byte-identical to the flat index at every worker count: the base
// answer is deterministic (core.RunSubqueriesCtx), the overlay is
// resolved newest-wins per OID, and the final sort+dedup normalizes
// order. Identity holds for model-conformant queries (dual.MORQuery's
// now ≤ T1 contract, so T1 is at or after every live motion's update
// time) — the regime in which the flat index itself is exact.
func (t *Tier) QueryParallelCtx(ctx context.Context, exec *core.Executor, q dual.MORQuery) ([]dual.OID, error) {
	if err := core.ValidateQuery(q); err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if err := t.ok(); err != nil {
		return nil, err
	}
	// Mask base answers with a bloom-filtered point probe per OID: any
	// delta entry for the OID is newer, so the base's version drops out
	// (the delta's version decides below). Probing beats materializing a
	// flattened overlay map per query — the probe cost scales with the
	// answer, not the delta. Sequential executors run the subqueries
	// inline with the mask fused into the emit path (no bucket slices, no
	// k-way merge); duplicate emissions across subqueries are normalized
	// by the final sort+dedup either way, so both paths return the same
	// bytes.
	var out []dual.OID
	if exec == nil || exec.Workers() <= 1 {
		for _, sq := range t.base.Subqueries(q) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			err := sq(func(id dual.OID) {
				if _, m := t.deltaLocked(id); m {
					return
				}
				out = append(out, id)
			})
			if err != nil {
				return nil, err
			}
		}
	} else {
		baseOIDs, err := core.RunSubqueriesCtx(ctx, exec, t.base.Subqueries(q))
		if err != nil {
			return nil, err
		}
		out = make([]dual.OID, 0, len(baseOIDs))
		for _, id := range baseOIDs {
			if _, m := t.deltaLocked(id); m {
				continue
			}
			out = append(out, id)
		}
	}
	// Delta upserts matching the query join, newest-wins: the memtable is
	// the newest level; a run entry counts only when no newer level holds
	// its OID. The cheap geometric reject runs first so shadow probes are
	// paid only for entries that would actually join.
	for id, d := range t.mem {
		if !d.tomb && d.m.Matches(q) {
			out = append(out, id)
		}
	}
	for i := len(t.runs) - 1; i >= 0; i-- {
		r := t.runs[i]
		for j, id := range r.oids {
			d := r.deltas[j]
			if d.tomb || !d.m.Matches(q) {
				continue
			}
			if t.shadowedLocked(id, i) {
				continue
			}
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	// Base survivors and delta members are disjoint by construction; the
	// dedup guards the contract, not an expected case.
	out = dedupOIDs(out)
	return out, nil
}

func dedupOIDs(ids []dual.OID) []dual.OID {
	j := 0
	for i, id := range ids {
		if i > 0 && id == ids[j-1] {
			continue
		}
		ids[j] = id
		j++
	}
	return ids[:j]
}

// Close marks the tier closed; further operations fail with ErrClosed.
// In-flight queries drain under the read latch first.
func (t *Tier) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	return nil
}
