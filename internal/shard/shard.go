package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/ingest"
	"mobidx/internal/pager"
)

// Op is one motion mutation (see dual.Op).
type Op = dual.Op

// Config configures one shard.
type Config struct {
	// ID is the shard's index in its cluster (its band number).
	ID int
	// Terrain is the full terrain — every shard indexes the same dual
	// space; the partitioner decides which motions it holds.
	Terrain dual.Terrain
	// C is the Dual-B+ observation-index count (0 selects 4).
	C int
	// Codec selects the on-page record precision (zero value = Wide).
	Codec bptree.Codec
	// PageSize, when non-zero, must equal the base store's page size: the
	// media decide the page size (MemEnv, DirEnv), and Open refuses a
	// mismatch instead of ignoring it. The field goes once bench/ stops
	// setting it, with benchmark v2 (ROADMAP 1(e)).
	PageSize int
	// WrapStore, when non-nil, wraps the shard's WAL-backed store before
	// the index is built on top — the serving-path position, where the
	// WAL stages writes and serves reads from its page table, so a
	// wrapper below it would never see query traffic. It is the
	// fault-isolation test hook: the chaos harness injects a FaultStore
	// here, so one shard can fail, stall, or corrupt without the others
	// noticing. Wrappers should forward Batcher (FaultStore does) so the
	// shard's atomic write batches keep their semantics.
	WrapStore func(pager.Store) pager.Store
	// AutoCheckpointBytes bounds the shard's WAL (0 disables): a write
	// batch that leaves the log at or beyond it checkpoints before Apply
	// or BulkLoad returns, with queries still served. The checkpoint
	// rewinds the log file rather than truncating it, so between explicit
	// checkpoints the file keeps its largest cycle: this bound plus one
	// batch.
	AutoCheckpointBytes int64
	// Ingest, when non-nil, puts a log-structured write tier in front of
	// the shard's index: Apply lands ops in the tier's delta instead of
	// the B+-trees, and the trees are rebuilt by one atomic bulk reindex
	// once the catalog holds FoldOps records past the superblock's flushed
	// watermark. Those records are the tier's delta, so crash recovery
	// stays exact: reattach the base, replay the suffix. The tier runs
	// under the shard's latches (see ingest.Tier). An ingest shard
	// requires unique live OIDs (the tier upserts per object); opening
	// durable media that holds same-OID replicas with Ingest set fails.
	Ingest *IngestConfig
}

// IngestConfig tunes the shard's optional write tier; zero values select
// the ingest package defaults.
type IngestConfig struct {
	// FoldOps folds the delta into the base index at the end of the batch
	// that brings the catalog records past the flushed watermark to this
	// many or more (0 selects ingest.DefaultFoldOps).
	FoldOps int
}

func (ic *IngestConfig) tierConfig(tr dual.Terrain) ingest.Config {
	return ingest.Config{Terrain: tr, FoldOps: ic.FoldOps}
}

// Health is a shard's self-reported serving state.
type Health struct {
	// Healthy reports whether the shard accepts work. A shard turns
	// unhealthy when closed or quarantined after a failed write batch.
	Healthy bool
	// Quarantined reports a failed Apply/BulkLoad: the WAL rolled the
	// batch back, or its log sync failed and left it absent or whole on
	// the media, but the in-memory index may have diverged from the
	// durable state, so the shard refuses further work until rebuilt.
	Quarantined bool
	// Failures counts consecutive failed operations (any kind); it resets
	// on success. Context cancellations are the caller's doing and are
	// not counted.
	Failures int
	// Err is the last failure observed (nil when none).
	Err error
}

// ErrShardDown marks a shard that is not serving: closed, quarantined, or
// skipped by an open circuit breaker. Typed so callers (and tests) can
// tell "this partition was unavailable" from a query that failed.
var ErrShardDown = errors.New("shard: shard down")

// Shard is one partition's server: a Dual-B+ index over a write-ahead-
// logged private store, behind a context-aware interface. Queries share
// the serving latch; Apply/BulkLoad take the writer latch and run as one
// atomic WAL batch — a failed batch leaves no durable trace and
// quarantines the shard (see Health). A bulk rebuild (BulkLoad, Retain,
// an ingest fold) builds its new index under the writer latch alone,
// beside the live one, and takes the serving latch only to install it;
// the flat Apply edits the trees under the serving latch. Every batch also
// rewrites the shard's superblock and appends to its motion catalog (see
// durable.go), so Open can recover the shard from its surviving base
// store and log alone. The batch's log sync and the checkpoint it makes
// due run after the serving latch is released, under the writer latch
// alone, so queries keep flowing.
type Shard struct {
	id       int
	terrain  dual.Terrain
	wal      *pager.WALStore
	autoCkpt int64       // Config.AutoCheckpointBytes
	store    pager.Store // the index's store: the WAL, possibly wrapped (Config.WrapStore)
	ix       *core.DualBPlus
	exec     *core.Executor     // single worker: sequential pieces, ctx-checked between them
	sb       *pager.RecordChain // superblock
	cat      *catalog           // durable motion log

	// tier is the optional write tier (Config.Ingest); when non-nil the
	// write path stages into it and queries go through it. It has no latch
	// of its own: its writes run under wmu, its installs under mu's write
	// side and its queries under mu's read side. flushed mirrors the
	// superblock watermark: the base index covers exactly the first
	// flushed catalog records, and the tier has staged the rest. Tierless
	// shards keep flushed = cat.records.
	tier    *ingest.Tier
	flushed int

	// wmu is the writer latch: Apply, BulkLoad, Retain, Checkpoint and
	// Close hold it, taken before mu, so writers and checkpoints run one at
	// a time while mu is held only across what readers must not see half
	// done: a write's install step and its commit (see write).
	wmu sync.Mutex
	mu  sync.RWMutex // serving latch: Query RLock, a write's install Lock

	stateMu     sync.Mutex
	consecFails int
	lastErr     error
	quarantined bool
	closed      bool
}

// Open builds a shard over its durable media: a base page store and its
// write-ahead log. The WAL is replayed first (pager.OpenWALStore), then
// the shard's superblock is located; when present the index is reattached
// from it (core.AttachDualBPlus) and the motion catalog rewound — the
// crash-recovery path — and when absent the media is fresh and the shard
// initializes itself with one atomic batch. Either way the shard serves
// exactly the last committed batch's state. A non-zero cfg.PageSize that
// differs from base's page size is refused.
func Open(cfg Config, base pager.Store, log pager.LogFile) (*Shard, error) {
	if cfg.PageSize != 0 && cfg.PageSize != base.PageSize() {
		return nil, fmt.Errorf("shard %d: config page size %d, media page size %d",
			cfg.ID, cfg.PageSize, base.PageSize())
	}
	wal, err := pager.OpenWALStore(base, log, pager.WALConfig{})
	if err != nil {
		return nil, fmt.Errorf("shard %d: open wal: %w", cfg.ID, err)
	}
	var store pager.Store = wal
	if cfg.WrapStore != nil {
		store = cfg.WrapStore(store)
	}
	s, err := openOn(cfg, wal, store)
	if err != nil {
		return nil, errors.Join(err, wal.Close())
	}
	return s, nil
}

func openOn(cfg Config, wal *pager.WALStore, store pager.Store) (*Shard, error) {
	dcfg := core.DualBPlusConfig{Terrain: cfg.Terrain, C: cfg.C, Codec: cfg.Codec}
	sb, err := pager.FindRecordChain(store, sbMagic, 1)
	switch {
	case err == nil:
		// Recovery: reattach the index and catalog from the superblock.
		payload, err := sb.Bytes()
		if err != nil {
			return nil, fmt.Errorf("shard %d: read superblock: %w", cfg.ID, err)
		}
		rec, err := decodeSuperblock(payload)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", cfg.ID, err)
		}
		ix, err := core.AttachDualBPlus(store, dcfg, rec.meta)
		if err != nil {
			return nil, fmt.Errorf("shard %d: attach index: %w", cfg.ID, err)
		}
		cat, err := attachCatalog(store, rec.catHead)
		if err != nil {
			return nil, fmt.Errorf("shard %d: attach catalog: %w", cfg.ID, err)
		}
		flushed := rec.flushed
		if flushed > cat.records {
			return nil, fmt.Errorf("shard %d: flushed watermark %d past %d catalog records: %w",
				cfg.ID, flushed, cat.records, pager.ErrPageCorrupt)
		}
		s := &Shard{id: cfg.ID, terrain: cfg.Terrain, wal: wal, autoCkpt: cfg.AutoCheckpointBytes, store: store, ix: ix,
			exec: core.NewExecutor(1), sb: sb, cat: cat, flushed: flushed}
		if cfg.Ingest != nil {
			// Reattach the write tier: the base index covers the catalog's
			// flushed prefix; the suffix is the delta, replayed into the
			// tier (never merged — recovery must not write pages).
			baseMs, delta, err := cat.replay(flushed)
			if err != nil {
				return nil, fmt.Errorf("shard %d: read catalog: %w", cfg.ID, err)
			}
			tier, err := ingest.Attach(ix, baseMs, cfg.Ingest.tierConfig(cfg.Terrain))
			if err != nil {
				return nil, fmt.Errorf("shard %d: attach ingest tier: %w", cfg.ID, err)
			}
			if err := tier.Replay(delta); err != nil {
				return nil, fmt.Errorf("shard %d: replay ingest delta: %w", cfg.ID, err)
			}
			if tier.Len() != cat.live {
				return nil, fmt.Errorf("shard %d: ingest tier holds %d live motions, catalog %d: %w",
					cfg.ID, tier.Len(), cat.live, pager.ErrPageCorrupt)
			}
			s.tier = tier
		} else {
			if flushed != cat.records {
				return nil, fmt.Errorf("shard %d: durable state carries an ingest delta (%d of %d records flushed); open with Config.Ingest set",
					cfg.ID, flushed, cat.records)
			}
			if cat.live != ix.Len() {
				return nil, fmt.Errorf("shard %d: catalog holds %d live motions, index %d: %w",
					cfg.ID, cat.live, ix.Len(), pager.ErrPageCorrupt)
			}
		}
		return s, nil

	case errors.Is(err, pager.ErrChainNotFound):
		// Fresh media: initialize superblock and catalog in one batch.
		ix, err := core.NewDualBPlus(store, dcfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: create index: %w", cfg.ID, err)
		}
		s := &Shard{id: cfg.ID, terrain: cfg.Terrain, wal: wal, autoCkpt: cfg.AutoCheckpointBytes, store: store, ix: ix,
			exec: core.NewExecutor(1)}
		if cfg.Ingest != nil {
			tier, terr := ingest.New(ix, cfg.Ingest.tierConfig(cfg.Terrain))
			if terr != nil {
				return nil, fmt.Errorf("shard %d: create ingest tier: %w", cfg.ID, terr)
			}
			s.tier = tier
		}
		err = pager.RunBatch(store, func() (err error) {
			if s.sb, err = pager.InitRecordChain(store, sbMagic, 1); err != nil {
				return err
			}
			if s.cat, err = initCatalog(store); err != nil {
				return err
			}
			return s.saveMeta()
		})
		if err == nil {
			err = wal.CheckpointIfDue(s.autoCkpt)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: initialize: %w", cfg.ID, err)
		}
		return s, nil

	default:
		return nil, fmt.Errorf("shard %d: locate superblock: %w", cfg.ID, err)
	}
}

// saveMeta rewrites the superblock from the current index metadata. Must
// run inside the shard's open batch, after every index mutation of that
// batch.
func (s *Shard) saveMeta() error {
	if s.tier == nil {
		s.flushed = s.cat.records // no tier: the base always covers the log
	}
	return s.sb.Rewrite(encodeSuperblock(superblock{
		catHead: s.cat.chain.Head(), flushed: s.flushed, meta: s.ix.Meta()}))
}

// ID returns the shard's cluster index.
func (s *Shard) ID() int { return s.id }

// Len returns the number of motions the shard holds (replicas included).
func (s *Shard) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tier != nil {
		return s.tier.Len()
	}
	return s.ix.Len()
}

// Health reports the shard's serving state.
func (s *Shard) Health() Health {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	return Health{
		Healthy:     !s.closed && !s.quarantined,
		Quarantined: s.quarantined,
		Failures:    s.consecFails,
		Err:         s.lastErr,
	}
}

// observe feeds an operation outcome into the health state. Context
// cancellations are the caller's deadline, not shard sickness, and do not
// count as failures.
func (s *Shard) observe(err error) {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	switch {
	case err == nil:
		s.consecFails = 0
		s.lastErr = nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// leave the streak as it was
	default:
		s.consecFails++
		s.lastErr = err
	}
}

// down returns the typed unavailability error when the shard refuses work.
func (s *Shard) down() error {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	switch {
	case s.closed:
		return fmt.Errorf("shard %d closed: %w", s.id, ErrShardDown)
	case s.quarantined:
		return fmt.Errorf("shard %d quarantined after failed batch: %w", s.id, ErrShardDown)
	}
	return nil
}

// Query answers the MOR query from the shard's partition: sorted
// ascending, deduplicated, in a slice the caller owns — so the router
// returns one shard's answer as is and merges several without a sort
// (core.UnionOIDs). The context is honored between query
// pieces (see core.Executor.RunCtx): a router deadline stops the query at
// piece granularity.
func (s *Shard) Query(ctx context.Context, q dual.MORQuery) ([]dual.OID, error) {
	// A bad query is the caller's error, not a shard failure: it is
	// refused before anything observes it.
	if err := core.ValidateQuery(q); err != nil {
		return nil, err
	}
	if err := s.down(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	if err := s.down(); err != nil { // a Close that ran while this query queued
		s.mu.RUnlock()
		return nil, err
	}
	var res []dual.OID
	var err error
	if s.tier != nil {
		// Through the write tier: base subqueries plus the delta overlay,
		// byte-identical to a flat index over the same motions.
		res, err = s.tier.QueryParallelCtx(ctx, s.exec, q)
	} else {
		res, err = s.ix.QueryParallelCtx(ctx, s.exec, q)
	}
	s.mu.RUnlock()
	s.observe(err)
	return res, err
}

// Apply applies the ops as one atomic WAL batch (see write). An op whose
// motion the index cannot take (core.ValidateMotion) is the caller's
// error: the whole batch is refused before any latch or WAL batch sees it,
// and the shard stays healthy. On any other error the batch is rolled
// back — the durable state is untouched — and the shard quarantines
// itself: the in-memory index may have applied a prefix, so it can no
// longer be trusted to mirror the store. The router's circuit breaker and
// Health checks route around it from then on. The context is checked
// between ops; a cancellation that arrives before the first op rolls back
// cleanly without quarantining, one that arrives mid-batch quarantines
// like any other failure (the in-memory index already diverged from the
// rolled-back pages). A nil return means the batch is durable; the
// checkpoint it may make due runs before Apply returns, and its failure
// does not undo that (see checkpointIfDue).
func (s *Shard) Apply(ctx context.Context, ops []Op) error {
	for _, op := range ops {
		if err := core.ValidateMotion(op.M, s.terrain); err != nil {
			return err
		}
	}
	if err := s.down(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	applied := 0
	clean := func(err error) bool {
		// A pre-first-op cancellation left the in-memory index untouched;
		// every other failure (including a first op that died mid-split)
		// may have mutated it.
		return applied == 0 && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	}
	if s.tier != nil {
		var b *ingest.Batch
		return s.write(func() (err error) {
			b, err = s.buildTier(ctx, ops, &applied)
			return err
		}, func() error { return s.installTier(b, ops) }, clean)
	}
	return s.write(nil, func() error {
		for _, op := range ops {
			if err := ctx.Err(); err != nil {
				return err
			}
			var err error
			if op.Insert {
				err = s.ix.Insert(op.M)
			} else {
				err = s.ix.Delete(op.M)
			}
			if err != nil {
				return err
			}
			applied++
		}
		if err := s.cat.append(ops); err != nil {
			return err
		}
		return s.saveMeta()
	}, clean)
}

// write runs one write batch, Apply's or BulkLoad's, in two steps inside
// one WAL batch under the writer latch. build (nil: none) runs first,
// without the serving latch: it may read what only writers change and
// stage pages no query reaches, such as a bulk rebuild's new index, but
// changes nothing a query reads, so queries keep answering the pre-batch
// state meanwhile. install then runs under the serving latch: it edits
// what queries read, the catalog and the superblock, and the batch
// commits, appending its log records and publishing its page images. The
// serving latch is released before the log is synced, so queries run
// during the fsync and may see the batch up to one fsync before it is
// durable; write returns only after the sync, so an acknowledged batch is
// a durable one. A failed batch quarantines the shard before readers can
// see its in-memory state, unless clean (nil: never) vouches that the
// failure left that state untouched; a failed sync quarantines it too. A
// success runs the checkpoint it made due. A write that queued for the
// writer latch behind Close or a failed batch finds the shard down once it
// holds the latch and returns ErrShardDown, touching nothing.
func (s *Shard) write(build, install func() error, clean func(error) bool) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.down(); err != nil {
		return err
	}
	return s.writeLocked(build, install, clean)
}

// writeLocked is write for a caller that holds the writer latch.
func (s *Shard) writeLocked(build, install func() error, clean func(error) bool) error {
	serving := false
	err := pager.RunBatch(s.store, func() error {
		s.wal.DeferSync()
		if build != nil {
			if err := build(); err != nil {
				return err
			}
		}
		s.mu.Lock()
		serving = true
		return install()
	})
	if err != nil && (clean == nil || !clean(err)) {
		s.quarantine(err)
	}
	if serving {
		s.mu.Unlock()
	}
	if err == nil {
		if err = s.wal.SyncLog(); err != nil {
			err = fmt.Errorf("shard %d: %w", s.id, err)
			s.quarantine(err)
		}
	}
	s.observe(err)
	if err == nil {
		s.checkpointIfDue()
	}
	return err
}

// checkpointIfDue runs the checkpoint a committed batch made due (caller
// holds wmu, not mu): the WAL's I/O runs while queries read the committed
// table. The batch is durable whatever happens here, so a failure is not
// reported to the writer, who would retry and apply it twice; it
// quarantines the shard like a failed batch, and Health reports it.
func (s *Shard) checkpointIfDue() {
	if err := s.wal.CheckpointIfDue(s.autoCkpt); err != nil {
		err = fmt.Errorf("shard %d: checkpoint: %w", s.id, err)
		s.quarantine(err)
		s.observe(err)
	}
}

// buildTier is the build step of Apply on the ingest path: the tier
// checks ops with the same discipline the flat path's Insert/Delete
// enforce and, when staging them will fold its delta, builds the folded
// base beside the live one (ingest.Tier.Build).
func (s *Shard) buildTier(ctx context.Context, ops []Op, applied *int) (*ingest.Batch, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// From here on a failure may have left state behind, so the caller's
	// quarantine logic treats the batch as entered.
	*applied = len(ops)
	return s.tier.Build(ops)
}

// installTier is the install step of Apply on the ingest path: the tier
// stages the ops into its delta, and the catalog logs them without
// compacting, preserving the base-covers-prefix invariant. When the tier
// folds (Install reports merged), the whole catalog is rewritten from the
// tier's base contents inside this same batch and the flushed watermark
// advances to cover it — so a crash at any boundary recovers either the
// pre-batch state or the post-merge state, never a torn run.
func (s *Shard) installTier(b *ingest.Batch, ops []Op) error {
	merged, err := s.tier.Install(b)
	if err != nil {
		return err
	}
	if merged {
		if err := s.cat.rewrite(s.tier.BaseMotions()); err != nil {
			return err
		}
		s.flushed = s.cat.records
	} else if err := s.cat.appendRaw(ops); err != nil {
		return err
	}
	return s.saveMeta()
}

// BulkLoad atomically replaces the shard's contents with ms (one WAL
// batch, bottom-up builders — see core.DualBPlus.BulkLoad). The new index
// is built beside the live one, which answers queries until it is
// installed (see write). Like Apply, it refuses an invalid motion before
// any latch, a failure quarantines the shard, and a due checkpoint
// follows a success.
func (s *Shard) BulkLoad(ctx context.Context, ms []dual.Motion) error {
	for _, m := range ms {
		if err := core.ValidateMotion(m, s.terrain); err != nil {
			return err
		}
	}
	if err := s.down(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	r := &rebuild{s: s, ms: ms}
	return s.write(r.build, r.install, nil)
}

// Retain drops every motion keep refuses, as one BulkLoad of the rest;
// when keep refuses none it writes nothing. It reads the catalog under the
// writer latch, so no write lands between the read and the replace, and
// like BulkLoad it builds the new index while queries run.
func (s *Shard) Retain(ctx context.Context, keep func(dual.Motion) bool) error {
	if err := s.down(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.down(); err != nil {
		return err
	}
	cur, err := s.cat.motions()
	if err != nil {
		return err
	}
	n := len(cur)
	kept := slices.DeleteFunc(cur, func(m dual.Motion) bool { return !keep(m) })
	if len(kept) == n {
		return nil
	}
	r := &rebuild{s: s, ms: kept}
	return s.writeLocked(r.build, r.install, nil)
}

// rebuild replaces the shard's contents with ms in write's two steps.
type rebuild struct {
	s    *Shard
	ms   []dual.Motion
	swap func() error // installs what build built
}

// build loads ms into a new index beside the live one: the tier's base,
// or the flat index's.
func (r *rebuild) build() (err error) {
	if r.s.tier == nil {
		r.swap, err = r.s.ix.Build(r.ms)
		return err
	}
	b, err := r.s.tier.BuildLoad(r.ms)
	r.swap = func() error {
		_, err := r.s.tier.Install(b)
		return err
	}
	return err
}

// install puts the new index in place of the live one, frees the old
// one's pages, and rewrites the catalog and the superblock to match.
func (r *rebuild) install() error {
	s := r.s
	if err := r.swap(); err != nil {
		return err
	}
	if err := s.cat.rewrite(r.ms); err != nil {
		return err
	}
	if s.tier != nil {
		s.flushed = s.cat.records
	}
	return s.saveMeta()
}

// IngestStats reports the write tier's shape and counters; ok is false
// when the shard runs without a tier (Config.Ingest nil).
func (s *Shard) IngestStats() (ingest.Stats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.tier == nil {
		return ingest.Stats{}, false
	}
	return s.tier.Stats(), true
}

// Motions enumerates the shard's live motions from its durable catalog,
// sorted by (OID, T0, Y0, V). This is the exact record of what the shard
// holds — the dual transform is not invertible in a way that preserves
// residence intervals, so migration, peer rebuild and the router's
// subscription seeding read from here, not from the trees. It costs one
// pass over the catalog, and a sort only when its records are out of
// order (see catalog.replay).
func (s *Shard) Motions() ([]dual.Motion, error) {
	ms, _, err := s.snapshot()
	return ms, err
}

// snapshot is Motions plus the catalog generation it enumerated: while
// catalogGen still returns that generation, Motions would return the same
// motions.
func (s *Shard) snapshot() ([]dual.Motion, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.down(); err != nil {
		return nil, 0, err
	}
	ms, err := s.cat.motions()
	return ms, s.cat.gen, err
}

// catalogGen returns the catalog's generation (see catalog.gen) without
// reading the catalog; like Motions, it fails on a shard that is down.
func (s *Shard) catalogGen() (uint64, error) {
	if err := s.down(); err != nil {
		return 0, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cat.gen, nil
}

// Checkpoint folds the shard's committed WAL into its base store and
// truncates the log — the idle-time compaction hook; recovery works with
// or without it. It holds the writer latch only, so queries keep running.
func (s *Shard) Checkpoint() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.down(); err != nil {
		return err
	}
	return s.wal.Checkpoint()
}

func (s *Shard) quarantine(cause error) {
	s.stateMu.Lock()
	s.quarantined = true
	s.lastErr = cause
	s.stateMu.Unlock()
}

// Close shuts the shard down; further operations fail with ErrShardDown,
// including those already queued on a latch when Close marks the shard
// closed: each checks again once it holds its latch, so none runs on the
// closed log or tier.
func (s *Shard) Close() error {
	s.stateMu.Lock()
	if s.closed {
		s.stateMu.Unlock()
		return nil
	}
	s.closed = true
	s.stateMu.Unlock()
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	var terr error
	if s.tier != nil {
		terr = s.tier.Close()
	}
	return errors.Join(terr, s.wal.Close())
}
