package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// ClusterConfig configures a durable cluster.
type ClusterConfig struct {
	// Terrain is the shared dual-space terrain (YMax > 0 required).
	Terrain dual.Terrain
	// C, Codec, PageSize, AutoCheckpointBytes configure every shard (see
	// Config). The Env's media decide the page size; a non-zero PageSize
	// that differs from it makes OpenCluster fail.
	C                   int
	Codec               bptree.Codec
	PageSize            int
	AutoCheckpointBytes int64
	// Policy tunes the router's per-shard circuit breaker.
	Policy Policy
	// Exec bounds the router fan-out (nil selects GOMAXPROCS-bounded).
	Exec *core.Executor
	// WrapStore, when non-nil, is called with each shard's store id to
	// produce that shard's store wrapper — the chaos harness's fault hook,
	// keyed by store id (stable across band renumbering) rather than band.
	WrapStore func(storeID int) func(pager.Store) pager.Store
}

// Migration describes an in-flight (or just-interrupted) split.
type Migration struct {
	// Band is the band being split, in the pre-flip numbering.
	Band int
	// Cut is the split position.
	Cut float64
	// Flipped reports whether the new topology is already published (the
	// remaining work is trimming the source), as opposed to prepared-only
	// (the receiver is not visible yet).
	Flipped bool
}

// Cluster is the durable sharded serving deployment: a Router over shards
// whose stores live in an Env, plus the epoch-versioned manifest that
// records which store serves which band. Open recovers the whole cluster
// from the Env's surviving media; Split rebalances a hot band while the
// cluster serves; Revive brings a quarantined shard back. All admin
// operations are serialized; serving operations (Query/Apply/BulkLoad)
// run concurrently with everything except the short quiesce barrier
// around a migration flip.
type Cluster struct {
	env    Env
	cfg    ClusterConfig
	router *Router
	man    *manifestStore

	adminMu sync.Mutex // serializes Split/ResumeMigration/Revive/Close
	cur     manifest   // current manifest; written under adminMu
	closed  bool
}

// OpenCluster opens (first call) or recovers (every later call) a cluster
// in env. n is the initial number of equal bands and is only read when
// the environment is fresh — on recovery the manifest dictates topology.
// An interrupted migration is NOT resumed automatically: the cluster
// serves correctly in the state the manifest proves (old topology if the
// crash hit before the flip, new topology after), and PendingMigration /
// ResumeMigration let the operator finish the job.
func OpenCluster(env Env, cfg ClusterConfig, n int) (*Cluster, error) {
	if cfg.Terrain.YMax <= 0 {
		return nil, fmt.Errorf("shard: cluster needs Terrain.YMax > 0, got %v", cfg.Terrain.YMax)
	}
	media, err := env.OpenMedia(manifestMediaName)
	if err != nil {
		return nil, fmt.Errorf("shard: open manifest media: %w", err)
	}
	ms, man, err := openManifestStore(media, func() (manifest, error) {
		if n < 1 {
			return manifest{}, fmt.Errorf("shard: cluster needs >= 1 band, got %d", n)
		}
		m := manifest{Epoch: 1, NextStore: n}
		for i := 0; i < n; i++ {
			hi := cfg.Terrain.YMax * float64(i+1) / float64(n)
			m.Bands = append(m.Bands, bandEntry{Store: i, Hi: hi})
		}
		return m, nil
	})
	if err != nil {
		return nil, err
	}
	c := &Cluster{env: env, cfg: cfg, man: ms, cur: man}
	part, err := man.partitionerOf()
	if err != nil {
		return nil, errors.Join(err, ms.close())
	}
	shards := make([]*Shard, 0, len(man.Bands))
	fail := func(err error) (*Cluster, error) {
		for _, s := range shards {
			err = errors.Join(err, s.Close())
		}
		return nil, errors.Join(err, ms.close())
	}
	for _, b := range man.Bands {
		s, err := c.openShard(b.Store)
		if err != nil {
			return fail(err)
		}
		shards = append(shards, s)
	}
	r, err := NewRouter(shards, part, cfg.Exec, cfg.Policy)
	if err != nil {
		return fail(err)
	}
	c.router = r
	return c, nil
}

// openShard opens (or recovers) the shard serving storeID from its media.
func (c *Cluster) openShard(storeID int) (*Shard, error) {
	media, err := c.env.OpenMedia(shardMediaName(storeID))
	if err != nil {
		return nil, fmt.Errorf("shard: open media for store %d: %w", storeID, err)
	}
	scfg := Config{
		ID:                  storeID,
		Terrain:             c.cfg.Terrain,
		C:                   c.cfg.C,
		Codec:               c.cfg.Codec,
		PageSize:            c.cfg.PageSize,
		AutoCheckpointBytes: c.cfg.AutoCheckpointBytes,
	}
	if c.cfg.WrapStore != nil {
		scfg.WrapStore = c.cfg.WrapStore(storeID)
	}
	return Open(scfg, media.Base, media.Log)
}

// Router exposes the serving router (stats, degraded list, direct shard
// inspection).
func (c *Cluster) Router() *Router { return c.router }

// Query serves a MOR query through the router.
func (c *Cluster) Query(ctx context.Context, q dual.MORQuery) ([]dual.OID, error) {
	return c.router.Query(ctx, q)
}

// Apply routes a motion batch through the router.
func (c *Cluster) Apply(ctx context.Context, ops []Op) error {
	return c.router.Apply(ctx, ops)
}

// BulkLoad routes a full reload through the router.
func (c *Cluster) BulkLoad(ctx context.Context, ms []dual.Motion) error {
	return c.router.BulkLoad(ctx, ms)
}

// Epoch returns the manifest epoch: it changes exactly once per completed
// topology flip, so two equal epochs mean the identical band table.
func (c *Cluster) Epoch() uint64 {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	return c.cur.Epoch
}

// Bands returns the number of bands in the current topology.
func (c *Cluster) Bands() int {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	return len(c.cur.Bands)
}

// PendingMigration reports the interrupted migration recovered from the
// manifest (or started and not yet finished), if any.
func (c *Cluster) PendingMigration() (Migration, bool) {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	if c.cur.Mig.State == migNone {
		return Migration{}, false
	}
	return Migration{
		Band:    c.cur.Mig.Band,
		Cut:     c.cur.Mig.Cut,
		Flipped: c.cur.Mig.State == migFlipped,
	}, true
}

// Split carves band i in two at cut: the band keeps [lo, cut) and a new
// band i+1 (served by a freshly allocated store) takes [cut, hi). The
// source serves throughout; the receiver is bulk-loaded off a snapshot,
// caught up and published under a short quiesce barrier that also flips
// the manifest epoch, and the source is trimmed afterwards. Every durable
// step is one atomic WAL batch, so a crash at any instant leaves the
// manifest proving exactly one topology; ResumeMigration finishes an
// interrupted split idempotently from whatever step it died at.
func (c *Cluster) Split(ctx context.Context, band int, cut float64) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	if c.closed {
		return errors.New("shard: cluster closed")
	}
	if c.cur.Mig.State != migNone {
		return fmt.Errorf("shard: migration of band %d pending; resume it first", c.cur.Mig.Band)
	}
	part, err := c.cur.partitionerOf()
	if err != nil {
		return err
	}
	if _, err := part.SplitBand(band, cut); err != nil {
		return err
	}
	m := c.cur
	m.Mig = migRecord{State: migPrepared, Band: band, Cut: cut, NewStore: m.NextStore}
	m.NextStore++
	if err := c.man.save(m); err != nil {
		return fmt.Errorf("shard: prepare split: %w", err)
	}
	c.cur = m
	return c.runMigration(ctx)
}

// ResumeMigration finishes a migration interrupted by a crash or fault,
// from whichever durable step it reached. It is idempotent: every step
// either atomically replaces state (bulk loads) or atomically swaps the
// manifest, so re-running a completed step is a no-op-shaped rebuild of
// the same state.
func (c *Cluster) ResumeMigration(ctx context.Context) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	if c.closed {
		return errors.New("shard: cluster closed")
	}
	if c.cur.Mig.State == migNone {
		return nil
	}
	return c.runMigration(ctx)
}

// assignedTo reports whether part assigns m to band.
func assignedTo(part *Partitioner, m dual.Motion, band int) bool {
	bands := part.Assign(m)
	return len(bands) > 0 && bands[0] <= band && band <= bands[len(bands)-1]
}

func filterAssigned(part *Partitioner, ms []dual.Motion, band int) []dual.Motion {
	out := make([]dual.Motion, 0, len(ms))
	for _, m := range ms {
		if assignedTo(part, m, band) {
			out = append(out, m)
		}
	}
	return out
}

// runMigration drives the pending migration to completion. adminMu held.
func (c *Cluster) runMigration(ctx context.Context) error {
	mig := c.cur.Mig
	if mig.State == migPrepared {
		if err := c.migratePrepared(ctx); err != nil {
			return err
		}
	}
	return c.migrateRetire(ctx)
}

// migratePrepared performs the prepared→flipped step: load the receiver
// off a source snapshot while the source serves, then catch up and
// publish under the quiesce barrier.
func (c *Cluster) migratePrepared(ctx context.Context) error {
	mig := c.cur.Mig
	oldPart, err := c.cur.partitionerOf()
	if err != nil {
		return err
	}
	newPart, err := oldPart.SplitBand(mig.Band, mig.Cut)
	if err != nil {
		return err
	}
	src := c.router.Shard(mig.Band)
	if src == nil {
		return fmt.Errorf("shard: split source band %d missing", mig.Band)
	}
	recv, err := c.openShard(mig.NewStore)
	if err != nil {
		return fmt.Errorf("shard: open split receiver: %w", err)
	}
	// Warm load: the bulk of the copy happens while the source serves.
	// The receiver is not in any topology yet, so nothing can query it.
	snap, gen, err := src.snapshot()
	if err != nil {
		return errors.Join(fmt.Errorf("shard: split snapshot: %w", err), recv.Close())
	}
	if err := recv.BulkLoad(ctx, filterAssigned(newPart, snap, mig.Band+1)); err != nil {
		return errors.Join(fmt.Errorf("shard: split warm load: %w", err), recv.Close())
	}
	// Flip: under the exclusive topology lock nothing is in flight, so
	// the source catalog is final. Catch up the receiver only if a write
	// moved the catalog's generation since the snapshot, commit the
	// flipped manifest (epoch bump + new band table) in one batch, and
	// install the new topology. Without such a write the barrier holds
	// only for one small manifest write and reads no catalog; with one, it
	// also re-enumerates the source and reloads the receiver.
	err = c.router.swapTopology(func(old topology) (topology, error) {
		now, err := src.catalogGen()
		if err != nil {
			return topology{}, fmt.Errorf("shard: split catch-up read: %w", err)
		}
		if now != gen {
			cur, err := src.Motions()
			if err != nil {
				return topology{}, fmt.Errorf("shard: split catch-up read: %w", err)
			}
			if err := recv.BulkLoad(ctx, filterAssigned(newPart, cur, mig.Band+1)); err != nil {
				return topology{}, fmt.Errorf("shard: split catch-up load: %w", err)
			}
		}
		m := c.cur
		m.Epoch++
		m.Mig.State = migFlipped
		bands := make([]bandEntry, 0, len(m.Bands)+1)
		bands = append(bands, m.Bands[:mig.Band]...)
		oldHi := m.Bands[mig.Band].Hi
		bands = append(bands,
			bandEntry{Store: m.Bands[mig.Band].Store, Hi: mig.Cut},
			bandEntry{Store: mig.NewStore, Hi: oldHi})
		bands = append(bands, m.Bands[mig.Band+1:]...)
		m.Bands = bands
		if err := c.man.save(m); err != nil {
			return topology{}, fmt.Errorf("shard: split flip: %w", err)
		}
		c.cur = m
		shards := make([]*Shard, 0, len(old.shards)+1)
		shards = append(shards, old.shards[:mig.Band+1]...)
		shards = append(shards, recv)
		shards = append(shards, old.shards[mig.Band+1:]...)
		brk := make([]*breaker, 0, len(old.brk)+1)
		brk = append(brk, old.brk[:mig.Band+1]...)
		brk = append(brk, &breaker{})
		brk = append(brk, old.brk[mig.Band+1:]...)
		return topology{part: newPart, shards: shards, brk: brk}, nil
	})
	if err != nil {
		return errors.Join(err, recv.Close())
	}
	return nil
}

// migrateRetire performs the flipped→none step: trim the source shard to
// its narrowed band. Before the trim the source holds a superset of its
// band — harmless, since shard answers are predicate-exact and the merge
// deduplicates — so this step only reclaims space and is safe to redo.
// The trim is the source's own Retain: its writer latch keeps any write
// from landing between the catalog read and the atomic replace, and
// queries on every band, the source's included, run meanwhile.
func (c *Cluster) migrateRetire(ctx context.Context) error {
	mig := c.cur.Mig
	if mig.State != migFlipped {
		return fmt.Errorf("shard: retire in migration state %d", mig.State)
	}
	part, err := c.cur.partitionerOf()
	if err != nil {
		return err
	}
	src := c.router.Shard(mig.Band)
	if src == nil {
		return fmt.Errorf("shard: retire source band %d missing", mig.Band)
	}
	if err := src.Retain(ctx, func(m dual.Motion) bool { return assignedTo(part, m, mig.Band) }); err != nil {
		return fmt.Errorf("shard: retire trim: %w", err)
	}
	m := c.cur
	m.Mig = migRecord{State: migNone}
	if err := c.man.save(m); err != nil {
		return fmt.Errorf("shard: retire finish: %w", err)
	}
	c.cur = m
	return nil
}

// Revive brings the shard serving band back: the dead instance is closed,
// its media reopened — pager.OpenWALStore replays every committed batch,
// so the recovered shard serves exactly the last committed state — and
// the fresh instance swapped into the topology with a reset breaker. If
// the media cannot be recovered the shard is rebuilt from its peers'
// replicated bands instead (see RebuildFromPeers for the exactness
// contract).
func (c *Cluster) Revive(ctx context.Context, band int) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	return c.reviveLocked(ctx, band, false)
}

// RebuildFromPeers rebuilds band's shard from scratch out of the motions
// its peers replicate, dropping whatever media the store had. Trajectory
// replication makes this exact for every interior band (an interior
// band's content is a filter of the border bands' contents); the border
// bands (0 and top) hold motions no peer replicates, so rebuilding one of
// them recovers only the replicated part and the caller must accept the
// loss — WAL replay (Revive) is the lossless path.
func (c *Cluster) RebuildFromPeers(ctx context.Context, band int) error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	return c.reviveLocked(ctx, band, true)
}

func (c *Cluster) reviveLocked(ctx context.Context, band int, rebuild bool) error {
	if c.closed {
		return errors.New("shard: cluster closed")
	}
	if band < 0 || band >= len(c.cur.Bands) {
		return fmt.Errorf("shard: revive band %d of %d", band, len(c.cur.Bands))
	}
	storeID := c.cur.Bands[band].Store
	old := c.router.Shard(band)
	// Closing drains the dead instance's in-flight queries; routed
	// traffic degrades around the band until the swap below. A close
	// error only means the final checkpoint failed — WAL replay recovers
	// every committed batch regardless — so it is carried as context, not
	// treated as fatal.
	var closeErr error
	if old != nil {
		closeErr = old.Close()
	}
	var fresh *Shard
	var err error
	if !rebuild {
		fresh, err = c.openShard(storeID)
		if err != nil {
			// Media unrecoverable: fall back to the peers.
			err = errors.Join(err, closeErr)
			rebuild = true
		}
	}
	if rebuild {
		if err := c.env.DropMedia(shardMediaName(storeID)); err != nil {
			return fmt.Errorf("shard: drop media for rebuild: %w", err)
		}
		fresh, err = c.openShard(storeID)
		if err != nil {
			return fmt.Errorf("shard: rebuild open: %w", err)
		}
		ms, err := c.peerMotions(band)
		if err != nil {
			return errors.Join(err, fresh.Close())
		}
		if err := fresh.BulkLoad(ctx, ms); err != nil {
			return errors.Join(fmt.Errorf("shard: rebuild load: %w", err), fresh.Close())
		}
	}
	if _, err := c.router.ReplaceShard(band, fresh); err != nil {
		return errors.Join(err, fresh.Close())
	}
	return nil
}

// peerMotions gathers band's content from the other healthy shards'
// catalogs: every motion some peer holds that the partitioner assigns to
// band, with per-motion multiplicity the maximum any single peer reports
// (replicas hold identical multiplicity, so max-of-peers is the original
// count, not a sum of replicas).
func (c *Cluster) peerMotions(band int) ([]dual.Motion, error) {
	part, err := c.cur.partitionerOf()
	if err != nil {
		return nil, err
	}
	counts := make(map[dual.Motion]int)
	for i := range c.cur.Bands {
		if i == band {
			continue
		}
		peer := c.router.Shard(i)
		if peer == nil || !peer.Health().Healthy {
			continue
		}
		ms, err := peer.Motions()
		if err != nil {
			return nil, fmt.Errorf("shard: peer %d enumerate: %w", i, err)
		}
		local := make(map[dual.Motion]int)
		for _, m := range ms {
			if assignedTo(part, m, band) {
				local[m]++
			}
		}
		for m, n := range local {
			if n > counts[m] {
				counts[m] = n
			}
		}
	}
	var out []dual.Motion
	for m, n := range counts {
		for i := 0; i < n; i++ {
			out = append(out, m)
		}
	}
	return out, nil
}

// Checkpoint folds every healthy shard's WAL into its base store — the
// idle-time maintenance hook; recovery is correct with or without it.
func (c *Cluster) Checkpoint() error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	var errs []error
	for i := range c.cur.Bands {
		s := c.router.Shard(i)
		if s == nil || !s.Health().Healthy {
			continue
		}
		if err := s.Checkpoint(); err != nil {
			errs = append(errs, fmt.Errorf("shard: checkpoint band %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Close shuts the cluster down: every shard, then the manifest store.
func (c *Cluster) Close() error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return errors.Join(c.router.Close(), c.man.close())
}

// Compile-time interface checks for the Env implementations.
var (
	_ Env = (*MemEnv)(nil)
	_ Env = (*DirEnv)(nil)
)
