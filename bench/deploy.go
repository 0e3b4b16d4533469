package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/shard"
)

// deployment is the serving stack under test on one directory of real
// media: a shard.Cluster, or for the ingest workload the same shards
// opened with a write tier behind a bare shard.Router (ClusterConfig has
// no ingest setting). Opening the same directory again recovers it.
type deployment struct {
	sp      *spec
	sc      scale
	dir     string
	env     *mediaEnv
	cluster *shard.Cluster // nil on the ingest path
	router  *shard.Router

	// wals holds, per store id, the store each pool reads from (the shard's
	// WAL, or the probe on it), for the cache-relation gates.
	wals map[int]pager.Store
}

// openDeployment opens or recovers the deployment in dir. rec is nil for
// the untraced stack; with a recorder, probes sit above the pool, between
// pool and WAL, and on the FileStore and FileLog.
func openDeployment(sp *spec, sc scale, dir string, rec *recorder) (*deployment, error) {
	dirEnv, err := shard.NewDirEnv(dir, pageSize)
	if err != nil {
		return nil, err
	}
	d := &deployment{sp: sp, sc: sc, dir: dir, env: &mediaEnv{under: dirEnv, rec: rec},
		wals: make(map[int]pager.Store)}
	wrap := func(storeID int) func(pager.Store) pager.Store {
		return func(wal pager.Store) pager.Store {
			if rec != nil {
				wal = newStoreProbe(rec, "wal", wal)
			}
			d.wals[storeID] = wal
			var top pager.Store = pager.NewBuffered(wal, sc.poolPages)
			if rec != nil {
				top = newStoreProbe(rec, "pool", top)
			}
			return top
		}
	}
	if !sp.ingest {
		d.cluster, err = shard.OpenCluster(d.env, shard.ClusterConfig{
			Terrain: terrain, C: observationC, Codec: recordCodec, PageSize: pageSize,
			AutoCheckpointBytes: autoCheckpoint, Exec: core.NewExecutor(1), WrapStore: wrap,
		}, bands)
		if err != nil {
			return nil, errors.Join(err, d.env.closeBases())
		}
		d.router = d.cluster.Router()
		return d, nil
	}
	part, err := shard.NewPartitioner(terrain.YMax, bands)
	if err != nil {
		return nil, err
	}
	shards := make([]*shard.Shard, 0, bands)
	fail := func(err error) (*deployment, error) {
		for _, s := range shards {
			err = errors.Join(err, s.Close())
		}
		return nil, errors.Join(err, d.env.closeBases())
	}
	for i := 0; i < bands; i++ {
		media, err := d.env.OpenMedia(fmt.Sprintf("shard-%d", i))
		if err != nil {
			return fail(err)
		}
		s, err := shard.Open(shard.Config{
			ID: i, Terrain: terrain, C: observationC, Codec: recordCodec, PageSize: pageSize,
			AutoCheckpointBytes: autoCheckpoint, WrapStore: wrap(i), Ingest: &shard.IngestConfig{},
		}, media.Base, media.Log)
		if err != nil {
			return fail(err)
		}
		shards = append(shards, s)
	}
	d.router, err = shard.NewRouter(shards, part, core.NewExecutor(1), shard.Policy{})
	if err != nil {
		return fail(err)
	}
	return d, nil
}

func (d *deployment) Query(ctx context.Context, q dual.MORQuery) ([]dual.OID, error) {
	return d.router.Query(ctx, q)
}

func (d *deployment) Apply(ctx context.Context, ops []shard.Op) error {
	return d.router.Apply(ctx, ops)
}

// shards returns the current topology's shards, band order.
func (d *deployment) shards() []*shard.Shard {
	var out []*shard.Shard
	for i := 0; ; i++ {
		s := d.router.Shard(i)
		if s == nil {
			return out
		}
		out = append(out, s)
	}
}

func (d *deployment) checkpoint() error {
	if d.cluster != nil {
		return d.cluster.Checkpoint()
	}
	var errs []error
	for _, s := range d.shards() {
		errs = append(errs, s.Checkpoint())
	}
	return errors.Join(errs...)
}

func (d *deployment) close() error {
	var err error
	if d.cluster != nil {
		err = d.cluster.Close()
	} else {
		err = d.router.Close()
	}
	return errors.Join(err, d.env.closeBases())
}

// held is the number of motions the shards hold, replicas included.
func (d *deployment) held() int {
	n := 0
	for _, s := range d.shards() {
		n += s.Len()
	}
	return n
}

// pagesInUse sums the live pages of every shard store.
func (d *deployment) pagesInUse() int {
	n := 0
	for _, w := range d.wals {
		n += w.PagesInUse()
	}
	return n
}

// poolPages is the deployment's total pool capacity.
func (d *deployment) poolPages() int { return len(d.wals) * d.sc.poolPages }

// diskBytes is the size of every page file and log in the directory.
func (d *deployment) diskBytes() (int64, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".pages") && !strings.HasSuffix(e.Name(), ".log") {
			continue
		}
		info, err := os.Stat(filepath.Join(d.dir, e.Name()))
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// split carves the band containing cut in two at cut.
func (d *deployment) split(ctx context.Context, cut float64) error {
	part := d.router.Partitioner()
	for b := 0; b < part.N(); b++ {
		if lo, hi := part.Bounds(b); lo < cut && cut < hi {
			return d.cluster.Split(ctx, b, cut)
		}
	}
	return fmt.Errorf("no band contains cut %v", cut)
}
