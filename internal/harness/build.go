// Build benchmark: incremental vs bulk construction. The paper charges
// every page touch; an index rebuilt with the dynamic Insert path pays a
// root-to-leaf descent (and split cascades) per record, where the bulk
// loaders sort once and write every page exactly once. RunBuildBench
// measures both paths for each access method on the same dataset —
// wall-clock time, logical I/Os (issued by the structure), physical I/Os
// (reaching the base store beneath the buffer pool), bytes allocated, and
// final page footprint.
package harness

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/kdtree"
	"mobidx/internal/pager"
	"mobidx/internal/parttree"
	"mobidx/internal/rstar"
	"mobidx/internal/workload"
)

// BuildResult is one structure × method measurement.
type BuildResult struct {
	Structure   string  `json:"structure"`
	Method      string  `json:"method"` // "incremental" or "bulk"
	N           int     `json:"n"`
	WallMs      float64 `json:"wall_ms"`
	LogicalIOs  int64   `json:"logical_ios"`
	PhysicalIOs int64   `json:"physical_ios"`
	AllocMB     float64 `json:"alloc_mb"`
	PagesInUse  int     `json:"pages_in_use"`
}

// BuildReport is the full -build run.
type BuildReport struct {
	N           int           `json:"n"`
	PageSize    int           `json:"page_size"`
	BufferPages int           `json:"buffer_pages"`
	Seed        int64         `json:"seed"`
	BPTreeLeafB int           `json:"bptree_leaf_cap"`
	Results     []BuildResult `json:"results"`
	// BPTreeIOReduction is incremental/bulk physical I/Os for the B+-tree —
	// the headline number the bulk loader exists for.
	BPTreeIOReduction float64 `json:"bptree_physical_io_reduction"`
}

// BuildBenchConfig tunes a -build run.
type BuildBenchConfig struct {
	N           int   // records per structure (0 → 100000)
	Seed        int64 // 0 → 1999
	BufferPages int   // buffer pool size (0 → 256)
}

// countStore tallies the logical I/Os a structure issues above the buffer
// pool. Builds are single-goroutine, so plain counters suffice. It is a
// Viewer, so a structure that views its pages does so through the pool's
// zero-copy path here as it does when it serves.
type countStore struct {
	pager.Store
	reads, writes int64
}

func (c *countStore) Read(id pager.PageID) (*pager.Page, error) {
	c.reads++
	return c.Store.Read(id)
}

func (c *countStore) View(id pager.PageID) ([]byte, error) {
	c.reads++
	return pager.ViewBytes(c.Store, id)
}

func (c *countStore) Write(p *pager.Page) error {
	c.writes++
	return c.Store.Write(p)
}

// measureBuild runs one build against a fresh store stack and snapshots
// the counters around it.
func measureBuild(structure, method string, n, bufPages int, fn func(pager.Store) error) (BuildResult, error) {
	base := pager.NewMemStore(pager.DefaultPageSize)
	cs := &countStore{Store: pager.NewBuffered(base, bufPages)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := fn(cs); err != nil {
		return BuildResult{}, fmt.Errorf("%s/%s: %w", structure, method, err)
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return BuildResult{
		Structure:   structure,
		Method:      method,
		N:           n,
		WallMs:      float64(wall.Microseconds()) / 1e3,
		LogicalIOs:  cs.reads + cs.writes,
		PhysicalIOs: base.Stats().IOs(),
		AllocMB:     float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		PagesInUse:  base.PagesInUse(),
	}, nil
}

// RunBuildBench measures incremental vs bulk construction for every access
// method at cfg.N records. logf, when non-nil, receives one line per
// completed measurement.
func RunBuildBench(cfg BuildBenchConfig, logf func(format string, args ...any)) (*BuildReport, error) {
	if cfg.N == 0 {
		cfg.N = 100000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1999
	}
	if cfg.BufferPages == 0 {
		cfg.BufferPages = 256
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &BuildReport{
		N:           cfg.N,
		PageSize:    pager.DefaultPageSize,
		BufferPages: cfg.BufferPages,
		Seed:        cfg.Seed,
	}
	add := func(r BuildResult) {
		rep.Results = append(rep.Results, r)
		logf("%-10s %-11s  %8.1f ms  %9d logical  %9d physical  %7.1f MB alloc  %6d pages",
			r.Structure, r.Method, r.WallMs, r.LogicalIOs, r.PhysicalIOs, r.AllocMB, r.PagesInUse)
	}

	// --- B+-tree (Compact codec: the paper's 12-byte records) ------------
	// Entries are generated once; the bulk copy is rounded and sorted at
	// generation time, so the builder's no-sort fast path (BulkLoadSorted)
	// applies — the dataset is produced in the order its consumer needs.
	rng := rand.New(rand.NewSource(cfg.Seed))
	entries := make([]bptree.Entry, cfg.N)
	for i := range entries {
		entries[i] = bptree.Entry{
			Key: bptree.Compact.RoundKey(rng.Float64() * 1000),
			Val: uint64(i),
			Aux: bptree.Compact.RoundKey(rng.Float64()*3 - 1.5),
		}
	}
	sortedEntries := bptree.SortEntries(entries, new(bptree.SortScratch))

	r, err := measureBuild("bptree", "incremental", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		tr, err := bptree.New(st, bptree.Config{Codec: bptree.Compact})
		if err != nil {
			return err
		}
		rep.BPTreeLeafB = tr.LeafCap()
		for _, e := range entries {
			if err := tr.Insert(e); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add(r)
	incBPIOs := r.PhysicalIOs

	r, err = measureBuild("bptree", "bulk", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		tr, err := bptree.New(st, bptree.Config{Codec: bptree.Compact})
		if err != nil {
			return err
		}
		return tr.BulkLoadSorted(sortedEntries, 0)
	})
	if err != nil {
		return nil, err
	}
	add(r)
	if r.PhysicalIOs > 0 {
		rep.BPTreeIOReduction = float64(incBPIOs) / float64(r.PhysicalIOs)
	}

	// --- Dual B+ (the §3.5.2 assembled index) ----------------------------
	p := workload.DefaultParams(cfg.N)
	p.Seed = cfg.Seed
	sim, err := workload.NewSimulator(p)
	if err != nil {
		return nil, err
	}
	if err := sim.Bootstrap(func(workload.Op) error { return nil }); err != nil {
		return nil, err
	}
	motions := append([]dual.Motion(nil), sim.Motions()...)
	dualCfg := core.DualBPlusConfig{Terrain: p.Terrain, C: 4, Codec: bptree.Compact}

	r, err = measureBuild("dualbplus", "incremental", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		ix, err := core.NewDualBPlus(st, dualCfg)
		if err != nil {
			return err
		}
		for _, m := range motions {
			if err := ix.Insert(m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add(r)

	r, err = measureBuild("dualbplus", "bulk", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		ix, err := core.NewDualBPlus(st, dualCfg)
		if err != nil {
			return err
		}
		return ix.BulkLoad(motions)
	})
	if err != nil {
		return nil, err
	}
	add(r)

	// --- k-d tree (§3.5.1 PAM) -------------------------------------------
	world := geom.Box{Lo: geom.Vec{-10, -10}, Hi: geom.Vec{1010, 1010}}
	points := make([]kdtree.Point, cfg.N)
	for i := range points {
		points[i] = kdtree.Pt(geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000}, uint64(i))
	}

	r, err = measureBuild("kdtree", "incremental", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		tr, err := kdtree.New(st, 2, world)
		if err != nil {
			return err
		}
		for _, pt := range points {
			if err := tr.Insert(pt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add(r)

	r, err = measureBuild("kdtree", "bulk", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		tr, err := kdtree.New(st, 2, world)
		if err != nil {
			return err
		}
		return tr.BulkLoad(points)
	})
	if err != nil {
		return nil, err
	}
	add(r)

	// --- R*-tree (§3.1 baseline geometry) --------------------------------
	items := make([]rstar.Item, cfg.N)
	for i := range items {
		x := rng.Float64() * 1000
		y := rng.Float64() * 1000
		items[i] = rstar.Item{
			Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*3, MaxY: y + rng.Float64()*3},
			Val:  uint64(i),
		}
	}

	r, err = measureBuild("rstar", "incremental", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		tr, err := rstar.New(st)
		if err != nil {
			return err
		}
		for _, it := range items {
			if err := tr.Insert(it); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add(r)

	r, err = measureBuild("rstar", "bulk", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		tr, err := rstar.New(st)
		if err != nil {
			return err
		}
		return tr.BulkLoad(items)
	})
	if err != nil {
		return nil, err
	}
	add(r)

	// --- Partition tree (§3.4) -------------------------------------------
	ppts := make([]parttree.Point, cfg.N)
	for i := range ppts {
		ppts[i] = parttree.Pt(geom.Vec{rng.Float64() * 1000, rng.Float64() * 1000}, uint64(i))
	}

	r, err = measureBuild("parttree", "incremental", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		tr, err := parttree.New(st, 2)
		if err != nil {
			return err
		}
		for _, pt := range ppts {
			if err := tr.Insert(pt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	add(r)

	r, err = measureBuild("parttree", "bulk", cfg.N, cfg.BufferPages, func(st pager.Store) error {
		tr, err := parttree.New(st, 2)
		if err != nil {
			return err
		}
		return tr.BulkLoad(ppts)
	})
	if err != nil {
		return nil, err
	}
	add(r)

	return rep, nil
}
