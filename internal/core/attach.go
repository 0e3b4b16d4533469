// Persistence metadata for the assembled DualBPlus index: enough to
// reattach the in-memory structure to a store that already holds its
// pages, which is how the sharded serving layer's crash recovery works —
// the WAL replays committed pages into the base store, and Attach rebuilds
// the roots-and-sizes skeleton from a small metadata record the owner kept
// durable alongside the data (see internal/shard's superblock).
package core

import (
	"fmt"
	"slices"

	"mobidx/internal/bptree"
	"mobidx/internal/interval"
	"mobidx/internal/pager"
)

// DualGenMeta captures one rotation generation of a DualBPlus: its epoch
// (which fixes the reference time tref = epoch·period), its motion count,
// and the shape of each of its 3c underlying B+-trees.
type DualGenMeta struct {
	// Epoch is the rotation epoch (floor(T0/period) of every motion the
	// generation holds).
	Epoch int64
	// Size is the number of motions in the generation.
	Size int
	// Pos, Neg and Sub hold, per observation line / subterrain, the
	// persistence metadata of the positive-velocity observation tree, the
	// negative-velocity observation tree, and the interval index's tree.
	// Each slice has exactly C entries.
	Pos, Neg, Sub []bptree.Meta
}

// DualMeta is the full persistence metadata of a DualBPlus index. It is
// valid until the next mutating operation and must be persisted in the
// same atomic batch as the mutation that produced it, or crash recovery
// would pair old roots with new pages.
type DualMeta struct {
	Gens []DualGenMeta
}

// Meta returns the index's current persistence metadata, generations in
// ascending epoch order (deterministic, so serialized forms are
// byte-stable for identical states).
func (d *DualBPlus) Meta() DualMeta {
	m := DualMeta{Gens: make([]DualGenMeta, 0, len(d.rot.gens))}
	for gi, g := range d.rot.gens {
		gm := DualGenMeta{
			Epoch: d.rot.epochs[gi],
			Size:  g.size,
			Pos:   make([]bptree.Meta, g.cfg.C),
			Neg:   make([]bptree.Meta, g.cfg.C),
			Sub:   make([]bptree.Meta, g.cfg.C),
		}
		for i := 0; i < g.cfg.C; i++ {
			gm.Pos[i] = g.pos[i].Meta()
			gm.Neg[i] = g.neg[i].Meta()
			gm.Sub[i] = g.sub[i].Meta()
		}
		m.Gens = append(m.Gens, gm)
	}
	return m
}

// AttachDualBPlus reattaches a DualBPlus previously built in store (same
// page size, terrain, c and codec) from its Meta, typically after the
// store was recovered by pager.OpenWALStore. Every tree root is read and
// validated, so corrupted or stale metadata surfaces here instead of as a
// wrong answer later.
func AttachDualBPlus(store pager.Store, cfg DualBPlusConfig, m DualMeta) (*DualBPlus, error) {
	d, err := NewDualBPlus(store, cfg)
	if err != nil {
		return nil, err
	}
	cfg = d.cfg // defaults applied (C)
	maxDur := (cfg.Terrain.YMax / float64(cfg.C)) / cfg.Terrain.VMin
	for _, gm := range m.Gens {
		if len(gm.Pos) != cfg.C || len(gm.Neg) != cfg.C || len(gm.Sub) != cfg.C {
			return nil, fmt.Errorf("core: attach: generation %d has %d/%d/%d trees, want %d each",
				gm.Epoch, len(gm.Pos), len(gm.Neg), len(gm.Sub), cfg.C)
		}
		if gm.Size < 0 {
			return nil, fmt.Errorf("core: attach: generation %d size %d", gm.Epoch, gm.Size)
		}
		if _, dup := slices.BinarySearch(d.rot.epochs, gm.Epoch); dup {
			return nil, fmt.Errorf("core: attach: duplicate generation epoch %d", gm.Epoch)
		}
		g := &dualBPGen{
			cfg:  cfg,
			tref: float64(gm.Epoch) * d.rot.period,
			h:    cfg.Terrain.YMax / float64(cfg.C),
			size: gm.Size,
			cand: &d.candidates,
		}
		for i := 0; i < cfg.C; i++ {
			p, err := bptree.Attach(store, bptree.Config{Codec: cfg.Codec}, gm.Pos[i])
			if err != nil {
				return nil, fmt.Errorf("core: attach gen %d pos[%d]: %w", gm.Epoch, i, err)
			}
			n, err := bptree.Attach(store, bptree.Config{Codec: cfg.Codec}, gm.Neg[i])
			if err != nil {
				return nil, fmt.Errorf("core: attach gen %d neg[%d]: %w", gm.Epoch, i, err)
			}
			s, err := interval.Attach(store, cfg.Codec, maxDur, gm.Sub[i])
			if err != nil {
				return nil, fmt.Errorf("core: attach gen %d sub[%d]: %w", gm.Epoch, i, err)
			}
			g.pos = append(g.pos, p)
			g.neg = append(g.neg, n)
			g.sub = append(g.sub, s)
		}
		d.rot.adopt(gm.Epoch, g, gm.Size)
	}
	return d, nil
}
