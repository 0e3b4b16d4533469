package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/interval"
	"mobidx/internal/pager"
)

// DualBPlusConfig configures the approximation method.
type DualBPlusConfig struct {
	Terrain dual.Terrain
	// C is the number of observation indexes (and subterrains); the paper
	// evaluates c = 4, 6, 8. Zero selects 4.
	C int
	// Codec selects on-page record precision; bptree.Compact reproduces
	// the paper's 12-byte records (B = 341).
	Codec bptree.Codec
}

// DualBPlus is the query-approximation method of §3.5.2. It keeps, per
// generation (§3.2 rotation):
//
//   - for each of c observation lines y_r(i) = (i+½)·YMax/c, two B+-trees
//     (positive and negative velocities) keyed on the Hough-Y b-coordinate
//     observed from that line — "the i-th index stores the data as observed
//     from position y_i";
//   - for each of the c subterrains [i·H, (i+1)·H), H = YMax/c, an interval
//     index of the residence intervals of every object that will traverse
//     it before its forced border update.
//
// Small queries (spatial extent ≤ H) run against the single observation
// index minimizing the enlargement E of Equation (1); larger queries are
// decomposed into whole-subterrain interval subqueries plus two endpoint
// subqueries (Lemma 1).
type DualBPlus struct {
	cfg        DualBPlusConfig
	store      pager.Store
	rot        *Rotator[dual.Motion, *dualBPGen]
	candidates atomic.Int64 // entries scanned since the last Query began (see LastQueryCandidates)
}

// NewDualBPlus creates the index on the given store.
func NewDualBPlus(store pager.Store, cfg DualBPlusConfig) (*DualBPlus, error) {
	if cfg.C == 0 {
		cfg.C = 4
	}
	if cfg.C < 1 {
		return nil, fmt.Errorf("core: DualBPlus needs c >= 1, got %d", cfg.C)
	}
	if cfg.Terrain.YMax <= 0 || cfg.Terrain.VMin <= 0 || cfg.Terrain.VMax < cfg.Terrain.VMin {
		return nil, fmt.Errorf("core: invalid terrain %+v", cfg.Terrain)
	}
	d := &DualBPlus{cfg: cfg, store: store}
	rot, err := NewRotator(cfg.Terrain.TPeriod(), motionTime, func(tref float64) (*dualBPGen, error) {
		g, err := newDualBPGen(store, cfg, tref)
		if err != nil {
			return nil, err
		}
		g.cand = &d.candidates
		return g, nil
	})
	if err != nil {
		return nil, err
	}
	d.rot = rot
	return d, nil
}

// Insert implements Index1D.
func (d *DualBPlus) Insert(m dual.Motion) error {
	if err := ValidateMotion(m, d.cfg.Terrain); err != nil {
		return err
	}
	return d.rot.Insert(m)
}

// Delete implements Index1D.
func (d *DualBPlus) Delete(m dual.Motion) error { return d.rot.Delete(m) }

// Len implements Index1D.
func (d *DualBPlus) Len() int { return d.rot.Len() }

// Generations exposes the live generation count (normally ≤ 2).
func (d *DualBPlus) Generations() int { return d.rot.Generations() }

// LastQueryCandidates reports how many index entries the most recent Query
// scanned before exact filtering — the quantity whose excess over the true
// answer is the approximation error K' of Lemma 1. Each query piece counts
// its scanned entries locally and publishes the total once, when the piece
// returns, to an atomic counter that every query resets at its start; a
// serialized query therefore reads exactly its own scanned entries, while
// under concurrent queries the counter aggregates all of them.
func (d *DualBPlus) LastQueryCandidates() int { return int(d.candidates.Load()) }

// Query implements Index1D, deduplicating across decomposed subqueries.
// Concurrent Query calls are safe as long as no Insert/Delete runs at the
// same time (readers-writer locking is the caller's choice of policy; see
// the harness throughput mode).
func (d *DualBPlus) Query(q dual.MORQuery, emit func(dual.OID)) error {
	if err := ValidateQuery(q); err != nil {
		return err
	}
	d.candidates.Store(0)
	seen := make(map[dual.OID]struct{})
	for _, sub := range d.Subqueries(q) {
		err := sub(func(id dual.OID) {
			if _, ok := seen[id]; ok {
				return
			}
			seen[id] = struct{}{}
			emit(id)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Subqueries returns the independent pieces of one MOR query across all
// live generations: per generation, either the two per-velocity-sign
// observation scans (small queries) or the Lemma 1 decomposition — one
// task per whole subterrain plus the endpoint fragments' sign scans. It is
// the one decomposition: Query and QueryAppend run the pieces in this
// order, QueryParallelCtx on an executor, and the deduplicated union of
// their emissions is the answer.
// Each piece reads only index pages, so the pieces may run concurrently
// with each other (and with other queries), but not with Insert/Delete.
func (d *DualBPlus) Subqueries(q dual.MORQuery) []func(emit func(dual.OID)) error {
	var subs []func(emit func(dual.OID)) error
	for _, g := range d.rot.Live() {
		subs = append(subs, g.subqueries(q)...)
	}
	return subs
}

// QueryParallelCtx answers q by running the decomposition's independent
// subqueries on exec and merging deterministically: the returned OIDs are
// sorted ascending and deduplicated, and the slice is identical for every
// worker count — a single-worker executor is the sequential reference.
// The context is checked between subqueries (see Executor.RunCtx), so a
// router-imposed deadline stops an in-flight query at piece granularity
// instead of letting it run to completion against a sick store.
func (d *DualBPlus) QueryParallelCtx(ctx context.Context, exec *Executor, q dual.MORQuery) ([]dual.OID, error) {
	if err := ValidateQuery(q); err != nil {
		return nil, err
	}
	d.candidates.Store(0)
	return RunSubqueriesCtx(ctx, exec, d.Subqueries(q))
}

// dualBPGen is one generation.
type dualBPGen struct {
	cfg  DualBPlusConfig
	tref float64
	h    float64        // subterrain height YMax/c
	pos  []*bptree.Tree // per observation line, v > 0
	neg  []*bptree.Tree // per observation line, v < 0
	sub  []*interval.Index
	size int
	cand *atomic.Int64 // owner's candidate counter
}

// publishCandidates adds one piece's scanned-entry total to the owner's
// counter. A scan counts into a local and publishes once when it returns,
// so its loop never writes memory that concurrent queries share.
func (g *dualBPGen) publishCandidates(n int64) {
	if n > 0 {
		g.cand.Add(n)
	}
}

func newDualBPGen(store pager.Store, cfg DualBPlusConfig, tref float64) (*dualBPGen, error) {
	g := &dualBPGen{cfg: cfg, tref: tref, h: cfg.Terrain.YMax / float64(cfg.C)}
	maxDur := g.h / cfg.Terrain.VMin
	for i := 0; i < cfg.C; i++ {
		p, err := bptree.New(store, bptree.Config{Codec: cfg.Codec})
		if err != nil {
			return nil, err
		}
		n, err := bptree.New(store, bptree.Config{Codec: cfg.Codec})
		if err != nil {
			return nil, err
		}
		s, err := interval.NewIndex(store, cfg.Codec, maxDur)
		if err != nil {
			return nil, err
		}
		g.pos = append(g.pos, p)
		g.neg = append(g.neg, n)
		g.sub = append(g.sub, s)
	}
	return g, nil
}

// yr returns the i-th observation line, the midpoint of subterrain i.
func (g *dualBPGen) yr(i int) float64 { return (float64(i) + 0.5) * g.h }

func (g *dualBPGen) obs(i int, positive bool) *bptree.Tree {
	if positive {
		return g.pos[i]
	}
	return g.neg[i]
}

func (g *dualBPGen) Len() int { return g.size }

// Insert stores m in all c observation indexes and in the interval index
// of every subterrain it will traverse before its forced border update.
func (g *dualBPGen) Insert(m dual.Motion) error {
	for i := 0; i < g.cfg.C; i++ {
		_, b := dual.HoughY(m, g.yr(i))
		e := bptree.Entry{Key: b - g.tref, Val: uint64(m.OID), Aux: m.V}
		if err := g.obs(i, m.V > 0).Insert(e); err != nil {
			return err
		}
	}
	if err := g.eachResidence(m, func(i int, in, out float64) error {
		return g.sub[i].Insert(in-g.tref, out-g.tref, uint64(m.OID))
	}); err != nil {
		return err
	}
	g.size++
	return nil
}

// Delete removes everything Insert stored for m.
func (g *dualBPGen) Delete(m dual.Motion) error {
	for i := 0; i < g.cfg.C; i++ {
		_, b := dual.HoughY(m, g.yr(i))
		if err := g.obs(i, m.V > 0).Delete(b-g.tref, uint64(m.OID)); err != nil {
			return fmt.Errorf("core: observation index %d: %w", i, err)
		}
	}
	if err := g.eachResidence(m, func(i int, in, out float64) error {
		return g.sub[i].Delete(in-g.tref, uint64(m.OID))
	}); err != nil {
		return err
	}
	g.size--
	return nil
}

// eachResidence visits every subterrain the object traverses from its
// update position until it reaches a terrain border (where it must issue a
// new update), with the absolute entry/exit times.
func (g *dualBPGen) eachResidence(m dual.Motion, fn func(i int, in, out float64) error) error {
	c := g.cfg.C
	cur := int(math.Floor(m.Y0 / g.h))
	if cur >= c {
		cur = c - 1 // Y0 == YMax sits in the top subterrain
	}
	if m.V > 0 {
		tBorder := m.T0 + (g.cfg.Terrain.YMax-m.Y0)/m.V
		in := m.T0
		for i := cur; i < c; i++ {
			out := m.T0 + (float64(i+1)*g.h-m.Y0)/m.V
			if out > tBorder {
				out = tBorder
			}
			if out > in {
				if err := fn(i, in, out); err != nil {
					return err
				}
			}
			in = out
		}
		return nil
	}
	tBorder := m.T0 + (0-m.Y0)/m.V
	in := m.T0
	for i := cur; i >= 0; i-- {
		out := m.T0 + (float64(i)*g.h-m.Y0)/m.V
		if out > tBorder {
			out = tBorder
		}
		if out > in {
			if err := fn(i, in, out); err != nil {
				return err
			}
		}
		in = out
	}
	return nil
}

// small reports whether q is answered by one observation index: it spans
// at most one subterrain, or it lies wholly off the terrain, where there is
// no subterrain border for Lemma 1 to split it on (the clamped split would
// stretch its fragments back to the terrain's edge).
func (g *dualBPGen) small(q dual.MORQuery) bool {
	return q.Y2-q.Y1 <= g.h || q.Y2 < 0 || q.Y1 > g.cfg.Terrain.YMax
}

// lemma1Split computes the whole-subterrain range [jLo, jHi) of the
// Lemma 1 decomposition for a query wider than one subterrain.
func (g *dualBPGen) lemma1Split(q dual.MORQuery) (jLo, jHi int) {
	jLo = int(math.Ceil(q.Y1 / g.h))
	jHi = int(math.Floor(q.Y2 / g.h))
	if jHi > g.cfg.C {
		jHi = g.cfg.C
	}
	if jLo < 0 {
		jLo = 0
	}
	return jLo, jHi
}

// subterrainScan answers the time-overlap subquery of one whole subterrain
// exactly from its interval index.
func (g *dualBPGen) subterrainScan(j int, q dual.MORQuery, emit func(dual.OID)) error {
	var n int64
	err := g.sub[j].Overlapping(q.T1-g.tref, q.T2-g.tref, func(_, _ float64, v uint64) bool {
		n++
		emit(dual.OID(v))
		return true
	})
	g.publishCandidates(n)
	return err
}

// subqueries answers the MOR query per §3.5.2 as independent pieces: for a
// small query the two per-velocity-sign observation scans; for a larger
// one the Lemma 1 decomposition — whole subterrains inside [Y1, Y2]
// answered exactly by the interval indexes, one piece each, plus the sign
// scans of the two endpoint fragments, which are small queries.
func (g *dualBPGen) subqueries(q dual.MORQuery) []func(emit func(dual.OID)) error {
	if g.small(q) {
		return g.smallQueryPieces(q)
	}
	jLo, jHi := g.lemma1Split(q)
	var subs []func(emit func(dual.OID)) error
	for j := jLo; j < jHi; j++ {
		subs = append(subs, func(emit func(dual.OID)) error {
			return g.subterrainScan(j, q, emit)
		})
	}
	// Endpoint fragments are run even when degenerate (query edge exactly
	// on a subterrain boundary) so objects sitting exactly on the boundary
	// are never missed; the caller deduplicates.
	if lo := float64(jLo) * g.h; q.Y1 <= lo {
		sq := q
		sq.Y2 = lo
		subs = append(subs, g.smallQueryPieces(sq)...)
	}
	if hi := float64(jHi) * g.h; q.Y2 >= hi {
		sq := q
		sq.Y1 = hi
		subs = append(subs, g.smallQueryPieces(sq)...)
	}
	return subs
}

// bestObservation returns the observation index minimizing the
// enlargement E of Equation (1) for the query.
func (g *dualBPGen) bestObservation(q dual.MORQuery) int {
	best, bestE := 0, math.Inf(1)
	for i := 0; i < g.cfg.C; i++ {
		if e := dual.EnlargementE(q, g.yr(i), g.cfg.Terrain); e < bestE {
			best, bestE = i, e
		}
	}
	return best
}

// signScan scans one velocity sign of one observation index over the
// approximating b-range (Figure 4), filtering candidates exactly.
func (g *dualBPGen) signScan(q dual.MORQuery, obs int, positive bool, emit func(dual.OID)) error {
	yr := g.yr(obs)
	bLo, bHi := dual.HoughYRect(q, yr, g.cfg.Terrain, positive)
	var n int64
	err := g.obs(obs, positive).Range(bLo-g.tref, bHi-g.tref, func(e bptree.Entry) bool {
		n++
		m := dual.MotionFromHoughY(dual.OID(e.Val), e.Aux, e.Key+g.tref, yr)
		if m.Matches(q) {
			emit(m.OID)
		}
		return true
	})
	g.publishCandidates(n)
	return err
}

// smallQueryPieces answers a query whose spatial extent is at most one
// subterrain via the observation index minimizing E (Equation 1): one scan
// of the approximating b-range (Figure 4) per velocity sign, positive
// first.
func (g *dualBPGen) smallQueryPieces(q dual.MORQuery) []func(emit func(dual.OID)) error {
	best := g.bestObservation(q)
	pieces := make([]func(emit func(dual.OID)) error, 0, 2)
	for _, positive := range []bool{true, false} {
		pieces = append(pieces, func(emit func(dual.OID)) error {
			return g.signScan(q, best, positive, emit)
		})
	}
	return pieces
}

// Destroy releases all pages of the generation.
func (g *dualBPGen) Destroy() error {
	for i := 0; i < g.cfg.C; i++ {
		if err := g.pos[i].Destroy(); err != nil {
			return err
		}
		if err := g.neg[i].Destroy(); err != nil {
			return err
		}
		if err := g.sub[i].Destroy(); err != nil {
			return err
		}
	}
	return nil
}
