// Package kinetic implements §3.6 of the paper: logarithmic-time MOR1
// queries ("which objects are in [yl, yr] at instant tq?") for a bounded
// time window T into the future.
//
// The construction follows Lemmas 2-4 and Theorem 2. At build time the
// objects are sorted by current position; all pairwise overtakes
// ("crossings") within the window are enumerated by sorting the objects by
// their positions at the window's end and reporting inversions (Lemma 3).
// Between consecutive crossings the relative order is fixed, so the
// evolving sorted list is stored in a partially persistent B-tree embedded
// over the static list positions (Lemma 4): each node keeps a base copy
// plus a change log, materializing a fresh copy every Θ(B) changes and
// posting it as a change in its parent's log. A query locates the root
// copy valid at tq through a B+-tree over root versions and then descends
// reading O(1) pages per level, for O(log_B(n+m)) I/Os total, in O(n+m)
// space, where m = M/B counts the crossings (Theorem 2).
//
// Queries answer from the motion information captured at build time; the
// staggered wrapper (Staggered) rebuilds every T so any instant within T of
// "now" is always covered, as the paper prescribes.
package kinetic

import (
	"fmt"
	"math"
	"sort"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

func mathFloat64bits(f float64) uint64     { return math.Float64bits(f) }
func mathFloat64frombits(u uint64) float64 { return math.Float64frombits(u) }
func negInf() float64                      { return math.Inf(-1) }

// Object is one mobile object as of the structure's build time: position
// Y0 at time TStart, moving with velocity V.
type Object struct {
	OID dual.OID
	Y0  float64
	V   float64
}

// Structure answers MOR1 queries for instants in [TStart, TStart+Horizon]
// against the motions captured at build time.
type Structure struct {
	bd       *builder
	versions *bptree.Tree
	height   int
	tStart   float64
	tEnd     float64
	n        int
	m        int // number of crossings in the window
	pages    []pager.PageID
}

// Crossing is one overtake event between two objects.
type Crossing struct {
	A, B dual.OID
	Time float64
}

// Crossings enumerates all overtakes among objs within (tStart,
// tStart+horizon), per Lemma 3, in O(N log N + M) time plus the final sort.
// Objects are taken at their positions at tStart.
func Crossings(objs []Object, tStart, horizon float64) []Crossing {
	n := len(objs)
	if n < 2 {
		return nil
	}
	startOrder := make([]int, n)
	for i := range startOrder {
		startOrder[i] = i
	}
	sort.Slice(startOrder, func(a, b int) bool {
		i, j := startOrder[a], startOrder[b]
		if objs[i].Y0 != objs[j].Y0 {
			return objs[i].Y0 < objs[j].Y0
		}
		if objs[i].V != objs[j].V {
			return objs[i].V < objs[j].V
		}
		return objs[i].OID < objs[j].OID
	})
	// rank in start order.
	rank := make([]int, n)
	for r, i := range startOrder {
		rank[i] = r
	}
	endKey := func(i int) float64 { return objs[i].Y0 + objs[i].V*horizon }
	endOrder := make([]int, n)
	copy(endOrder, startOrder)
	sort.SliceStable(endOrder, func(a, b int) bool {
		i, j := endOrder[a], endOrder[b]
		if endKey(i) != endKey(j) {
			return endKey(i) < endKey(j)
		}
		return rank[i] < rank[j] // touch-at-end is not a crossing
	})
	// Doubly linked list over start ranks.
	next := make([]int, n+1) // next[n] is the head sentinel
	prev := make([]int, n+1)
	next[n] = 0
	prev[n] = n - 1
	for r := 0; r < n; r++ {
		next[r] = r + 1
		if r+1 == n {
			next[r] = n
		}
		prev[r] = r - 1
		if r == 0 {
			prev[r] = n
		}
	}
	var out []Crossing
	for _, i := range endOrder {
		r := rank[i]
		// Every rank still ahead of r in the list started before i but
		// ends after it: a crossing.
		for s := next[n]; s != r; s = next[s] {
			j := startOrder[s]
			// y_j(t) = y_i(t) at tc; v_j > v_i here.
			tc := tStart + (objs[i].Y0-objs[j].Y0)/(objs[j].V-objs[i].V)
			out = append(out, Crossing{A: objs[j].OID, B: objs[i].OID, Time: tc})
		}
		// Unlink r.
		next[prev[r]] = next[r]
		prev[next[r]] = prev[r]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Time < out[b].Time })
	return out
}

// Build constructs the structure for instants in [tStart, tStart+horizon].
func Build(store pager.Store, objs []Object, tStart, horizon float64) (*Structure, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("kinetic: horizon must be positive, got %v", horizon)
	}
	bd := newBuilder(store)
	n := len(objs)

	sorted := make([]Object, n)
	copy(sorted, objs)
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].Y0 != sorted[b].Y0 {
			return sorted[a].Y0 < sorted[b].Y0
		}
		if sorted[a].V != sorted[b].V {
			return sorted[a].V < sorted[b].V
		}
		return sorted[a].OID < sorted[b].OID
	})
	init := make([]occupant, n)
	occOf := make(map[dual.OID]occupant, n)
	posOf := make(map[dual.OID]int, n)
	for p, o := range sorted {
		oc := occupant{oid: uint32(o.OID), y0: o.Y0, v: o.V}
		init[p] = oc
		occOf[o.OID] = oc
		posOf[o.OID] = p
	}

	crossings := Crossings(sorted, tStart, horizon)
	occAt := make([]occupant, n)
	copy(occAt, init)
	changes := make([]change, 0, 2*len(crossings))
	// Apply crossings grouped by identical time: simultaneous crossings
	// (several objects meeting at one point) are not independent adjacent
	// swaps, so the correct post-event order is recomputed by sorting the
	// affected positions' occupants by (position at tc, velocity) — the
	// order that holds immediately after tc.
	for lo := 0; lo < len(crossings); {
		hi := lo
		tc := crossings[lo].Time
		affected := make(map[int]struct{})
		for hi < len(crossings) && crossings[hi].Time == tc {
			affected[posOf[crossings[hi].A]] = struct{}{}
			affected[posOf[crossings[hi].B]] = struct{}{}
			hi++
		}
		poss := make([]int, 0, len(affected))
		for p := range affected {
			poss = append(poss, p)
		}
		sort.Ints(poss)
		occs := make([]occupant, len(poss))
		for k, p := range poss {
			occs[k] = occAt[p]
		}
		rel := tc - tStart
		sort.Slice(occs, func(a, b int) bool {
			ya := occs[a].y0 + occs[a].v*rel
			yb := occs[b].y0 + occs[b].v*rel
			// Objects crossing at tc recompute to nearly-equal, not equal,
			// positions; a strict comparison would sometimes keep the
			// pre-crossing order and silently drop the swap. Treat values
			// within rounding distance as the same meeting point and order
			// by velocity — the order that holds just after tc.
			eps := 1e-7 * (1 + math.Abs(ya))
			if math.Abs(ya-yb) > eps {
				return ya < yb
			}
			if occs[a].v != occs[b].v {
				return occs[a].v < occs[b].v
			}
			return occs[a].oid < occs[b].oid
		})
		for k, p := range poss {
			if occAt[p] != occs[k] {
				changes = append(changes, change{time: tc, pos: p, occ: occs[k]})
				occAt[p] = occs[k]
				posOf[dual.OID(occs[k].oid)] = p
			}
		}
		lo = hi
	}

	tracker := &allocTracker{Store: store}
	bd.store = tracker
	// The whole build is one atomic batch on a batching store: a crash
	// mid-build leaves no partially-built structure behind.
	var (
		versions *bptree.Tree
		height   int
	)
	err := pager.RunBatch(store, func() error {
		var err error
		versions, height, err = bd.buildTree(init, changes)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Structure{
		bd:       bd,
		versions: versions,
		height:   height,
		tStart:   tStart,
		tEnd:     tStart + horizon,
		n:        n,
		m:        len(crossings),
		pages:    tracker.ids,
	}, nil
}

// allocTracker records every page the build allocates so Destroy can free
// the whole structure.
type allocTracker struct {
	pager.Store
	ids []pager.PageID
}

func (a *allocTracker) Allocate() (*pager.Page, error) {
	p, err := a.Store.Allocate()
	if err == nil {
		a.ids = append(a.ids, p.ID)
	}
	return p, err
}

// Meta captures the position and shape of a Structure inside its store, so
// it can be reattached with Reopen after the store is reopened (e.g. after
// crash recovery of a write-ahead-logged store).
type Meta struct {
	Versions     bptree.Meta // the root-version index tree
	Height       int
	TStart, TEnd float64
	N, M         int
	Pages        []pager.PageID // every page of the structure, for Destroy
}

// Meta returns the structure's persistence metadata. Valid until the
// structure is destroyed.
func (s *Structure) Meta() Meta {
	return Meta{
		Versions: s.versions.Meta(),
		Height:   s.height,
		TStart:   s.tStart,
		TEnd:     s.tEnd,
		N:        s.n,
		M:        s.m,
		Pages:    append([]pager.PageID(nil), s.pages...),
	}
}

// Reopen reattaches a Structure previously built in store (same page size)
// from its Meta. The pages are trusted as far as a Build's would be; a
// corrupt store surfaces as typed read/decode errors on access.
func Reopen(store pager.Store, m Meta) (*Structure, error) {
	if m.Height < 0 || m.N < 0 || m.M < 0 || m.TEnd < m.TStart {
		return nil, fmt.Errorf("kinetic: implausible meta %+v", m)
	}
	vt, err := bptree.Attach(store, bptree.Config{Codec: bptree.Wide}, m.Versions)
	if err != nil {
		return nil, fmt.Errorf("kinetic: reopen versions: %w", err)
	}
	return &Structure{
		bd:       newBuilder(store),
		versions: vt,
		height:   m.Height,
		tStart:   m.TStart,
		tEnd:     m.TEnd,
		n:        m.N,
		m:        m.M,
		pages:    append([]pager.PageID(nil), m.Pages...),
	}, nil
}

// N returns the number of objects captured at build time.
func (s *Structure) N() int { return s.n }

// M returns the number of crossings within the structure's window.
func (s *Structure) M() int { return s.m }

// Window returns the time interval the structure covers.
func (s *Structure) Window() (float64, float64) { return s.tStart, s.tEnd }

// checkWindow refuses a query instant outside the structure's window (a
// NaN instant included): the crossings past either end were never
// recorded, so an answer there would be wrong without an error.
func (s *Structure) checkWindow(tq float64) error {
	if !(tq >= s.tStart-1e-9 && tq <= s.tEnd+1e-9) {
		return fmt.Errorf("kinetic: query time %v outside window [%v, %v]", tq, s.tStart, s.tEnd)
	}
	return nil
}

// checkPositions refuses a NaN or ±Inf query position: every comparison
// with NaN is false, so the descent would find nothing and report no error.
func checkPositions(ys ...float64) error {
	for _, y := range ys {
		if math.IsNaN(y) || math.IsInf(y, 0) {
			return fmt.Errorf("kinetic: query position %v is not finite", y)
		}
	}
	return nil
}

// Query reports every object whose build-time motion places it inside
// [yl, yh] at instant tq; tq must lie within the structure's window and
// yl, yh must be finite.
func (s *Structure) Query(yl, yh, tq float64, emit func(dual.OID)) error {
	if err := s.checkWindow(tq); err != nil {
		return err
	}
	if err := checkPositions(yl, yh); err != nil {
		return err
	}
	if s.n == 0 {
		return nil
	}
	return s.scan(yl, yh, tq, func(id dual.OID, _ float64) { emit(id) })
}

// scan reports every object inside [yl, yh] at instant tq with its
// position there: the root copy valid at tq, then one descent.
func (s *Structure) scan(yl, yh, tq float64, emit func(dual.OID, float64)) error {
	e, ok, err := s.versions.Floor(tq)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("kinetic: no root version at or before %v", tq)
	}
	return s.descend(pager.PageID(e.Val), s.height, yl, yh, tq, emit)
}

func (s *Structure) valAt(o occupant, tq float64) float64 {
	return o.y0 + o.v*(tq-s.tStart)
}

func (s *Structure) descend(id pager.PageID, height int, yl, yh, tq float64, emit func(dual.OID, float64)) error {
	if height == 1 {
		_, occs, err := s.bd.leafState(id, tq)
		if err != nil {
			return err
		}
		for _, o := range occs {
			if y := s.valAt(o, tq); y >= yl && y <= yh {
				emit(dual.OID(o.oid), y)
			}
		}
		return nil
	}
	kids, err := s.bd.intState(id, tq)
	if err != nil {
		return err
	}
	for c := range kids {
		// Child c holds values in [router_c, router_{c+1}] at tq.
		lo := s.valAt(kids[c].router, tq)
		if lo > yh {
			break
		}
		if c+1 < len(kids) {
			hi := s.valAt(kids[c+1].router, tq)
			if hi < yl {
				continue
			}
		}
		if err := s.descend(kids[c].ptr, height-1, yl, yh, tq, emit); err != nil {
			return err
		}
	}
	return nil
}

// Neighbor is one k-nearest-neighbor result.
type Neighbor struct {
	OID  dual.OID
	Y    float64 // position at the query instant
	Dist float64
}

// QueryKNearest reports the k objects nearest to position y at instant tq
// (a near-neighbor query, listed as future work in §7 of the paper; on
// this structure it reduces to a widening sequence of MOR1 range queries,
// each O(log_B(n+m) + output/B) I/Os). Results are ordered by distance;
// tq must lie within the structure's window and y must be finite.
func (s *Structure) QueryKNearest(y float64, tq float64, k int) ([]Neighbor, error) {
	if err := s.checkWindow(tq); err != nil {
		return nil, err
	}
	if err := checkPositions(y); err != nil {
		return nil, err
	}
	if k <= 0 || s.n == 0 {
		return nil, nil
	}
	if k > s.n {
		k = s.n
	}
	// Doubling radius: each round costs a logarithmic descent plus the
	// candidates found, so the total is dominated by the final round.
	byDist := func(cand []Neighbor) {
		sort.Slice(cand, func(a, b int) bool {
			if cand[a].Dist != cand[b].Dist {
				return cand[a].Dist < cand[b].Dist
			}
			return cand[a].OID < cand[b].OID
		})
	}
	for radius := 1.0; ; radius *= 2 {
		var cand []Neighbor
		err := s.scan(y-radius, y+radius, tq, func(id dual.OID, pos float64) {
			cand = append(cand, Neighbor{OID: id, Y: pos, Dist: math.Abs(pos - y)})
		})
		if err != nil {
			return nil, err
		}
		// The k-th hit must lie strictly within the radius — otherwise a
		// nearer object could hide just outside the searched range.
		if len(cand) >= k {
			byDist(cand)
			if cand[k-1].Dist <= radius {
				return cand[:k], nil
			}
		}
		if radius > 4e18 { // the whole line has been covered
			byDist(cand)
			if len(cand) > k {
				cand = cand[:k]
			}
			return cand, nil
		}
	}
}

// Validate checks the structure's core invariant at the given number of
// evenly spaced instants across its window: the reconstructed list must be
// sorted by position and contain exactly N occupants. Exported for tests
// and tooling; cost is samples × O(n) page reads.
func (s *Structure) Validate(samples int) error {
	if s.n == 0 {
		return nil
	}
	for k := 0; k <= samples; k++ {
		tq := s.tStart + float64(k)/float64(samples)*(s.tEnd-s.tStart)
		e, ok, err := s.versions.Floor(tq)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("kinetic: no root version at %v", tq)
		}
		var vals []float64
		var walk func(id pager.PageID, h int) error
		walk = func(id pager.PageID, h int) error {
			if h == 1 {
				_, occs, err := s.bd.leafState(id, tq)
				if err != nil {
					return err
				}
				for _, o := range occs {
					vals = append(vals, s.valAt(o, tq))
				}
				return nil
			}
			kids, err := s.bd.intState(id, tq)
			if err != nil {
				return err
			}
			for _, c := range kids {
				if err := walk(c.ptr, h-1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(pager.PageID(e.Val), s.height); err != nil {
			return err
		}
		if len(vals) != s.n {
			return fmt.Errorf("kinetic: t=%v: %d occupants, want %d", tq, len(vals), s.n)
		}
		const slack = 1e-6 // near-simultaneous crossings may reorder within rounding distance
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1]-slack {
				return fmt.Errorf("kinetic: t=%v: list unsorted at %d (%v > %v)", tq, i, vals[i-1], vals[i])
			}
		}
	}
	return nil
}

// Destroy frees every page the structure occupies, atomically on a
// batching store.
func (s *Structure) Destroy() error {
	// s.bd.store is the build's allocTracker; unwrap to reach the batch
	// support of the store beneath it.
	var under pager.Store = s.bd.store
	if tr, ok := under.(*allocTracker); ok {
		under = tr.Store
	}
	err := pager.RunBatch(under, func() error {
		for _, id := range s.pages {
			if err := s.bd.store.Free(id); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.pages = nil
	return nil
}

// ---------------------------------------------------------------------------
// Staggered rebuilding (§3.6): cover any instant within T of now.
// ---------------------------------------------------------------------------

// Staggered maintains up to two Structures so that every instant in
// [now, now+T] is always covered: at time t0 it builds for [t0, t0+2T], and
// every T thereafter it builds the next window, retiring structures whose
// window has fully passed.
type Staggered struct {
	store     pager.Store
	T         float64
	structs   []*Structure
	lastBuild float64
	built     bool
}

// NewStaggered creates an empty staggered index with window length T.
func NewStaggered(store pager.Store, T float64) (*Staggered, error) {
	if T <= 0 {
		return nil, fmt.Errorf("kinetic: T must be positive, got %v", T)
	}
	return &Staggered{store: store, T: T}, nil
}

// Advance rebuilds if a period has elapsed (or on first call), taking a
// fresh snapshot of the objects as of time now, and retires structures
// whose window ended before now.
func (sg *Staggered) Advance(now float64, snapshot func() []Object) error {
	if !sg.built || now >= sg.lastBuild+sg.T {
		st, err := Build(sg.store, snapshot(), now, 2*sg.T)
		if err != nil {
			return err
		}
		sg.structs = append(sg.structs, st)
		sg.lastBuild = now
		sg.built = true
	}
	keep := sg.structs[:0]
	for i, st := range sg.structs {
		// Retire windows that ended at or before now — except the newest
		// structure, which always stays (it covers [now, now+2T]).
		if st.tEnd <= now && i < len(sg.structs)-1 {
			if err := st.Destroy(); err != nil {
				return err
			}
			continue
		}
		keep = append(keep, st)
	}
	sg.structs = keep
	return nil
}

// Query answers an MOR1 query at instant tq using the most recently built
// structure whose window covers tq (the freshest motion information).
func (sg *Staggered) Query(yl, yh, tq float64, emit func(dual.OID)) error {
	for i := len(sg.structs) - 1; i >= 0; i-- {
		st := sg.structs[i]
		if tq >= st.tStart && tq <= st.tEnd {
			return st.Query(yl, yh, tq, emit)
		}
	}
	return fmt.Errorf("kinetic: no structure covers time %v (advance first)", tq)
}

// Structures returns the live structure count (at most two in steady state).
func (sg *Staggered) Structures() int { return len(sg.structs) }
