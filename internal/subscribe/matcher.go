package subscribe

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"mobidx/internal/dual"
	"mobidx/internal/geom"
)

// The query index groups subscriptions by exact window length W (the
// map key is the float's bit pattern, so no float equality is needed):
// every subscription in a class asks its MOR query over the same time
// window [now, now+W], which reduces matching to one-dimensional
// geometry. A motion y(t) = Y0 + V·(t−T0) is inside [Y1, Y2] at some
// instant of [now, now+W] iff the position interval it sweeps over the
// window intersects [Y1, Y2] — so the subscriptions whose answer can
// contain the motion are exactly those whose [Y1, Y2] stabs the swept
// interval. Two sorted edge lists per class support that stab query and
// the kinetic successor probes: byY1 holds each query's lower edge (other
// is its upper edge) and byY2 its upper edge (other is its lower edge).
//
// Edge probes are candidate filters only, padded with conservative
// slack; the exact verdict is always dual.Motion.Matches on the
// original motion, which is what keeps the engine byte-identical to a
// one-shot re-run.
type windowClass struct {
	w          float64
	byY1, byY2 edges
	// maxWidth is the running maximum query width ever admitted to the
	// class: a stab over [lo, hi] scans byY1 from lo − maxWidth, which
	// is the furthest a still-overlapping query's lower edge can sit.
	// It never shrinks (a shrink could under-scan); the class is
	// dropped when it empties.
	maxWidth float64
}

// edge is one query edge of a window class: the edge the list is ordered
// on, the query's opposite edge, and the query's slot.
type edge struct {
	key, other float64
	slot       uint32
}

// edges is a list of edges in (key, slot) order. Keys compare through
// cmp.Compare, under which −0 and +0 are one key.
type edges []edge

// at returns the position of (key, slot) in the list, or where it would
// be inserted, and whether it is there.
func (es edges) at(key float64, slot uint32) (int, bool) {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := cmp.Compare(es[mid].key, key); c < 0 || (c == 0 && es[mid].slot < slot) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(es) && cmp.Compare(es[lo].key, key) == 0 && es[lo].slot == slot
}

// ceil returns the index of the first edge whose key is at or above key,
// or len(es) when there is none.
func (es edges) ceil(key float64) int {
	i, _ := es.at(key, 0)
	return i
}

// floor returns the index of the last edge whose key is at or below key,
// or -1 when there is none.
func (es edges) floor(key float64) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmp.Compare(es[mid].key, key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// insert adds e at its place in (key, slot) order.
func (es edges) insert(e edge) edges {
	i, _ := es.at(e.key, e.slot)
	return slices.Insert(es, i, e)
}

// remove takes the edge (key, slot) out of the list.
func (es edges) remove(key float64, slot uint32) edges {
	if i, ok := es.at(key, slot); ok {
		return slices.Delete(es, i, i+1)
	}
	return es
}

// add indexes the subscription under its slot.
func (cl *windowClass) add(s *sub) {
	cl.byY1 = cl.byY1.insert(edge{key: s.y1, other: s.y2, slot: s.slot})
	cl.byY2 = cl.byY2.insert(edge{key: s.y2, other: s.y1, slot: s.slot})
	cl.maxWidth = max(cl.maxWidth, s.y2-s.y1)
}

// remove takes the subscription's two edges out of the class.
func (cl *windowClass) remove(s *sub) {
	cl.byY1 = cl.byY1.remove(s.y1, s.slot)
	cl.byY2 = cl.byY2.remove(s.y2, s.slot)
}

// dropIfEmpty drops a class no subscription uses any more: window
// lengths are arbitrary floats, so a class kept for reuse is two lists
// leaked per length ever seen.
func (e *Engine) dropIfEmpty(cl *windowClass) {
	if len(cl.byY1) == 0 {
		delete(e.classes, math.Float64bits(cl.w))
	}
}

// certEarly schedules certificates slightly before the raw boundary
// time: Matches widens its time range by geom.Eps on both ends, so a
// membership flip can become observable up to Eps early.
const certEarly = 2 * geom.Eps

// minStepRel clamps re-armed certificates strictly past the current
// time, so one Advance pops each live certificate at most once.
const minStepRel = 1e-9

// candPad returns the stab-filter padding for a motion sweeping
// [lo, hi]: a relative term for float rounding of the interval
// endpoints plus the position equivalent of Matches' time slack.
func candPad(v, lo, hi float64) float64 {
	return 1e-6*(1+math.Abs(lo)+math.Abs(hi)) + math.Abs(v)*4*geom.Eps
}

// edgePad returns the successor/predecessor probe padding around a
// boundary edge position: edges within the pad behind the exact edge
// may still flip membership (Matches' time slack), so they must stay
// visible to certificate scheduling until the object clears them.
func edgePad(v, edge float64) float64 {
	return math.Abs(v)*4*geom.Eps + 1e-9*(1+math.Abs(edge))
}

// classFor returns (creating on first use) the class for window w.
func (e *Engine) classFor(w float64) *windowClass {
	key := math.Float64bits(w)
	cl, ok := e.classes[key]
	if !ok {
		cl = &windowClass{w: w}
		e.classes[key] = cl
	}
	return cl
}

// matchSet returns the slots of exactly the subscriptions whose standing
// query the motion currently satisfies, ascending, via one stab per
// window class. The returned slice is engine-owned scratch, valid until
// the next matchSet — this is the hottest path (every upsert and every
// certificate fire), so the stab walks the byY1 list in place, and a hit
// is one bit set: a stab sees hundreds of hits in key order, and reading
// the bitset back is what orders them.
func (e *Engine) matchSet(m dual.Motion) []uint32 {
	for _, cl := range e.classes {
		ya := m.At(e.now)
		yb := m.At(e.now + cl.w)
		lo, hi := math.Min(ya, yb), math.Max(ya, yb)
		pad := candPad(m.V, lo, hi)
		q := dual.MORQuery{T1: e.now, T2: e.now + cl.w}
		top, n := hi+pad, 0
		for _, en := range cl.byY1[cl.byY1.ceil(lo-cl.maxWidth-pad):] {
			if en.key > top {
				break
			}
			n++
			if en.other < lo-pad {
				continue // query ends below the swept interval
			}
			q.Y1, q.Y2 = en.key, en.other // byY1: the edge's query
			if m.Matches(q) {
				e.hitBits[en.slot>>6] |= 1 << (en.slot & 63)
			}
		}
		e.stats.Candidates += uint64(n)
	}
	hits := e.hitBuf[:0]
	for w, word := range e.hitBits {
		for ; word != 0; word &= word - 1 {
			hits = append(hits, uint32(w<<6+bits.TrailingZeros64(word)))
		}
		e.hitBits[w] = 0
	}
	e.hitBuf = hits
	return hits
}

// classBoundary returns the earliest future time at which the motion
// can cross a membership boundary of any query in the class: for an
// ascending object the next lower edge ahead of the window's leading
// position (an enter) or the next upper edge ahead of the object (a
// leave); mirrored via predecessor probes for a descending one. Static
// objects never cross anything.
func (e *Engine) classBoundary(cl *windowClass, m dual.Motion) float64 {
	if geom.ApproxEq(m.V, 0) {
		return math.Inf(1)
	}
	y := m.At(e.now)
	lead := m.At(e.now + cl.w)
	t := math.Inf(1)
	if m.V > 0 {
		if i := cl.byY1.ceil(lead - edgePad(m.V, lead)); i < len(cl.byY1) {
			t = e.now + (cl.byY1[i].key-y)/m.V - cl.w
		}
		if i := cl.byY2.ceil(y - edgePad(m.V, y)); i < len(cl.byY2) {
			if lt := e.now + (cl.byY2[i].key-y)/m.V; lt < t {
				t = lt
			}
		}
	} else {
		if i := cl.byY2.floor(lead + edgePad(m.V, lead)); i >= 0 {
			t = e.now + (cl.byY2[i].key-y)/m.V - cl.w
		}
		if i := cl.byY1.floor(y + edgePad(m.V, y)); i >= 0 {
			if lt := e.now + (cl.byY1[i].key-y)/m.V; lt < t {
				t = lt
			}
		}
	}
	return t
}

// subBoundary returns the earliest future membership boundary of the
// motion against one query — the certificate-promotion check run when a
// new subscription arrives, closing the window between its edges and
// the object's already-scheduled certificate.
func subBoundary(m dual.Motion, y1, y2, w, now float64) float64 {
	if geom.ApproxEq(m.V, 0) {
		return math.Inf(1)
	}
	y := m.At(now)
	lead := m.At(now + w)
	t := math.Inf(1)
	if m.V > 0 {
		if y1 > lead-edgePad(m.V, lead) {
			t = now + (y1-y)/m.V - w
		}
		if y2 > y-edgePad(m.V, y) {
			if lt := now + (y2-y)/m.V; lt < t {
				t = lt
			}
		}
	} else {
		if y2 < lead+edgePad(m.V, lead) {
			t = now + (y2-y)/m.V - w
		}
		if y1 < y+edgePad(m.V, y) {
			if lt := now + (y1-y)/m.V; lt < t {
				t = lt
			}
		}
	}
	return t
}

// recert recomputes the object's single kinetic certificate: the
// earliest boundary across every populated class, scheduled slightly
// early and clamped strictly past the current time. The previous
// certificate is invalidated by the version bump, never searched for.
func (e *Engine) recert(oid dual.OID, o *object) {
	t := math.Inf(1)
	for _, cl := range e.classes {
		if b := e.classBoundary(cl, o.m); b < t {
			t = b
		}
	}
	if math.IsInf(t, 1) {
		o.certVer++
		o.certTime = t
		return
	}
	e.arm(oid, o, t)
}

// arm schedules a certificate for the raw boundary time t.
func (e *Engine) arm(oid dual.OID, o *object, t float64) {
	tc := t - certEarly
	floor := e.now + minStepRel*(1+math.Abs(e.now))
	if !(tc > floor) {
		tc = floor
	}
	o.certVer++
	o.certTime = tc
	e.agenda.Push(event{Time: tc, OID: oid, Ver: o.certVer})
}
