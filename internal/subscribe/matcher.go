package subscribe

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/geom"
	"mobidx/internal/kinetic"
)

// The query index groups subscriptions by exact window length W (the
// map key is the float's bit pattern, so no float equality is needed):
// every subscription in a class asks its MOR query over the same time
// window [now, now+W], which reduces matching to one-dimensional
// geometry. A motion y(t) = Y0 + V·(t−T0) is inside [Y1, Y2] at some
// instant of [now, now+W] iff the position interval it sweeps over the
// window intersects [Y1, Y2] — so the subscriptions whose answer can
// contain the motion are exactly those whose [Y1, Y2] stabs the swept
// interval. Two B+-trees per class support that stab query and the
// kinetic successor probes: byY1 keyed on each query's lower edge (Aux
// carries Y2) and byY2 keyed on the upper edge (Aux carries Y1).
//
// Tree probes are candidate filters only, padded with conservative
// slack; the exact verdict is always dual.Motion.Matches on the
// original motion, which is what keeps the engine byte-identical to a
// one-shot re-run.
type windowClass struct {
	w          float64
	byY1, byY2 *bptree.Tree
	count      int
	// maxWidth is the running maximum query width ever admitted to the
	// class: a stab over [lo, hi] scans byY1 from lo − maxWidth, which
	// is the furthest a still-overlapping query's lower edge can sit.
	// It never shrinks (a shrink could under-scan); the class is
	// destroyed when it empties.
	maxWidth float64
}

// add indexes the subscription under its slot, leaving no entry behind
// when it fails.
func (cl *windowClass) add(s *sub) error {
	if err := cl.byY1.Insert(bptree.Entry{Key: s.y1, Val: uint64(s.slot), Aux: s.y2}); err != nil {
		return err
	}
	if err := cl.byY2.Insert(bptree.Entry{Key: s.y2, Val: uint64(s.slot), Aux: s.y1}); err != nil {
		return errors.Join(err, cl.byY1.Delete(s.y1, uint64(s.slot)))
	}
	cl.count++
	cl.maxWidth = max(cl.maxWidth, s.y2-s.y1)
	return nil
}

// remove takes the subscription's two entries out of the class.
func (cl *windowClass) remove(s *sub) error {
	if err := cl.byY1.Delete(s.y1, uint64(s.slot)); err != nil {
		return err
	}
	if err := cl.byY2.Delete(s.y2, uint64(s.slot)); err != nil {
		return err
	}
	cl.count--
	return nil
}

// dropIfEmpty destroys a class no subscription uses any more: window
// lengths are arbitrary floats, so a class kept for reuse is two trees
// leaked per length ever seen.
func (e *Engine) dropIfEmpty(cl *windowClass) error {
	if cl.count > 0 {
		return nil
	}
	delete(e.classes, math.Float64bits(cl.w))
	return errors.Join(cl.byY1.Destroy(), cl.byY2.Destroy())
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
func (e *Engine) classFor(w float64) (*windowClass, error) {
	key := math.Float64bits(w)
	if cl, ok := e.classes[key]; ok {
		return cl, nil
	}
	byY1, err := bptree.New(e.store, bptree.Config{})
	if err != nil {
		return nil, fmt.Errorf("subscribe: query index: %w", err)
	}
	byY2, err := bptree.New(e.store, bptree.Config{})
	if err != nil {
		return nil, fmt.Errorf("subscribe: query index: %w", err)
	}
	cl := &windowClass{w: w, byY1: byY1, byY2: byY2}
	e.classes[key] = cl
	return cl, nil
}

// matchSet returns the slots of exactly the subscriptions whose standing
// query the motion currently satisfies, ascending, via one stab per
// window class. The returned slice is engine-owned scratch, valid until
// the next matchSet — this is the hottest path (every upsert and every
// certificate fire), so the stab runs on the zero-alloc RangeAppend into
// reused buffers, and a hit is one bit set: a stab sees hundreds of hits
// in key order, and reading the bitset back is what orders them.
func (e *Engine) matchSet(m dual.Motion) ([]uint32, error) {
	for _, cl := range e.classes {
		ya := m.At(e.now)
		yb := m.At(e.now + cl.w)
		lo, hi := math.Min(ya, yb), math.Max(ya, yb)
		pad := candPad(m.V, lo, hi)
		q := dual.MORQuery{T1: e.now, T2: e.now + cl.w}
		ents, err := cl.byY1.RangeAppend(e.scanBuf[:0], lo-cl.maxWidth-pad, hi+pad)
		e.scanBuf = ents
		if err != nil {
			clear(e.hitBits)
			return nil, fmt.Errorf("subscribe: stab: %w", err)
		}
		e.stats.Candidates += uint64(len(ents))
		for _, en := range ents {
			if en.Aux < lo-pad {
				continue // query ends below the swept interval
			}
			q.Y1, q.Y2 = en.Key, en.Aux // byY1: the entry is the query
			if m.Matches(q) {
				e.hitBits[en.Val>>6] |= 1 << (en.Val & 63)
			}
		}
	}
	hits := e.hitBuf[:0]
	for w, word := range e.hitBits {
		for ; word != 0; word &= word - 1 {
			hits = append(hits, uint32(w<<6+bits.TrailingZeros64(word)))
		}
		e.hitBits[w] = 0
	}
	e.hitBuf = hits
	return hits, nil
}

// classBoundary returns the earliest future time at which the motion
// can cross a membership boundary of any query in the class: for an
// ascending object the next lower edge ahead of the window's leading
// position (an enter) or the next upper edge ahead of the object (a
// leave); mirrored via predecessor probes for a descending one. Static
// objects never cross anything.
func (e *Engine) classBoundary(cl *windowClass, m dual.Motion) (float64, error) {
	if geom.ApproxEq(m.V, 0) {
		return math.Inf(1), nil
	}
	y := m.At(e.now)
	lead := m.At(e.now + cl.w)
	t := math.Inf(1)
	var en bptree.Entry
	var ok bool
	var err error
	if m.V > 0 {
		if en, ok, err = cl.byY1.Ceil(lead - edgePad(m.V, lead)); err == nil && ok {
			t = e.now + (en.Key-y)/m.V - cl.w
		}
		if err == nil {
			if en, ok, err = cl.byY2.Ceil(y - edgePad(m.V, y)); err == nil && ok {
				if lt := e.now + (en.Key-y)/m.V; lt < t {
					t = lt
				}
			}
		}
	} else {
		if en, ok, err = cl.byY2.Floor(lead + edgePad(m.V, lead)); err == nil && ok {
			t = e.now + (en.Key-y)/m.V - cl.w
		}
		if err == nil {
			if en, ok, err = cl.byY1.Floor(y + edgePad(m.V, y)); err == nil && ok {
				if lt := e.now + (en.Key-y)/m.V; lt < t {
					t = lt
				}
			}
		}
	}
	if err != nil {
		return 0, fmt.Errorf("subscribe: boundary probe: %w", err)
	}
	return t, nil
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
func (e *Engine) recert(oid dual.OID, o *object) error {
	t := math.Inf(1)
	for _, cl := range e.classes {
		b, err := e.classBoundary(cl, o.m)
		if err != nil {
			return err
		}
		if b < t {
			t = b
		}
	}
	if math.IsInf(t, 1) {
		o.certVer++
		o.certTime = t
		return nil
	}
	e.arm(oid, o, t)
	return nil
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
	e.agenda.Push(kinetic.Event{Time: tc, OID: oid, Ver: o.certVer})
}
