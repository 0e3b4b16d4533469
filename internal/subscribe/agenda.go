// The agenda is the event-queue half of the kinetic framework (Basch,
// Guibas, Hershberger: a kinetic data structure maintains an attribute of
// moving objects by scheduling "certificate" events at the future times
// where the attribute can change, instead of re-evaluating it everywhere).
// The subscription engine uses it to schedule the instants at which a
// moving object can cross a standing query's window boundary: between two
// certificate times nothing needs to be recomputed.
//
// The agenda is a deterministic binary min-heap ordered by
// (Time, OID, Ver): equal-time events pop in object order, so every run
// over the same trace fires events in the same order. Certificates are
// invalidated lazily — the owner stamps each event with a version and
// simply skips stale ones on pop; Compact drops accumulated stale events
// when the owner decides they dominate the heap.

package subscribe

import "mobidx/internal/dual"

// event is one scheduled certificate: at Time, the attribute watched for
// object OID may change. Ver is the owner's version stamp; an event whose
// Ver no longer matches the owner's current stamp for that object is
// stale and must be ignored on pop.
type event struct {
	Time float64
	OID  dual.OID
	Ver  uint64
}

// eventLess orders events by (Time, OID, Ver) without float equality.
func eventLess(a, b event) bool {
	if a.Time < b.Time {
		return true
	}
	if b.Time < a.Time {
		return false
	}
	if a.OID != b.OID {
		return a.OID < b.OID
	}
	return a.Ver < b.Ver
}

// agenda is a min-heap of certificate events. The zero value is not
// usable; call newAgenda. Not safe for concurrent use — the owner
// serializes access (the subscription engine holds its own mutex).
type agenda struct {
	h []event
}

// newAgenda returns an empty agenda.
func newAgenda() *agenda { return &agenda{} }

// Len returns the number of scheduled events, stale ones included.
func (a *agenda) Len() int { return len(a.h) }

// Push schedules an event.
func (a *agenda) Push(ev event) {
	a.h = append(a.h, ev)
	i := len(a.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(a.h[i], a.h[p]) {
			break
		}
		a.h[i], a.h[p] = a.h[p], a.h[i]
		i = p
	}
}

// Min returns the earliest scheduled event without removing it.
func (a *agenda) Min() (event, bool) {
	if len(a.h) == 0 {
		return event{}, false
	}
	return a.h[0], true
}

// PopDue removes and returns the earliest event whose Time is at most
// now. It returns ok=false when the agenda is empty or the earliest
// event lies in the future.
func (a *agenda) PopDue(now float64) (event, bool) {
	if len(a.h) == 0 || a.h[0].Time > now {
		return event{}, false
	}
	ev := a.h[0]
	last := len(a.h) - 1
	a.h[0] = a.h[last]
	a.h = a.h[:last]
	a.siftDown(0)
	return ev, true
}

func (a *agenda) siftDown(i int) {
	n := len(a.h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(a.h[l], a.h[small]) {
			small = l
		}
		if r < n && eventLess(a.h[r], a.h[small]) {
			small = r
		}
		if small == i {
			return
		}
		a.h[i], a.h[small] = a.h[small], a.h[i]
		i = small
	}
}

// Compact drops every event for which live reports false, re-heapifying
// in place. Owners call it when lazy invalidation has let stale events
// outnumber live ones; the subscription engine keeps exactly one live
// certificate per object, so live heap size is bounded by the object
// count.
func (a *agenda) Compact(live func(event) bool) {
	kept := a.h[:0]
	for _, ev := range a.h {
		if live(ev) {
			kept = append(kept, ev)
		}
	}
	a.h = kept
	for i := len(a.h)/2 - 1; i >= 0; i-- {
		a.siftDown(i)
	}
}
