// Package subscribe is the continuous-query engine: standing MOR queries
// over the live stream of motion updates, maintained incrementally.
//
// A standing query ("subscription") is a spatial range [Y1, Y2] watched
// through a sliding time window: at engine time t it asks the MOR query
// [Y1, Y2] × [t, t+W]. The dual transform of §3.2 makes such a query a
// region in dual space, so the queries themselves are indexable: the
// engine keeps every subscription's range endpoints in per-window-length
// sorted edge lists (the query-region structure), and a motion update
// binary-searches those lists to find exactly the subscriptions whose
// answer can have changed — nothing is re-executed. Membership deltas are
// emitted as typed enter/leave events.
//
// Between updates, membership still changes as objects move across
// standing-query window boundaries. Those instants are kinetic events
// (agenda.go): for each object the engine keeps one certificate —
// the earliest future time at which the object can cross the nearest
// boundary of any standing query, found by successor/predecessor probes
// on the edge lists — and Advance fires due certificates, re-evaluates
// only the affected object, and re-arms. Event volume is therefore
// output-sensitive: no boundary crossings, no work.
//
// The exact membership authority is always dual.Motion.Matches on the
// original motion; edge probes are candidate filters with conservative
// slack. That makes the engine's accumulated deltas reconstruct, at every
// checkpoint (after Apply or Advance), byte-identically the answer of
// re-running each standing query one-shot — the property the differential
// oracle suite asserts.
//
// The engine is a passive state machine guarded by one mutex: it owns no
// goroutines, so Close can never leak, and delta emission order is
// deterministic (affected subscriptions in SubID order per re-evaluation,
// certificate events in agenda order). Subscriptions are serving-side
// state, not durable state: the edge lists are plain in-memory slices,
// and the sharded router seeds its one engine via Reset when the
// first standing query arrives (and again when a bulk load or a revived
// shard replaces what the cluster holds).
//
// The scans that visit every object — a new subscription's initial
// answer set, Unsubscribe, Members — range over a dense list of the
// objects rather than the OID map, whose iteration cost a third of a
// Subscribe.
//
// Membership is kept in ordered slices, not maps. Every subscription
// owns a slot in a dense, free-listed table (bounded by the live
// subscriptions, not by the ids ever issued); every edge carries its
// query's slot, an object's memberships are an ascending slot
// list — the only record of membership: a subscription's answer set is
// the objects whose list holds its slot — and a re-evaluation marks its
// hits in a bitset over the slots, reads them back ascending and
// merge-diffs the two lists. Only the difference — usually a handful of
// slots — is put in SubID order.
package subscribe

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"mobidx/internal/dual"
)

// SubID identifies a subscription within one engine.
type SubID uint64

// Kind is the type of a membership delta.
type Kind uint8

const (
	// Enter reports an object joining a subscription's answer set.
	Enter Kind = iota + 1
	// Leave reports an object dropping out of it.
	Leave
)

// String returns the delta kind's name.
func (k Kind) String() string {
	switch k {
	case Enter:
		return "enter"
	case Leave:
		return "leave"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Delta is one membership transition of one subscription's answer set.
// Applying a drained delta sequence to a set, in order, reproduces the
// subscription's current one-shot answer.
type Delta struct {
	Seq  uint64   // engine-wide emission counter, strictly increasing
	Time float64  // engine time at emission
	Sub  SubID    // the subscription whose answer changed
	OID  dual.OID // the object that entered or left
	Kind Kind
}

// Op is one motion mutation (see dual.Op).
type Op = dual.Op

// Config configures an engine.
type Config struct {
	// Start is the initial engine time (0 for fresh scenarios).
	Start float64
}

// Stats counts engine work, for benchmarks and tuning.
type Stats struct {
	Updates     uint64 // motion upserts processed
	Removes     uint64 // motion deletions processed
	CertFires   uint64 // kinetic certificates fired by Advance
	StaleEvents uint64 // agenda events skipped as invalidated
	Emitted     uint64 // deltas emitted across all subscriptions
	Candidates  uint64 // subscription candidates scanned by edge probes
	Compactions uint64 // agenda compactions
	Dropped     uint64 // stream deltas dropped on full channels
}

// ErrClosed reports use of a closed engine.
var ErrClosed = errors.New("subscribe: engine closed")

// ErrUnknownSub reports an operation on a subscription that does not
// exist (never created, or already unsubscribed).
var ErrUnknownSub = errors.New("subscribe: unknown subscription")

// object is the engine's view of one mobile object.
type object struct {
	m        dual.Motion
	at       int      // index in Engine.all
	member   []uint32 // slots of the subscriptions containing it, ascending
	certTime float64  // scheduled certificate time (+Inf: none)
	certVer  uint64   // stamp of the one live agenda event
}

// sub is one standing query.
type sub struct {
	id     SubID
	slot   uint32 // index in Engine.slots; carried by the query's edges
	y1, y2 float64
	class  *windowClass
	buf    []Delta    // transitions since the last Drain
	ch     chan Delta // optional stream view (nil: drain-only)
}

// Engine maintains standing queries over a stream of motion updates.
type Engine struct {
	mu      sync.Mutex
	objects map[dual.OID]*object
	all     []*object               // the objects again, dense: the scans visiting every one range here
	classes map[uint64]*windowClass // keyed by math.Float64bits(window)
	subs    map[SubID]*sub
	slots   []*sub   // dense subscription table; nil where free
	free    []uint32 // free slots, reused before the table grows
	agenda  *agenda
	now     float64
	nextSub SubID
	seq     uint64
	stats   Stats
	closed  bool

	// Re-evaluation scratch, reused across calls under mu: the match
	// path runs once per update and once per certificate fire, so its
	// buffers must not allocate in steady state.
	hitBits  []uint64 // one bit per slot; all zero outside matchSet
	hitBuf   []uint32 // matchSet result, valid until next matchSet
	leaveBuf []uint32
	enterBuf []uint32
}

// New builds an empty engine.
func New(cfg Config) (*Engine, error) {
	if math.IsNaN(cfg.Start) || math.IsInf(cfg.Start, 0) {
		return nil, fmt.Errorf("subscribe: non-finite start time %v", cfg.Start)
	}
	return &Engine{
		objects: make(map[dual.OID]*object),
		classes: make(map[uint64]*windowClass),
		subs:    make(map[SubID]*sub),
		agenda:  newAgenda(),
		now:     cfg.Start,
	}, nil
}

// Now returns the engine time.
func (e *Engine) Now() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Objects returns the number of tracked motions.
func (e *Engine) Objects() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.objects)
}

// Subs returns the number of standing queries.
func (e *Engine) Subs() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.subs)
}

// Stats returns a snapshot of the work counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

func validMotion(m dual.Motion) error {
	if math.IsNaN(m.Y0) || math.IsInf(m.Y0, 0) ||
		math.IsNaN(m.T0) || math.IsInf(m.T0, 0) ||
		math.IsNaN(m.V) || math.IsInf(m.V, 0) {
		return fmt.Errorf("subscribe: non-finite motion %+v", m)
	}
	return nil
}

// Subscribe registers the standing query [y1, y2] watched through a
// sliding window of the given length, returning its id. The current
// answer set is delivered immediately as Enter deltas, so a drain-built
// set is complete from the first delta on.
func (e *Engine) Subscribe(y1, y2, window float64) (SubID, error) {
	id, _, err := e.subscribe(y1, y2, window, -1)
	return id, err
}

// SubscribeStream is Subscribe with a live channel view of the deltas,
// buffered to buf. The channel is best-effort: when it is full, deltas
// are dropped from the channel (counted in Stats.Dropped) but never from
// Drain, which stays exact. The channel is closed by Unsubscribe and by
// Close; nothing is sent after either.
func (e *Engine) SubscribeStream(y1, y2, window float64, buf int) (SubID, <-chan Delta, error) {
	if buf < 0 {
		buf = 0
	}
	return e.subscribe(y1, y2, window, buf)
}

func (e *Engine) subscribe(y1, y2, window float64, buf int) (SubID, <-chan Delta, error) {
	if math.IsNaN(y1) || math.IsInf(y1, 0) || math.IsNaN(y2) || math.IsInf(y2, 0) ||
		math.IsNaN(window) || math.IsInf(window, 0) {
		return 0, nil, fmt.Errorf("subscribe: non-finite range [%v,%v] window %v", y1, y2, window)
	}
	if y2 < y1 {
		return 0, nil, fmt.Errorf("subscribe: inverted range [%v,%v]", y1, y2)
	}
	if window < 0 {
		return 0, nil, fmt.Errorf("subscribe: negative window %v", window)
	}
	if math.Signbit(window) {
		window = 0 // fold -0 into the +0 window class
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, nil, ErrClosed
	}
	cl := e.classFor(window)
	s := &sub{y1: y1, y2: y2, class: cl}
	e.allocSlot(s)
	cl.add(s)
	e.nextSub++
	s.id = e.nextSub
	if buf >= 0 {
		s.ch = make(chan Delta, buf)
	}
	e.subs[s.id] = s

	// Initial answer set and certificate promotion: every current member
	// enters, in OID order, and any object whose boundary against the new
	// query precedes its scheduled certificate gets an earlier one —
	// without this, a crossing of the new query's edges before the next
	// unrelated event would be missed. The certificates are armed in the
	// dense list's order: the agenda pops by (Time, OID, Ver), a total
	// order, so the order events were pushed in cannot show in the order
	// they fire.
	q := dual.MORQuery{Y1: y1, Y2: y2, T1: e.now, T2: e.now + window}
	var oids []dual.OID
	for _, o := range e.all {
		oid := o.m.OID
		if o.m.Matches(q) {
			at, _ := slices.BinarySearch(o.member, s.slot)
			o.member = slices.Insert(o.member, at, s.slot)
			oids = append(oids, oid)
		}
		if t := subBoundary(o.m, y1, y2, window, e.now); t < o.certTime {
			e.arm(oid, o, t)
		}
	}
	slices.Sort(oids)
	for _, oid := range oids {
		e.emit(s, oid, Enter)
	}
	return s.id, s.ch, nil
}

// allocSlot gives the subscription a slot, reusing a freed one before
// growing the table (and the hit bitset with it).
func (e *Engine) allocSlot(s *sub) {
	if n := len(e.free); n > 0 {
		s.slot, e.free = e.free[n-1], e.free[:n-1]
	} else {
		s.slot = uint32(len(e.slots))
		e.slots = append(e.slots, nil)
		if len(e.slots) > 64*len(e.hitBits) {
			e.hitBits = append(e.hitBits, 0)
		}
	}
	e.slots[s.slot] = s
}

func (e *Engine) freeSlot(s *sub) {
	e.slots[s.slot] = nil
	e.free = append(e.free, s.slot)
}

// byID puts a slot list in the SubID order deltas are emitted in. Slot
// order is id order until a freed slot is reused.
func (e *Engine) byID(slots []uint32) {
	if len(slots) > 1 {
		slices.SortFunc(slots, func(a, b uint32) int { return cmp.Compare(e.slots[a].id, e.slots[b].id) })
	}
}

// Unsubscribe tears the standing query down. Undrained deltas are
// discarded and its stream channel (if any) is closed; no Leave deltas
// are emitted for its members.
func (e *Engine) Unsubscribe(id SubID) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	s, ok := e.subs[id]
	if !ok {
		return fmt.Errorf("subscribe: unsubscribe %d: %w", id, ErrUnknownSub)
	}
	s.class.remove(s)
	for _, o := range e.all {
		if at, ok := slices.BinarySearch(o.member, s.slot); ok {
			o.member = slices.Delete(o.member, at, at+1)
		}
	}
	if s.ch != nil {
		close(s.ch)
	}
	delete(e.subs, id)
	e.freeSlot(s)
	e.dropIfEmpty(s.class)
	return nil
}

// Apply feeds a batch of motion mutations at the current engine time.
// A delete immediately followed by an insert of the same object — the
// repository's update convention — is treated as one atomic motion
// change, so it emits only the net membership transitions.
func (e *Engine) Apply(ops []Op) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	for i := 0; i < len(ops); i++ {
		op := ops[i]
		if op.Insert {
			if err := e.upsert(op.M); err != nil {
				return err
			}
			continue
		}
		if i+1 < len(ops) && ops[i+1].Insert && ops[i+1].M.OID == op.M.OID {
			if err := e.upsert(ops[i+1].M); err != nil {
				return err
			}
			i++
			continue
		}
		e.remove(op.M.OID)
	}
	e.maybeCompact()
	return nil
}

// Advance moves engine time forward to now and fires every due kinetic
// certificate: each fired object is re-evaluated against the query index
// exactly once and re-armed. After Advance returns, accumulated deltas
// reflect every boundary crossing up to and including now.
func (e *Engine) Advance(now float64) error {
	if math.IsNaN(now) || math.IsInf(now, 0) {
		return fmt.Errorf("subscribe: non-finite advance time %v", now)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if now < e.now {
		return fmt.Errorf("subscribe: advance to %v behind engine time %v", now, e.now)
	}
	e.now = now
	for {
		ev, ok := e.agenda.PopDue(now)
		if !ok {
			break
		}
		o := e.objects[ev.OID]
		if o == nil || o.certVer != ev.Ver {
			e.stats.StaleEvents++
			continue
		}
		e.stats.CertFires++
		e.refresh(ev.OID, o)
		// Certificates are clamped strictly past now on re-arm, so this
		// loop pops each live certificate at most once per Advance.
		e.recert(ev.OID, o)
	}
	e.maybeCompact()
	return nil
}

// Drain returns the subscription's deltas accumulated since the last
// Drain, in emission order, and clears the buffer. It is the exact
// delivery path: unlike the stream channel it never drops.
func (e *Engine) Drain(id SubID) ([]Delta, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	s, ok := e.subs[id]
	if !ok {
		return nil, fmt.Errorf("subscribe: drain %d: %w", id, ErrUnknownSub)
	}
	out := s.buf
	s.buf = nil
	return out, nil
}

// Members returns the subscription's current answer set, sorted.
func (e *Engine) Members(id SubID) ([]dual.OID, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	s, ok := e.subs[id]
	if !ok {
		return nil, fmt.Errorf("subscribe: members %d: %w", id, ErrUnknownSub)
	}
	var out []dual.OID
	for _, o := range e.all {
		if _, ok := slices.BinarySearch(o.member, s.slot); ok {
			out = append(out, o.m.OID)
		}
	}
	slices.Sort(out)
	return out, nil
}

// Reset replaces the tracked motion population with ms (last motion wins
// on duplicate OIDs), re-evaluating every standing query: objects that
// disappear emit Leave, (re)loaded objects emit their net transitions.
// This is the bulk-load/recovery hook — the router calls it when the
// cluster's contents are replaced.
func (e *Engine) Reset(ms []dual.Motion) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if len(e.subs) == 0 {
		// No standing query can see the old population leave: drop it
		// wholesale. This is how the router seeds and empties an idle engine.
		e.objects = make(map[dual.OID]*object, len(ms))
		e.all = nil
		e.agenda = newAgenda()
	} else {
		keep := make(map[dual.OID]struct{}, len(ms))
		for _, m := range ms {
			keep[m.OID] = struct{}{}
		}
		gone := make([]dual.OID, 0)
		for _, o := range e.all {
			if _, ok := keep[o.m.OID]; !ok {
				gone = append(gone, o.m.OID)
			}
		}
		slices.Sort(gone)
		for _, oid := range gone {
			e.remove(oid)
		}
	}
	for _, m := range ms {
		if err := e.upsert(m); err != nil {
			return err
		}
	}
	e.maybeCompact()
	return nil
}

// Close shuts the engine down: every stream channel is closed, the
// engine's state is released, and every further call fails with
// ErrClosed — no delta is ever emitted after Close. Close is idempotent
// and always returns nil.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	for _, s := range e.subs {
		if s.ch != nil {
			close(s.ch)
		}
	}
	e.subs = nil
	e.slots = nil
	e.objects = nil
	e.all = nil
	e.classes = nil
	e.agenda = nil
	return nil
}

// emit appends one delta to the subscription's drain buffer and offers
// it to the stream channel.
func (e *Engine) emit(s *sub, oid dual.OID, k Kind) {
	e.seq++
	e.stats.Emitted++
	d := Delta{Seq: e.seq, Time: e.now, Sub: s.id, OID: oid, Kind: k}
	s.buf = append(s.buf, d)
	if s.ch != nil {
		select {
		case s.ch <- d:
		default:
			e.stats.Dropped++
		}
	}
}

// upsert installs or replaces one motion and re-evaluates it.
func (e *Engine) upsert(m dual.Motion) error {
	if err := validMotion(m); err != nil {
		return err
	}
	o := e.objects[m.OID]
	if o == nil {
		o = &object{at: len(e.all), certTime: math.Inf(1)}
		e.objects[m.OID] = o
		e.all = append(e.all, o)
	}
	o.m = m
	e.stats.Updates++
	e.refresh(m.OID, o)
	e.recert(m.OID, o)
	return nil
}

// remove drops one motion, emitting Leave for every membership. Unknown
// OIDs are a no-op, so delete ops are idempotent.
func (e *Engine) remove(oid dual.OID) {
	o := e.objects[oid]
	if o == nil {
		return
	}
	e.byID(o.member)
	for _, slot := range o.member {
		e.emit(e.slots[slot], oid, Leave)
	}
	delete(e.objects, oid) // orphans the agenda event; pop skips it
	last := e.all[len(e.all)-1]
	e.all[o.at], last.at = last, o.at
	e.all[len(e.all)-1] = nil
	e.all = e.all[:len(e.all)-1]
	e.stats.Removes++
}

// refresh recomputes the object's exact membership across all standing
// queries and emits the difference: leaves then enters, each in SubID
// order.
func (e *Engine) refresh(oid dual.OID, o *object) {
	hits := e.matchSet(o.m)
	// Both lists ascend by slot: one merge pass finds the difference.
	leave, enter := e.leaveBuf[:0], e.enterBuf[:0]
	old, i, j := o.member, 0, 0
	for i < len(old) && j < len(hits) {
		switch {
		case old[i] == hits[j]:
			i, j = i+1, j+1
		case old[i] < hits[j]:
			leave = append(leave, old[i])
			i++
		default:
			enter = append(enter, hits[j])
			j++
		}
	}
	leave = append(leave, old[i:]...)
	enter = append(enter, hits[j:]...)
	e.leaveBuf, e.enterBuf = leave, enter
	if len(leave)+len(enter) == 0 {
		return
	}
	o.member = append(o.member[:0], hits...)
	e.byID(leave)
	e.byID(enter)
	for _, slot := range leave {
		e.emit(e.slots[slot], oid, Leave)
	}
	for _, slot := range enter {
		e.emit(e.slots[slot], oid, Enter)
	}
}

// maybeCompact drops stale agenda events once they can outnumber the one
// live certificate per object.
func (e *Engine) maybeCompact() {
	if e.agenda.Len() <= 2*len(e.objects)+64 {
		return
	}
	e.agenda.Compact(func(ev event) bool {
		o := e.objects[ev.OID]
		return o != nil && o.certVer == ev.Ver
	})
	e.stats.Compactions++
}
