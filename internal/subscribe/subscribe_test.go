package subscribe

import (
	"errors"
	"reflect"
	"testing"

	"mobidx/internal/dual"
)

func mustEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
	return e
}

func update(t *testing.T, e *Engine, m dual.Motion) {
	t.Helper()
	old, ok := currentOf(e, m.OID)
	var ops []Op
	if ok {
		ops = append(ops, Op{Insert: false, M: old})
	}
	ops = append(ops, Op{Insert: true, M: m})
	if err := e.Apply(ops); err != nil {
		t.Fatalf("Apply: %v", err)
	}
}

// currentOf peeks at the engine's tracked motion (test-only; the engine
// package owns the lock).
func currentOf(e *Engine, oid dual.OID) (dual.Motion, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	o := e.objects[oid]
	if o == nil {
		return dual.Motion{}, false
	}
	return o.m, true
}

func members(t *testing.T, e *Engine, id SubID) []dual.OID {
	t.Helper()
	ms, err := e.Members(id)
	if err != nil {
		t.Fatalf("Members(%d): %v", id, err)
	}
	return ms
}

func drain(t *testing.T, e *Engine, id SubID) []Delta {
	t.Helper()
	ds, err := e.Drain(id)
	if err != nil {
		t.Fatalf("Drain(%d): %v", id, err)
	}
	return ds
}

func TestSubscribeInitialMembersAndUpdates(t *testing.T) {
	e := mustEngine(t)
	update(t, e, dual.Motion{OID: 1, Y0: 50, T0: 0, V: 0})
	update(t, e, dual.Motion{OID: 2, Y0: 500, T0: 0, V: 1})

	id, err := e.Subscribe(40, 60, 10)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if got := members(t, e, id); !reflect.DeepEqual(got, []dual.OID{1}) {
		t.Fatalf("initial members %v, want [1]", got)
	}
	ds := drain(t, e, id)
	if len(ds) != 1 || ds[0].Kind != Enter || ds[0].OID != 1 {
		t.Fatalf("initial deltas %v, want one enter for OID 1", ds)
	}

	// Move object 2 into range, object 1 out of range.
	update(t, e, dual.Motion{OID: 2, Y0: 55, T0: 0, V: 0})
	update(t, e, dual.Motion{OID: 1, Y0: 900, T0: 0, V: 0})
	ds = drain(t, e, id)
	if len(ds) != 2 {
		t.Fatalf("got %d deltas %v, want 2", len(ds), ds)
	}
	if ds[0].Kind != Enter || ds[0].OID != 2 || ds[1].Kind != Leave || ds[1].OID != 1 {
		t.Fatalf("deltas %v, want enter(2) then leave(1)", ds)
	}
	if got := members(t, e, id); !reflect.DeepEqual(got, []dual.OID{2}) {
		t.Fatalf("members %v, want [2]", got)
	}
}

func TestUpdatePairEmitsNetTransitionsOnly(t *testing.T) {
	e := mustEngine(t)
	id, err := e.Subscribe(0, 1000, 10)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	m := dual.Motion{OID: 7, Y0: 500, T0: 0, V: 1}
	update(t, e, m)
	drain(t, e, id)
	// A velocity change that keeps the object inside the (whole-terrain)
	// query must not emit a leave/enter flap.
	update(t, e, dual.Motion{OID: 7, Y0: 500, T0: 0, V: -1})
	if ds := drain(t, e, id); len(ds) != 0 {
		t.Fatalf("paired update emitted %v, want nothing", ds)
	}
}

func TestKineticEnterAndLeave(t *testing.T) {
	e := mustEngine(t)
	// Object at 0 moving up at 1; fence [100, 110] with window 10: it
	// becomes a member when the window reaches the fence (t = 90) and
	// leaves when the object passes the fence top (t = 110).
	update(t, e, dual.Motion{OID: 3, Y0: 0, T0: 0, V: 1})
	id, err := e.Subscribe(100, 110, 10)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if got := members(t, e, id); len(got) != 0 {
		t.Fatalf("premature members %v", got)
	}
	if err := e.Advance(89); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := members(t, e, id); len(got) != 0 {
		t.Fatalf("members %v before window reaches fence", got)
	}
	if err := e.Advance(91); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	ds := drain(t, e, id)
	if len(ds) != 1 || ds[0].Kind != Enter || ds[0].OID != 3 {
		t.Fatalf("deltas %v, want enter(3) at the window boundary", ds)
	}
	if err := e.Advance(109); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := members(t, e, id); !reflect.DeepEqual(got, []dual.OID{3}) {
		t.Fatalf("members %v while inside", got)
	}
	if err := e.Advance(111); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	ds = drain(t, e, id)
	if len(ds) != 1 || ds[0].Kind != Leave || ds[0].OID != 3 {
		t.Fatalf("deltas %v, want leave(3) past the fence", ds)
	}
}

func TestKineticDescendingObject(t *testing.T) {
	e := mustEngine(t)
	update(t, e, dual.Motion{OID: 4, Y0: 200, T0: 0, V: -1})
	id, err := e.Subscribe(90, 100, 5)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	// Window reaches the fence top at t = 95, object exits below at 110.
	if err := e.Advance(94); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := members(t, e, id); len(got) != 0 {
		t.Fatalf("premature members %v", got)
	}
	if err := e.Advance(96); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := members(t, e, id); !reflect.DeepEqual(got, []dual.OID{4}) {
		t.Fatalf("members %v, want [4]", got)
	}
	if err := e.Advance(111); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := members(t, e, id); len(got) != 0 {
		t.Fatalf("members %v after exit", got)
	}
}

func TestSubscribePromotesCertificates(t *testing.T) {
	e := mustEngine(t)
	// Object with no standing queries has no certificate; a subscription
	// ahead of it must still fire on time.
	update(t, e, dual.Motion{OID: 5, Y0: 0, T0: 0, V: 2})
	id, err := e.Subscribe(100, 120, 0)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if err := e.Advance(51); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := members(t, e, id); !reflect.DeepEqual(got, []dual.OID{5}) {
		t.Fatalf("members %v, want [5] (promotion missed the crossing)", got)
	}
}

func TestDeleteEmitsLeaves(t *testing.T) {
	e := mustEngine(t)
	m := dual.Motion{OID: 9, Y0: 10, T0: 0, V: 0}
	update(t, e, m)
	id, err := e.Subscribe(0, 20, 1)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	drain(t, e, id)
	if err := e.Apply([]Op{{Insert: false, M: m}}); err != nil {
		t.Fatalf("Apply delete: %v", err)
	}
	ds := drain(t, e, id)
	if len(ds) != 1 || ds[0].Kind != Leave || ds[0].OID != 9 {
		t.Fatalf("deltas %v, want leave(9)", ds)
	}
	// Deleting an unknown object is a no-op.
	if err := e.Apply([]Op{{Insert: false, M: m}}); err != nil {
		t.Fatalf("idempotent delete: %v", err)
	}
}

func TestUnsubscribe(t *testing.T) {
	e := mustEngine(t)
	update(t, e, dual.Motion{OID: 1, Y0: 10, T0: 0, V: 0})
	id, ch, err := e.SubscribeStream(0, 20, 1, 8)
	if err != nil {
		t.Fatalf("SubscribeStream: %v", err)
	}
	if err := e.Unsubscribe(id); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	// Channel must be closed (after draining the initial enter).
	n := 0
	for range ch {
		n++
	}
	if n != 1 {
		t.Fatalf("stream delivered %d deltas before close, want 1", n)
	}
	if _, err := e.Drain(id); !errors.Is(err, ErrUnknownSub) {
		t.Fatalf("Drain after unsubscribe: %v, want ErrUnknownSub", err)
	}
	if err := e.Unsubscribe(id); !errors.Is(err, ErrUnknownSub) {
		t.Fatalf("double Unsubscribe: %v, want ErrUnknownSub", err)
	}
	// Updates after unsubscribe must not touch the dead subscription.
	update(t, e, dual.Motion{OID: 1, Y0: 500, T0: 0, V: 0})
	update(t, e, dual.Motion{OID: 1, Y0: 10, T0: 0, V: 0})
}

func TestCloseSemantics(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := e.Apply([]Op{{Insert: true, M: dual.Motion{OID: 1, Y0: 5}}}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	id, ch, err := e.SubscribeStream(0, 10, 1, 4)
	if err != nil {
		t.Fatalf("SubscribeStream: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for range ch {
		// drain until closed
	}
	if _, err := e.Drain(id); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after close: %v, want ErrClosed", err)
	}
	if err := e.Apply(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after close: %v, want ErrClosed", err)
	}
	if err := e.Advance(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Advance after close: %v, want ErrClosed", err)
	}
	if _, err := e.Subscribe(0, 1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after close: %v, want ErrClosed", err)
	}
}

func TestValidation(t *testing.T) {
	e := mustEngine(t)
	if _, err := e.Subscribe(10, 5, 1); err == nil {
		t.Fatalf("inverted range accepted")
	}
	if _, err := e.Subscribe(0, 1, -1); err == nil {
		t.Fatalf("negative window accepted")
	}
	nan := dual.Motion{OID: 1, Y0: 0, T0: 0}
	nan.Y0 = nan.Y0 / nan.T0 // NaN without literals
	if err := e.Apply([]Op{{Insert: true, M: nan}}); err == nil {
		t.Fatalf("non-finite motion accepted")
	}
	if err := e.Advance(5); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if err := e.Advance(4); err == nil {
		t.Fatalf("time moved backwards")
	}
}

func TestZeroWindowAndStaticObjects(t *testing.T) {
	e := mustEngine(t)
	update(t, e, dual.Motion{OID: 1, Y0: 50, T0: 0, V: 0})
	id, err := e.Subscribe(49, 51, 0)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if got := members(t, e, id); !reflect.DeepEqual(got, []dual.OID{1}) {
		t.Fatalf("members %v, want [1]", got)
	}
	if err := e.Advance(1000); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	if got := members(t, e, id); !reflect.DeepEqual(got, []dual.OID{1}) {
		t.Fatalf("static object drifted out: %v", got)
	}
}

func TestReset(t *testing.T) {
	e := mustEngine(t)
	update(t, e, dual.Motion{OID: 1, Y0: 10, T0: 0, V: 0})
	update(t, e, dual.Motion{OID: 2, Y0: 500, T0: 0, V: 0})
	id, err := e.Subscribe(0, 20, 1)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	drain(t, e, id)
	// Replace the population: 1 disappears, 3 lands inside the query.
	if err := e.Reset([]dual.Motion{
		{OID: 2, Y0: 500, T0: 0, V: 0},
		{OID: 3, Y0: 15, T0: 0, V: 0},
	}); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := members(t, e, id); !reflect.DeepEqual(got, []dual.OID{3}) {
		t.Fatalf("members %v, want [3]", got)
	}
	ds := drain(t, e, id)
	if len(ds) != 2 || ds[0].Kind != Leave || ds[0].OID != 1 || ds[1].Kind != Enter || ds[1].OID != 3 {
		t.Fatalf("deltas %v, want leave(1) then enter(3)", ds)
	}
}

func TestDeltaSequencingAndDeterminism(t *testing.T) {
	run := func() []Delta {
		e, err := New(Config{})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		defer func() {
			if cerr := e.Close(); cerr != nil {
				t.Fatalf("Close: %v", cerr)
			}
		}()
		var all []Delta
		ids := make([]SubID, 0, 4)
		for i := 0; i < 4; i++ {
			id, serr := e.Subscribe(float64(i*100), float64(i*100+150), 20)
			if serr != nil {
				t.Fatalf("Subscribe: %v", serr)
			}
			ids = append(ids, id)
		}
		for step := 0; step < 40; step++ {
			m := dual.Motion{OID: dual.OID(step % 7), Y0: float64(step * 13 % 400), T0: float64(step), V: 1}
			if aerr := e.Apply([]Op{{Insert: true, M: m}}); aerr != nil {
				t.Fatalf("Apply: %v", aerr)
			}
			if aerr := e.Advance(float64(step + 1)); aerr != nil {
				t.Fatalf("Advance: %v", aerr)
			}
			for _, id := range ids {
				ds, derr := e.Drain(id)
				if derr != nil {
					t.Fatalf("Drain: %v", derr)
				}
				all = append(all, ds...)
			}
		}
		return all
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs emitted different delta streams:\n%v\n%v", a, b)
	}
	// Recorded from the map-based membership of commit 4aa2e1a: a change of
	// representation must not move one delta.
	const want = "5c07b778b56a987cd57ec966ed914265158a78d20ee5cb2785ede377af1f1522"
	if got := StreamHash(a); got != want {
		t.Fatalf("%d deltas hash to %s, want %s", len(a), got, want)
	}
	perSub := make(map[SubID]uint64)
	global := make(map[uint64]bool)
	for _, d := range a {
		if global[d.Seq] {
			t.Fatalf("duplicate Seq %d", d.Seq)
		}
		global[d.Seq] = true
		if d.Seq <= perSub[d.Sub] {
			t.Fatalf("non-increasing Seq within sub %d", d.Sub)
		}
		perSub[d.Sub] = d.Seq
	}
}
