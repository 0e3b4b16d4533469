package subscribe

import (
	"testing"

	"mobidx/internal/dual"
)

// steadyEngine is 64 fences in two window classes over 200 objects, run
// long enough that every scratch buffer and the agenda have their size.
func steadyEngine(t *testing.T) *Engine {
	t.Helper()
	e := mustEngine(t)
	for i := 0; i < 64; i++ {
		if _, err := e.Subscribe(float64(i*15), float64(i*15+120), float64(5+15*(i%2))); err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
	}
	for i := 0; i < 200; i++ {
		update(t, e, dual.Motion{OID: dual.OID(i), Y0: float64(i * 5), V: 0.001})
	}
	return e
}

// TestUpsertZeroAlloc: re-reporting a motion that changes no membership
// — the common update — allocates nothing: the stab, the bitset, the
// merge-diff and the re-armed certificate all run on engine scratch.
func TestUpsertZeroAlloc(t *testing.T) {
	e := steadyEngine(t)
	m, _ := currentOf(e, 77)
	ops := []Op{{Insert: false, M: m}, {Insert: true, M: m}}
	apply := func() {
		if err := e.Apply(ops); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	for i := 0; i < 1000; i++ { // the agenda reaches its compaction size
		apply()
	}
	before := e.Stats()
	if n := testing.AllocsPerRun(200, apply); n != 0 {
		t.Fatalf("an upsert that changes no membership allocates %v objects, want 0", n)
	}
	if after := e.Stats(); after.Emitted != before.Emitted || after.Candidates == before.Candidates {
		t.Fatalf("the measured upserts emitted deltas or stabbed nothing: %+v -> %+v", before, after)
	}
}

// TestCertFireZeroAlloc: a certificate that fires without a membership
// change (they are scheduled early, so most do) allocates nothing.
func TestCertFireZeroAlloc(t *testing.T) {
	e := steadyEngine(t)
	o := e.objects[77]
	fire := func() {
		e.arm(77, o, e.now) // due at the next Advance
		if err := e.Advance(e.now + 0.001); err != nil {
			t.Fatalf("Advance: %v", err)
		}
	}
	for i := 0; i < 1000; i++ {
		fire()
	}
	before := e.Stats()
	if n := testing.AllocsPerRun(200, fire); n != 0 {
		t.Fatalf("a certificate fire that changes no membership allocates %v objects, want 0", n)
	}
	after := e.Stats()
	if after.CertFires-before.CertFires != 201 || after.Emitted != before.Emitted { // AllocsPerRun warms up once
		t.Fatalf("the measured fires were not 201 quiet certificate fires: %+v -> %+v", before, after)
	}
}

// TestSlotReuseKeepsSubIDOrder frees two slots and reuses them, so slot
// order and id order disagree, then moves one object into and out of
// every query at once: deltas still come in SubID order.
func TestSlotReuseKeepsSubIDOrder(t *testing.T) {
	e := mustEngine(t)
	ids := make([]SubID, 0, 6)
	sub := func() {
		id, err := e.Subscribe(0, 100, 1)
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 4; i++ {
		sub()
	}
	for _, id := range []SubID{ids[1], ids[0]} {
		if err := e.Unsubscribe(id); err != nil {
			t.Fatalf("Unsubscribe: %v", err)
		}
	}
	sub()
	sub()
	live := ids[2:] // ids 3, 4, 5, 6 on slots 2, 3, 0, 1
	if e.subs[live[2]].slot > e.subs[live[0]].slot || len(e.slots) != 4 {
		t.Fatalf("slots were not reused: sub %d on slot %d, table of %d", live[2], e.subs[live[2]].slot, len(e.slots))
	}
	order := func(k Kind) {
		t.Helper()
		var got []Delta
		for _, id := range live {
			got = append(got, drain(t, e, id)...)
		}
		if len(got) != len(live) {
			t.Fatalf("%v: %d deltas, want %d", k, len(got), len(live))
		}
		for i, d := range got {
			if d.Kind != k || d.Sub != live[i] || (i > 0 && d.Seq != got[i-1].Seq+1) {
				t.Fatalf("%v: deltas %+v are not one per subscription in SubID order", k, got)
			}
		}
	}
	update(t, e, dual.Motion{OID: 9, Y0: 50})
	order(Enter)
	update(t, e, dual.Motion{OID: 9, Y0: 500})
	order(Leave)
	update(t, e, dual.Motion{OID: 9, Y0: 50})
	order(Enter)
	if err := e.Apply([]Op{{Insert: false, M: dual.Motion{OID: 9}}}); err != nil {
		t.Fatalf("Apply delete: %v", err)
	}
	order(Leave)
}

// TestChurnLeavesNothingBehind: 10 000 subscribe/unsubscribe rounds, each
// over a window length never seen before, with at most three queries live.
// Window classes are dropped when they empty, and the slot table and hit
// bitset stay the size of the live set.
func TestChurnLeavesNothingBehind(t *testing.T) {
	e := mustEngine(t)
	update(t, e, dual.Motion{OID: 1, Y0: 50})
	var live []SubID
	for i := 0; i < 10000; i++ {
		id, err := e.Subscribe(0, 100, 1+float64(i)/7)
		if err != nil {
			t.Fatalf("round %d: Subscribe: %v", i, err)
		}
		if live = append(live, id); len(live) == 3 {
			drop := i % 3 // not always the oldest: slots free out of order
			if err := e.Unsubscribe(live[drop]); err != nil {
				t.Fatalf("round %d: Unsubscribe: %v", i, err)
			}
			live = append(live[:drop], live[drop+1:]...)
		}
		if len(e.classes) != len(live) || len(e.slots) > 3 || len(e.slots)-len(e.free) != len(live) || len(e.hitBits) != 1 {
			t.Fatalf("round %d, %d live: %d classes, %d slots (%d free), %d bitset words",
				i, len(live), len(e.classes), len(e.slots), len(e.free), len(e.hitBits))
		}
	}
	for _, id := range live {
		if got := members(t, e, id); len(got) != 1 {
			t.Fatalf("sub %d lost its member: %v", id, got)
		}
		if err := e.Unsubscribe(id); err != nil {
			t.Fatalf("Unsubscribe: %v", err)
		}
	}
	if len(e.classes) != 0 {
		t.Fatalf("%d classes left, want 0", len(e.classes))
	}
	if o := e.objects[1]; len(o.member) != 0 {
		t.Fatalf("object still lists memberships %v", o.member)
	}
}
