package subscribe

import (
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/dual"
)

func TestAgendaOrdering(t *testing.T) {
	a := newAgenda()
	evs := []event{
		{Time: 3, OID: 1, Ver: 1},
		{Time: 1, OID: 9, Ver: 2},
		{Time: 1, OID: 2, Ver: 7},
		{Time: 1, OID: 2, Ver: 3},
		{Time: 2, OID: 5, Ver: 1},
	}
	for _, ev := range evs {
		a.Push(ev)
	}
	want := []event{
		{Time: 1, OID: 2, Ver: 3},
		{Time: 1, OID: 2, Ver: 7},
		{Time: 1, OID: 9, Ver: 2},
		{Time: 2, OID: 5, Ver: 1},
		{Time: 3, OID: 1, Ver: 1},
	}
	for i, w := range want {
		ev, ok := a.PopDue(10)
		if !ok || ev != w {
			t.Fatalf("pop %d: got %v ok=%v, want %v", i, ev, ok, w)
		}
	}
	if _, ok := a.PopDue(10); ok {
		t.Fatalf("pop from empty agenda succeeded")
	}
}

func TestAgendaPopDueRespectsNow(t *testing.T) {
	a := newAgenda()
	a.Push(event{Time: 5, OID: 1})
	a.Push(event{Time: 2, OID: 2})
	if ev, ok := a.PopDue(3); !ok || ev.OID != 2 {
		t.Fatalf("got %v ok=%v, want OID 2", ev, ok)
	}
	if ev, ok := a.PopDue(3); ok {
		t.Fatalf("popped future event %v", ev)
	}
	if ev, ok := a.Min(); !ok || ev.OID != 1 {
		t.Fatalf("min: got %v ok=%v", ev, ok)
	}
	if ev, ok := a.PopDue(5); !ok || ev.OID != 1 {
		t.Fatalf("got %v ok=%v, want OID 1", ev, ok)
	}
}

func TestAgendaRandomAgainstSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := newAgenda()
	var ref []event
	for i := 0; i < 500; i++ {
		ev := event{
			Time: float64(rng.Intn(50)),
			OID:  dual.OID(rng.Intn(20)),
			Ver:  uint64(rng.Intn(5)),
		}
		a.Push(ev)
		ref = append(ref, ev)
	}
	sort.Slice(ref, func(i, j int) bool { return eventLess(ref[i], ref[j]) })
	for i, w := range ref {
		ev, ok := a.PopDue(1e9)
		if !ok || ev != w {
			t.Fatalf("pop %d: got %v ok=%v, want %v", i, ev, ok, w)
		}
	}
	if a.Len() != 0 {
		t.Fatalf("agenda not drained: %d left", a.Len())
	}
}

func TestAgendaCompact(t *testing.T) {
	a := newAgenda()
	for i := 0; i < 100; i++ {
		a.Push(event{Time: float64(i), OID: dual.OID(i), Ver: uint64(i % 2)})
	}
	a.Compact(func(ev event) bool { return ev.Ver == 1 })
	if a.Len() != 50 {
		t.Fatalf("compact kept %d, want 50", a.Len())
	}
	prev := -1.0
	for {
		ev, ok := a.PopDue(1e9)
		if !ok {
			break
		}
		if ev.Ver != 1 {
			t.Fatalf("stale event survived compact: %v", ev)
		}
		if ev.Time < prev {
			t.Fatalf("heap order broken after compact: %v after %v", ev.Time, prev)
		}
		prev = ev.Time
	}
}

// TestAgendaPopOrderIgnoresPushOrder: eventLess is a total order on
// (Time, OID, Ver), so the pop sequence is a function of the set of
// events alone. The subscription engine relies on it when it arms
// certificates while ranging over a map.
func TestAgendaPopOrderIgnoresPushOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	evs := make([]event, 0, 600)
	for oid := dual.OID(0); oid < 200; oid++ {
		for ver := uint64(1); ver <= 3; ver++ {
			evs = append(evs, event{Time: float64(rng.Intn(5)), OID: oid, Ver: ver}) // many ties on Time
		}
	}
	popAll := func() []event {
		a := newAgenda()
		for _, ev := range evs {
			a.Push(ev)
		}
		out := make([]event, 0, len(evs))
		for {
			ev, ok := a.PopDue(10)
			if !ok {
				return out
			}
			out = append(out, ev)
		}
	}
	want := popAll()
	for round := 0; round < 5; round++ {
		rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
		got := popAll()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: pop %d is %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}
