package subscribe_test

import (
	"testing"

	"mobidx/internal/subscribe"
	"mobidx/internal/workload"
)

// BenchmarkFeedTick is one feed tick of the subscribe_feed workload with
// the engine alone: 2 000 commuters under 1 000 standing geofences, the
// tick's updates applied, the clock advanced, every fence drained.
func BenchmarkFeedTick(b *testing.B) {
	sim, err := workload.NewGeofenceSim(workload.DefaultGeofenceParams(2000, 1000))
	if err != nil {
		b.Fatal(err)
	}
	eng, err := subscribe.New(subscribe.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	var pend []subscribe.Op
	feed := func(op workload.Op) error {
		pend = append(pend, subscribe.Op{Insert: op.Insert, M: op.Motion})
		return nil
	}
	if err := sim.Bootstrap(feed); err != nil {
		b.Fatal(err)
	}
	if err := eng.Apply(pend); err != nil {
		b.Fatal(err)
	}
	ids := make([]subscribe.SubID, 0, 1000)
	for _, f := range sim.Fences() {
		id, err := eng.Subscribe(f.Y1, f.Y2, f.Window)
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	deltas := 0
	drain := func() {
		for _, id := range ids {
			ds, err := eng.Drain(id)
			if err != nil {
				b.Fatal(err)
			}
			deltas += len(ds)
		}
	}
	drain() // the initial members, not a tick's deltas
	deltas = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pend = pend[:0]
		if err := sim.Tick(feed); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := eng.Apply(pend); err != nil {
			b.Fatal(err)
		}
		if err := eng.Advance(sim.Now()); err != nil {
			b.Fatal(err)
		}
		drain()
	}
	b.ReportMetric(float64(deltas)/float64(b.N), "deltas/tick")
}
