package core

import (
	"context"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// TestDualBPlusAttachRoundTrip builds an index over a WAL-backed store,
// closes and reopens the store (replaying the log), reattaches from Meta,
// and checks every query answers byte-identically — the exact sequence
// the sharded serving layer's crash recovery performs.
func TestDualBPlusAttachRoundTrip(t *testing.T) {
	tr := dual.Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66}
	cfg := DualBPlusConfig{Terrain: tr, C: 4, Codec: bptree.Wide}
	base := pager.NewMemStore(512)
	log := pager.NewMemLog()
	wal, err := pager.OpenWALStore(base, log, pager.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewDualBPlus(wal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ms []dual.Motion
	for i := 0; i < 300; i++ {
		v := 0.2 + 0.2*float64(i%7)
		if i%2 == 1 {
			v = -v
		}
		// Spread updates across two rotation epochs (period = YMax/VMin =
		// 6250) so Attach exercises multi-generation metadata.
		t0 := float64(i % 2 * 7000)
		m := dual.Motion{OID: dual.OID(i + 1), Y0: float64((i * 137) % 1000), T0: t0, V: v}
		ms = append(ms, m)
	}
	err = pager.RunBatch(wal, func() error {
		for _, m := range ms {
			if err := ix.Insert(m); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	meta := ix.Meta()
	if len(meta.Gens) < 2 {
		t.Fatalf("want >= 2 generations, got %d", len(meta.Gens))
	}

	queries := []dual.MORQuery{
		{Y1: 0, Y2: 1000, T1: 0, T2: 5},
		{Y1: 100, Y2: 300, T1: 10, T2: 40},
		{Y1: 450, Y2: 480, T1: 100, T2: 150},
		{Y1: 700, Y2: 900, T1: 6990, T2: 7060},
	}
	exec := NewExecutor(1)
	var want [][]dual.OID
	for _, q := range queries {
		res, err := ix.QueryParallelCtx(context.Background(), exec, q)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	// Simulated restart: close the WAL, reopen over the surviving base
	// and log, reattach from the metadata snapshot.
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	wal2, err := pager.OpenWALStore(base, pager.NewMemLogFrom(log.Bytes()), pager.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := AttachDualBPlus(wal2, cfg, meta)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != len(ms) {
		t.Fatalf("attached Len = %d, want %d", ix2.Len(), len(ms))
	}
	if ix2.Generations() != len(meta.Gens) {
		t.Fatalf("attached generations = %d, want %d", ix2.Generations(), len(meta.Gens))
	}
	for i, q := range queries {
		res, err := ix2.QueryParallelCtx(context.Background(), exec, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != len(want[i]) {
			t.Fatalf("query %d: %d results after attach, want %d", i, len(res), len(want[i]))
		}
		for j := range res {
			if res[j] != want[i][j] {
				t.Fatalf("query %d: result %d = %d, want %d", i, j, res[j], want[i][j])
			}
		}
	}

	// The attached index stays mutable: delete + reinsert keep working.
	if err := ix2.Delete(ms[0]); err != nil {
		t.Fatal(err)
	}
	if err := ix2.Insert(ms[0]); err != nil {
		t.Fatal(err)
	}

	// Corrupt metadata is rejected at attach time, not query time.
	bad := ix2.Meta()
	bad.Gens[0].Pos[0].Root = 999999
	if _, err := AttachDualBPlus(wal2, cfg, bad); err == nil {
		t.Fatal("attach with bogus root succeeded")
	}
	if err := wal2.Close(); err != nil {
		t.Fatal(err)
	}
}
