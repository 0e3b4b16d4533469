package shard

import (
	"context"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

func testTerrain() dual.Terrain { return dual.Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66} }

func testMotion(i int) dual.Motion {
	v := 0.2 + 0.2*float64(i%7)
	if i%2 == 1 {
		v = -v
	}
	return dual.Motion{OID: dual.OID(i + 1), Y0: float64((i * 137) % 1000), V: v}
}

// TestShardOpenRecovery writes through a shard, simulates a crash by
// abandoning the WALStore (no Close, so nothing is checkpointed), reopens
// the surviving base+log, and checks the recovered shard answers
// byte-identically and enumerates the exact motion multiset.
func TestShardOpenRecovery(t *testing.T) {
	cfg := Config{ID: 3, Terrain: testTerrain(), PageSize: 512}
	base := pager.NewMemStore(512)
	log := pager.NewMemLog()
	s, err := Open(cfg, base, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ops []Op
	for i := 0; i < 200; i++ {
		ops = append(ops, Op{Insert: true, M: testMotion(i)})
	}
	if err := s.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	// Delete a few, then update (delete+insert) a few more, across several
	// batches so the catalog sees multi-batch history.
	for i := 0; i < 30; i += 3 {
		if err := s.Apply(ctx, []Op{{Insert: false, M: testMotion(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 100; i < 110; i++ {
		m := testMotion(i)
		upd := m
		upd.T0 = 50
		upd.Y0 += 3
		err := s.Apply(ctx, []Op{{Insert: false, M: m}, {Insert: true, M: upd}})
		if err != nil {
			t.Fatal(err)
		}
	}
	wantLen := s.Len()
	wantMs, err := s.Motions()
	if err != nil {
		t.Fatal(err)
	}
	if len(wantMs) != wantLen {
		t.Fatalf("catalog enumerates %d motions, index holds %d", len(wantMs), wantLen)
	}
	q := dual.MORQuery{Y1: 100, Y2: 600, T1: 10, T2: 60}
	want, err := s.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	// Crash: drop the shard without closing; reopen over surviving media.
	s2, err := Open(cfg, base, pager.NewMemLogFrom(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != wantLen {
		t.Fatalf("recovered Len = %d, want %d", s2.Len(), wantLen)
	}
	got, err := s2.Query(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered query: %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("recovered query: result %d = %d, want %d", i, got[i], want[i])
		}
	}
	gotMs, err := s2.Motions()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMs) != len(wantMs) {
		t.Fatalf("recovered catalog: %d motions, want %d", len(gotMs), len(wantMs))
	}
	for i := range gotMs {
		if gotMs[i] != wantMs[i] {
			t.Fatalf("recovered catalog: motion %d = %+v, want %+v", i, gotMs[i], wantMs[i])
		}
	}

	// The recovered shard stays writable.
	if err := s2.Apply(ctx, []Op{{Insert: true, M: dual.Motion{OID: 9999, Y0: 1, V: 0.5}}}); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != wantLen+1 {
		t.Fatalf("post-recovery insert: Len = %d, want %d", s2.Len(), wantLen+1)
	}
}

// TestShardBulkLoadRecovery checks the catalog rewrite path: BulkLoad
// replaces contents, then a crash-reopen must recover exactly the bulk
// image (and the catalog must have compacted to plain inserts).
func TestShardBulkLoadRecovery(t *testing.T) {
	cfg := Config{ID: 0, Terrain: testTerrain(), PageSize: 512}
	base := pager.NewMemStore(512)
	log := pager.NewMemLog()
	s, err := Open(cfg, base, log)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var first []Op
	for i := 0; i < 50; i++ {
		first = append(first, Op{Insert: true, M: testMotion(i)})
	}
	if err := s.Apply(ctx, first); err != nil {
		t.Fatal(err)
	}
	var bulk []dual.Motion
	for i := 200; i < 320; i++ {
		bulk = append(bulk, testMotion(i))
	}
	if err := s.BulkLoad(ctx, bulk); err != nil {
		t.Fatal(err)
	}
	if s.cat.records != len(bulk) || s.cat.live != len(bulk) {
		t.Fatalf("catalog after bulk: records=%d live=%d, want both %d",
			s.cat.records, s.cat.live, len(bulk))
	}

	s2, err := Open(cfg, base, pager.NewMemLogFrom(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(bulk) {
		t.Fatalf("recovered Len = %d, want %d", s2.Len(), len(bulk))
	}
	ms, err := s2.Motions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(bulk) {
		t.Fatalf("recovered catalog: %d motions, want %d", len(ms), len(bulk))
	}
}

// TestCatalogCompaction drives enough deletes through a shard that the
// catalog's dead-record threshold trips, and checks the log shrinks while
// the live multiset is preserved.
func TestCatalogCompaction(t *testing.T) {
	cfg := Config{ID: 0, Terrain: testTerrain(), PageSize: 512}
	s, err := openMem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	// Insert 40, then churn: delete+reinsert the same handful many times.
	var ops []Op
	for i := 0; i < 40; i++ {
		ops = append(ops, Op{Insert: true, M: testMotion(i)})
	}
	if err := s.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 40; round++ {
		m := testMotion(round % 5)
		err := s.Apply(ctx, []Op{{Insert: false, M: m}, {Insert: true, M: m}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if dead := s.cat.records - s.cat.live; dead > s.cat.live+64 {
		t.Fatalf("catalog never compacted: records=%d live=%d", s.cat.records, s.cat.live)
	}
	if s.cat.live != 40 || s.Len() != 40 {
		t.Fatalf("live=%d Len=%d, want 40/40", s.cat.live, s.Len())
	}
	ms, err := s.Motions()
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 40 {
		t.Fatalf("Motions() = %d, want 40", len(ms))
	}
}
