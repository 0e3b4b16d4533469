package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"mobidx/internal/pager"
	"mobidx/internal/shard"
)

// replayOn sets a short-scale deployment up in a fresh directory, with or
// without probes, replays the script on it and returns the answers'
// digests and every store's counters.
func replayOn(t *testing.T, sp *spec, s *script, rec *recorder) ([]uint64, map[int]pager.Stats, []pager.Stats) {
	t.Helper()
	ctx := context.Background()
	dep, subs, err := setUp(ctx, sp, shortScale, t.TempDir(), s.initial, s.scn.fences(), rec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := play(ctx, dep, s, subs, rec)
	if err != nil {
		t.Fatal(err)
	}
	wals := make(map[int]pager.Stats)
	for id, w := range dep.wals {
		wals[id] = w.Stats()
	}
	var bases []pager.Stats
	for _, b := range dep.env.bases {
		bases = append(bases, b.Stats())
	}
	if err := dep.close(); err != nil {
		t.Fatal(err)
	}
	return out.digests, wals, bases
}

// The probes must not change what they measure: the same seeded ops give
// byte-identical answers and identical pager.Stats at the WAL and at the
// FileStore, with and without probes at every boundary.
func TestProbedStackMatchesBare(t *testing.T) {
	for _, name := range []string{"mixed_direct", "mixed_ingest", "split_recover"} {
		t.Run(name, func(t *testing.T) {
			sp, err := specByName(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := newScript(sp, shortScale, 7)
			if err != nil {
				t.Fatal(err)
			}
			bareDigests, bareWALs, bareBases := replayOn(t, sp, s, nil)
			rec := newRecorder()
			probedDigests, probedWALs, probedBases := replayOn(t, sp, s, rec)
			if len(rec.spans) == 0 || len(rec.open) != 0 {
				t.Fatalf("recorder holds %d spans, %d still open", len(rec.spans), len(rec.open))
			}
			if len(bareDigests) == 0 || len(bareDigests) != len(probedDigests) {
				t.Fatalf("%d answers bare, %d probed", len(bareDigests), len(probedDigests))
			}
			for i := range bareDigests {
				if bareDigests[i] != probedDigests[i] {
					t.Fatalf("query %d answered differently under probes", i)
				}
			}
			if len(bareWALs) != len(probedWALs) || len(bareBases) != len(probedBases) {
				t.Fatalf("store counts differ: %d/%d WALs, %d/%d bases",
					len(bareWALs), len(probedWALs), len(bareBases), len(probedBases))
			}
			for id, st := range bareWALs {
				if probedWALs[id] != st {
					t.Errorf("store %d WAL stats: bare %+v, probed %+v", id, st, probedWALs[id])
				}
			}
			for i, st := range bareBases {
				if probedBases[i] != st {
					t.Errorf("base %d stats: bare %+v, probed %+v", i, st, probedBases[i])
				}
			}
		})
	}
}

// A probe that drops an optional capability silently changes the program
// under it; each one must reach the store below.
func TestStoreProbeForwardsCapabilities(t *testing.T) {
	rec := newRecorder()
	mem := pager.NewMemStore(pageSize)
	p := newStoreProbe(rec, "test", mem)
	pg, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pg.Data[0] = 42
	if err := p.Write(pg); err != nil {
		t.Fatal(err)
	}

	// Viewer: the store's own image, not a copy.
	var store pager.Store = p
	if _, ok := store.(pager.Viewer); !ok {
		t.Fatal("probe hides pager.Viewer")
	}
	own, err := mem.View(pg.ID)
	if err != nil {
		t.Fatal(err)
	}
	through, err := pager.ViewBytes(p, pg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if &own[0] != &through[0] {
		t.Error("View through the probe copied the page")
	}

	// Adopter and the counters.
	if err := p.Adopt(pg.ID + 1); err != nil {
		t.Errorf("adopt: %v", err)
	}
	if err := p.Disown(pg.ID + 1); err != nil {
		t.Errorf("disown: %v", err)
	}
	if p.Stats() != mem.Stats() || p.PagesInUse() != mem.PagesInUse() || p.PageSize() != mem.PageSize() {
		t.Error("probe reports other counters than the store under it")
	}

	// Batcher and Syncer: a rolled-back batch through two probes around a
	// WAL on a real file leaves no trace, a committed one survives.
	dir := t.TempDir()
	fs, err := pager.NewFileStore(filepath.Join(dir, "t.pages"), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	log, err := pager.OpenFileLog(filepath.Join(dir, "t.log"))
	if err != nil {
		t.Fatal(err)
	}
	base := newStoreProbe(rec, "filestore", fs)
	wal, err := pager.OpenWALStore(base, newLogProbe(rec, "filelog", log), pager.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	top := newStoreProbe(rec, "wal", wal)
	boom := errors.New("boom")
	var lost pager.PageID
	err = pager.RunBatch(top, func() error {
		pg, err := top.Allocate()
		if err != nil {
			return err
		}
		lost = pg.ID
		if err := top.Write(pg); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("batch error = %v", err)
	}
	if _, err := top.Read(lost); !errors.Is(err, pager.ErrPageNotFound) {
		t.Errorf("rolled-back page still readable: %v", err)
	}
	var kept pager.PageID
	if err := pager.RunBatch(top, func() error {
		pg, err := top.Allocate()
		if err != nil {
			return err
		}
		kept = pg.ID
		pg.Data[0] = 9
		return top.Write(pg)
	}); err != nil {
		t.Fatal(err)
	}
	syncs := 0
	for _, s := range rec.spans {
		if rec.names[s.Name] == "filelog.sync" {
			syncs++
		}
	}
	if syncs == 0 {
		t.Error("commit did not sync the log through the probe")
	}
	if err := wal.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	baseSyncs := 0
	for _, s := range rec.spans {
		if rec.names[s.Name] == "filestore.sync" {
			baseSyncs++
		}
	}
	if baseSyncs == 0 {
		t.Error("checkpoint did not sync the base store through the probe")
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(kept); !errors.Is(err, pager.ErrStoreClosed) {
		t.Errorf("Close did not reach the file store: %v", err)
	}
	if len(rec.open) != 0 {
		t.Errorf("%d spans left open", len(rec.open))
	}
}

func TestMediaEnvDelegates(t *testing.T) {
	dir := t.TempDir()
	dirEnv, err := shard.NewDirEnv(dir, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	env := &mediaEnv{under: dirEnv, rec: newRecorder()}
	m, err := env.OpenMedia("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Base.(*storeProbe); !ok {
		t.Errorf("base is %T, want a probe", m.Base)
	}
	if _, ok := m.Log.(*logProbe); !ok {
		t.Errorf("log is %T, want a probe", m.Log)
	}
	if err := m.Log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := env.closeBases(); err != nil {
		t.Fatal(err)
	}
	if err := env.DropMedia("x"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"x.pages", "x.log"} {
		if _, err := os.Stat(filepath.Join(dir, f)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived DropMedia: %v", f, err)
		}
	}
}
