package chaostest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/pager/crashtest"
	"mobidx/internal/shard"
)

// TestClusterBitFlipSweep is the media-corruption sweep of the served
// stack: a two-band cluster on FileStores and FileLogs is loaded, updated
// and closed, and then, for every slot of one shard's pages file, one
// seeded byte of the slot's page and one of its trailer are flipped in
// turn. Each flip is a reboot onto the damaged file and the package query
// set, and must end one of two ways: an error wrapping ErrPageCorrupt or
// ErrBadMeta — at open, or as a PartialError naming only the damaged band
// while the other band's answer stays exact — or answers equal to the
// brute-force oracle. A wrong answer with no error fails the sweep.
func TestClusterBitFlipSweep(t *testing.T) {
	const slot = PageSize + 4 // a FileStore slot: the page, then its CRC-32C
	ctx := context.Background()
	cfg := shard.ClusterConfig{Terrain: terrain, PageSize: PageSize, Exec: core.NewExecutor(1)}

	// Build: a bulk load, then a third of the population moved, so the
	// file holds freed pages and a free-list beside the live ones.
	ms := motions(240)
	env := newCrashEnv(crashtest.NewMedia(crashtest.KeepAll, 0), PageSize)
	c, err := shard.OpenCluster(env, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	var ops []shard.Op
	for i := 0; i < len(ms); i += 3 {
		ops = append(ops, shard.Op{M: ms[i]})
		ms[i].Y0 = float64((i*211 + 37) % 1000)
		ops = append(ops, shard.Op{Insert: true, M: ms[i]})
	}
	if err := c.Apply(ctx, ops); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	part, err := shard.NewPartitioner(terrain.YMax, 2)
	if err != nil {
		t.Fatal(err)
	}
	const damaged = 0 // band 0 is served by store 0
	want := exactAnswers(ms)
	wantDegraded := make([][]dual.OID, len(queries))
	for i, q := range queries {
		wantDegraded[i] = bruteForce(part, ms, q, map[int]bool{damaged: true})
	}

	name := fmt.Sprintf("shard-%d", damaged)
	size, err := env.files[name][0].Seek(0, io.SeekEnd)
	if err != nil {
		t.Fatal(err)
	}
	if size%slot != 0 || size < 8*slot {
		t.Fatalf("pages file of %d bytes is not a run of %d-byte slots", size, slot)
	}
	rng := rand.New(rand.NewSource(1999))
	outcomes := make(map[string]int)
	for s := int64(0); s < size/slot; s++ {
		for _, region := range []struct {
			name    string
			at, len int
		}{{"page", 0, PageSize}, {"trailer", PageSize, slot - PageSize}} {
			off := s*slot + int64(region.at+rng.Intn(region.len))
			mask := byte(1 + rng.Intn(255))
			outcome, err := flipAndServe(ctx, env, cfg, name, off, mask, want, wantDegraded, damaged)
			if err != nil {
				t.Fatalf("slot %d %s, byte %d ^ %#x: %v", s, region.name, off, mask, err)
			}
			outcomes[outcome]++
		}
	}
	t.Logf("%d slots, %d flips: %v", size/slot, 2*size/slot, outcomes)
	if outcomes["open"]+outcomes["partial"] == 0 {
		t.Fatal("no flip was detected; the sweep is vacuous")
	}
}

// flipAndServe reboots env with byte off of name's pages file XORed by
// mask, opens the cluster and runs the query set. It reports how the run
// ended — "open" (refused at open), "partial" (the damaged band refused
// at least one query) or "exact" — or the violation it found.
func flipAndServe(ctx context.Context, env *crashEnv, cfg shard.ClusterConfig, name string, off int64, mask byte,
	want, wantDegraded [][]dual.OID, damaged int) (string, error) {
	env2 := env.reboot(crashtest.NewMedia(crashtest.KeepAll, 0))
	f := env2.files[name][0]
	b := []byte{0}
	if _, err := f.ReadAt(b, off); err != nil {
		return "", err
	}
	b[0] ^= mask
	if _, err := f.WriteAt(b, off); err != nil {
		return "", err
	}
	detected := func(err error) bool {
		return errors.Is(err, pager.ErrPageCorrupt) || errors.Is(err, pager.ErrBadMeta)
	}
	c, err := shard.OpenCluster(env2, cfg, 2)
	if err != nil {
		if !detected(err) {
			return "", fmt.Errorf("open failed, neither ErrPageCorrupt nor ErrBadMeta: %w", err)
		}
		return "open", nil
	}
	outcome := "exact"
	verr := func() error {
		for i, q := range queries {
			got, err := c.Query(ctx, q)
			var pe *shard.PartialError
			switch {
			case err == nil:
				if !sameOIDs(got, want[i]) {
					return fmt.Errorf("query %d: a wrong answer with no error: %d oids, want %d", i, len(got), len(want[i]))
				}
			case errors.As(err, &pe):
				if !slices.Equal(pe.Missing, []int{damaged}) || !detected(err) {
					return fmt.Errorf("query %d: %w, want band %d missing with ErrPageCorrupt", i, err, damaged)
				}
				if !sameOIDs(got, wantDegraded[i]) {
					return fmt.Errorf("query %d: degraded answer %d oids, want the healthy band's %d", i, len(got), len(wantDegraded[i]))
				}
				outcome = "partial"
			default:
				return fmt.Errorf("query %d: %w, want a PartialError", i, err)
			}
		}
		return nil
	}()
	return outcome, errors.Join(verr, c.Close())
}
