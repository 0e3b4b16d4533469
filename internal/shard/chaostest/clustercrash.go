// Cluster crash sweep: the durability half of the chaos harness. Where
// chaostest.go proves the serving contract under storage faults, this
// file proves the lifecycle contract under power loss: a cluster killed
// at ANY write/sync boundary of a live migration — mid receiver
// bulk-load, before the manifest flip, after it, mid source retire —
// reboots into exactly one manifest-proven topology (never a mix),
// answers the full oracle byte-identically from there, and finishes the
// interrupted migration idempotently.
//
// The machinery mirrors pager/crashtest's sweep: every shard store, every
// log and the manifest are pager.FileStores and pager.FileLogs over
// crashtest.Files of one crashtest.Media — one machine, so one crash stops
// them all. A recording run with no budget counts the crash points the
// migration consumes; the sweep then replays the workload once per point
// per crash mode, reboots onto the survivor bytes, and checks recovery.
package chaostest

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/pager/crashtest"
	"mobidx/internal/shard"
)

// crashEnv is a shard.Env over crashtest files. All of them share one
// crashtest.Media — one simulated machine — so a single crash point kills
// shards and manifest together, exactly like pulling the plug.
type crashEnv struct {
	m        *crashtest.Media
	pageSize int

	mu    sync.Mutex
	files map[string][2]*crashtest.File // pages, log
}

func newCrashEnv(m *crashtest.Media, pageSize int) *crashEnv {
	return &crashEnv{m: m, pageSize: pageSize, files: make(map[string][2]*crashtest.File)}
}

// OpenMedia implements shard.Env: a FileStore and a FileLog over the
// name's files, which the first touch provisions empty.
func (e *crashEnv) OpenMedia(name string) (shard.Media, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	f, ok := e.files[name]
	if !ok {
		f = [2]*crashtest.File{crashtest.NewFile(e.m), crashtest.NewFile(e.m)}
		e.files[name] = f
	}
	base, err := pager.OpenFileStoreOn(f[0], e.pageSize)
	if err != nil {
		return shard.Media{}, err
	}
	log, err := pager.OpenFileLogOn(f[1])
	if err != nil {
		return shard.Media{}, err
	}
	return shard.Media{Base: base, Log: log}, nil
}

// DropMedia implements shard.Env.
func (e *crashEnv) DropMedia(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.files, name)
	return nil
}

// reboot returns the environment a restarted machine finds: each file's
// survivor image per the crash mode, on fresh never-crashing media.
func (e *crashEnv) reboot(m *crashtest.Media) *crashEnv {
	e.mu.Lock()
	defer e.mu.Unlock()
	r := newCrashEnv(m, e.pageSize)
	for name, f := range e.files {
		r.files[name] = [2]*crashtest.File{f[0].Survivor(m), f[1].Survivor(m)}
	}
	return r
}

// Recovery states a killed migration can reboot into. The sweep requires
// every one of them to be observed — proof that the enumerated crash
// points actually cover all four kill windows (before the prepare record,
// mid receiver load, between flip and retire, and after completion).
const (
	RecoveredOld      = "old"      // pre-prepare: old topology, no migration record
	RecoveredPrepared = "prepared" // receiver invisible, old topology serves
	RecoveredFlipped  = "flipped"  // new topology published, source not yet trimmed
	RecoveredDone     = "done"     // migration fully retired
)

// RecoveryStates lists every legal post-crash state in lifecycle order.
var RecoveryStates = []string{RecoveredOld, RecoveredPrepared, RecoveredFlipped, RecoveredDone}

// crashClusterConfig pins the sweep to a single-worker executor: tasks
// run sequentially on the calling goroutine, so the I/O sequence — and
// therefore the crash-point numbering — is identical on every run.
func crashClusterConfig() shard.ClusterConfig {
	return shard.ClusterConfig{Terrain: terrain, PageSize: PageSize, Exec: core.NewExecutor(1)}
}

// RunClusterCrashSweep kills an nShards-cluster at every crash point of a
// live band split under the given crash mode, reboots, and checks the
// lifecycle contract at each point. It returns how often each recovery
// state was observed (the caller asserts full coverage) and the first
// violation found.
func RunClusterCrashSweep(nShards int, mode crashtest.Mode) (map[string]int, error) {
	ctx := context.Background()
	ms := motions(64)
	band := nShards / 2
	lo := terrain.YMax * float64(band) / float64(nShards)
	hi := terrain.YMax * float64(band+1) / float64(nShards)
	cut := (lo + hi) / 2
	want := exactAnswers(ms)
	// One post-recovery write, landing in the receiver's half of the split
	// band, proves the healed cluster routes writes under the new topology.
	extra := dual.Motion{OID: 9999, Y0: cut, T0: 0, V: 0.5}
	want2 := exactAnswers(append(append([]dual.Motion{}, ms...), extra))

	// Recording run: no budget, count the crash points the migration spans.
	rec := crashtest.NewMedia(mode, 0)
	c, err := shard.OpenCluster(newCrashEnv(rec, PageSize), crashClusterConfig(), nShards)
	if err != nil {
		return nil, fmt.Errorf("record open: %w", err)
	}
	if err := c.BulkLoad(ctx, ms); err != nil {
		return nil, fmt.Errorf("record load: %w", err)
	}
	preludePoints := rec.Points()
	if err := c.Split(ctx, band, cut); err != nil {
		return nil, fmt.Errorf("record split: %w", err)
	}
	splitPoints := rec.Points()
	if err := c.Close(); err != nil {
		return nil, fmt.Errorf("record close: %w", err)
	}
	if splitPoints <= preludePoints {
		return nil, fmt.Errorf("split consumed no crash points (%d..%d)", preludePoints, splitPoints)
	}

	// Sweep: one replay per crash point inside the migration, plus one
	// more whose crash lands in Close — the migration completes durably,
	// covering the "done" recovery state.
	seen := make(map[string]int)
	for budget := preludePoints + 1; budget <= splitPoints+1; budget++ {
		if err := runClusterCrashPoint(nShards, mode, budget, preludePoints, ms, band, cut, want, extra, want2, seen); err != nil {
			return seen, fmt.Errorf("%s budget %d: %w", mode, budget, err)
		}
	}
	return seen, nil
}

// runClusterCrashPoint replays the workload until the budget-th crash
// point kills the machine, reboots on the survivor bytes, and verifies:
// exactly one recovered topology, oracle-exact answers, idempotent
// completion of the migration, and post-recovery writability.
func runClusterCrashPoint(nShards int, mode crashtest.Mode, budget, preludePoints int,
	ms []dual.Motion, band int, cut float64,
	want [][]dual.OID, extra dual.Motion, want2 [][]dual.OID, seen map[string]int) error {
	ctx := context.Background()
	m := crashtest.NewMedia(mode, budget)
	env := newCrashEnv(m, PageSize)
	c, err := shard.OpenCluster(env, crashClusterConfig(), nShards)
	if err != nil {
		return fmt.Errorf("pre-crash open: %w", err)
	}
	if err := c.BulkLoad(ctx, ms); err != nil {
		return fmt.Errorf("pre-crash load: %w", err)
	}
	if got := m.Points(); got != preludePoints {
		return fmt.Errorf("nondeterministic workload: %d points after load, recorded %d", got, preludePoints)
	}
	if err := c.Split(ctx, band, cut); err != nil && !m.Crashed() {
		return fmt.Errorf("split failed without crashing: %w", err)
	}
	// A dead machine's Close fails with ErrCrash; that is the crash, not a
	// finding. A close failure on a live machine is a real bug.
	if err := c.Close(); err != nil && !m.Crashed() {
		return fmt.Errorf("close failed without crashing: %w", err)
	}

	// Reboot onto the survivor bytes and verify.
	env2 := env.reboot(crashtest.NewMedia(mode, 0))
	c2, err := shard.OpenCluster(env2, crashClusterConfig(), nShards)
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	verr := func() error {
		bands, epoch := c2.Bands(), c2.Epoch()
		mig, pending := c2.PendingMigration()
		var state string
		switch {
		case bands == nShards && epoch == 1 && !pending:
			state = RecoveredOld
		case bands == nShards && epoch == 1 && pending && !mig.Flipped:
			state = RecoveredPrepared
		case bands == nShards+1 && epoch == 2 && pending && mig.Flipped:
			state = RecoveredFlipped
		case bands == nShards+1 && epoch == 2 && !pending:
			state = RecoveredDone
		default:
			return fmt.Errorf("mixed topology recovered: %d bands, epoch %d, migration %+v (pending %v)",
				bands, epoch, mig, pending)
		}
		seen[state]++
		if pending && (mig.Band != band || mig.Cut != cut) {
			return fmt.Errorf("recovered migration %+v, want band %d cut %v", mig, band, cut)
		}
		// Whatever step died, the recovered cluster answers the full oracle
		// byte-identically: pre-flip the receiver is invisible, post-flip
		// the untrimmed source is a harmless superset the merge dedups.
		if err := checkExact(ctx, c2, want, "recovered ("+state+")"); err != nil {
			return err
		}
		// Finish the job: resume the recovered migration, or redo the
		// split when the crash preceded even the prepare record.
		if pending {
			if err := c2.ResumeMigration(ctx); err != nil {
				return fmt.Errorf("resume from %s: %w", state, err)
			}
		} else if bands == nShards {
			if err := c2.Split(ctx, band, cut); err != nil {
				return fmt.Errorf("re-split: %w", err)
			}
		}
		if got := c2.Bands(); got != nShards+1 {
			return fmt.Errorf("bands after resume = %d, want %d", got, nShards+1)
		}
		if got := c2.Epoch(); got != 2 {
			return fmt.Errorf("epoch after resume = %d, want 2", got)
		}
		if _, p := c2.PendingMigration(); p {
			return errors.New("migration still pending after resume")
		}
		if err := checkExact(ctx, c2, want, "resumed"); err != nil {
			return err
		}
		if err := c2.Apply(ctx, []shard.Op{{Insert: true, M: extra}}); err != nil {
			return fmt.Errorf("post-recovery write: %w", err)
		}
		return checkExact(ctx, c2, want2, "post-recovery write")
	}()
	return errors.Join(verr, c2.Close())
}
