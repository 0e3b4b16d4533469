// Ingest crash sweep: power-loss coverage for the log-structured write
// tier. A single ingest shard runs a deterministic update workload sized
// so the delta reaches the tier's FoldOps bound and folds into the base
// index several times; the sweep then kills the machine at EVERY write/sync
// boundary that workload consumes — including the ones inside a fold's
// catalog rewrite — under each crash mode, reboots onto the survivor
// bytes, and requires:
//
//  1. recovery is empty-or-complete at an Apply-batch boundary: the
//     recovered motion set equals the state after exactly the committed
//     batches, or after the one batch in flight — never a torn run, never
//     a base/watermark mix (shard.Open's internal consistency checks make
//     a torn state an open error, which the sweep treats as a violation);
//  2. the recovered shard answers the package queries oracle-exactly,
//     whether the delta suffix was replayed into the tier or the crash landed
//     on a freshly merged (delta-free) image — the sweep asserts both
//     recovery shapes are observed;
//  3. the recovered shard keeps ingesting, and enough fresh writes push
//     it through another fold.
package chaostest

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"mobidx/internal/dual"
	"mobidx/internal/pager/crashtest"
	"mobidx/internal/shard"
)

// ingestCrashConfig keeps the fold bound tiny so the short workload folds
// three times and ends with a delta staged (16, 16, 14 + 6, then 12 ops),
// putting crash points inside the interesting windows.
func ingestCrashConfig() shard.Config {
	return shard.Config{
		Terrain:  terrain,
		PageSize: PageSize,
		Ingest:   &shard.IngestConfig{FoldOps: 16},
	}
}

// ingestCrashBatches is the deterministic workload: insert batches
// covering the population, then update batches that move existing objects
// (delete-exact + insert, the tier's upsert discipline). All motions keep
// T0 = 0 so every package query stays in the model-conformant regime the
// tier's differential contract covers. The second result is the shadow
// oracle: states[k] is the live motion set, OID-sorted, after the first k
// batches committed.
func ingestCrashBatches() (batches [][]shard.Op, states [][]dual.Motion) {
	pop := motions(40)
	for i := 0; i < len(pop); i += 4 {
		b := make([]shard.Op, 4)
		for j := range b {
			b[j] = shard.Op{Insert: true, M: pop[i+j]}
		}
		batches = append(batches, b)
	}
	live := make(map[dual.OID]dual.Motion, len(pop))
	for _, m := range pop {
		live[m.OID] = m
	}
	for r := 0; r < 4; r++ {
		var b []shard.Op
		for k := 0; k < 3; k++ {
			id := dual.OID(1 + (r*13+k*5)%len(pop))
			old := live[id]
			upd := old
			upd.Y0 = math.Mod(old.Y0+211, terrain.YMax)
			b = append(b, shard.Op{Insert: false, M: old}, shard.Op{Insert: true, M: upd})
			live[id] = upd
		}
		batches = append(batches, b)
	}

	cur := make(map[dual.OID]dual.Motion)
	states = append(states, nil)
	for _, b := range batches {
		for _, op := range b {
			if op.Insert {
				cur[op.M.OID] = op.M
			} else {
				delete(cur, op.M.OID)
			}
		}
		states = append(states, sortedMotions(cur))
	}
	return batches, states
}

// ingestCrashExtra is the post-recovery load: fresh OIDs, 24 inserts, so
// the rebooted shard folds again whatever delta it recovered.
func ingestCrashExtra() [][]shard.Op {
	var batches [][]shard.Op
	for i := 0; i < 24; i += 4 {
		b := make([]shard.Op, 4)
		for j := range b {
			k := i + j
			b[j] = shard.Op{Insert: true, M: dual.Motion{
				OID: dual.OID(200 + k), Y0: float64((k * 211) % 1000), T0: 0,
				V: 0.25 + 0.2*float64(k%6),
			}}
		}
		batches = append(batches, b)
	}
	return batches
}

func sortedMotions(cur map[dual.OID]dual.Motion) []dual.Motion {
	out := make([]dual.Motion, 0, len(cur))
	for _, m := range cur {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OID < out[j].OID })
	return out
}

// openIngestShard opens the sweep's one shard on its media in env.
func openIngestShard(env *crashEnv, cfg shard.Config) (*shard.Shard, error) {
	m, err := env.OpenMedia("ingest")
	if err != nil {
		return nil, err
	}
	return shard.Open(cfg, m.Base, m.Log)
}

// RunIngestCrashSweep kills a single ingest shard at every crash point
// its flush workload consumes under the given mode and verifies recovery
// at each. It reports how many recoveries rebooted with a live delta
// (suffix replayed into the tier) versus onto a fully merged image (delta
// empty) — the caller asserts both shapes were exercised — and the first
// contract violation found.
func RunIngestCrashSweep(mode crashtest.Mode) (deltaRecoveries, cleanRecoveries int, err error) {
	ctx := context.Background()
	batches, states := ingestCrashBatches()
	extra := ingestCrashExtra()
	cfg := ingestCrashConfig()

	// Recording run: count the crash points the open prelude and the
	// workload consume, and prove the thresholds actually fire.
	rec := crashtest.NewMedia(mode, 0)
	s, err := openIngestShard(newCrashEnv(rec, PageSize), cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("record open: %w", err)
	}
	preludePoints := rec.Points()
	for i, b := range batches {
		if err := s.Apply(ctx, b); err != nil {
			return 0, 0, fmt.Errorf("record batch %d: %w", i, err)
		}
	}
	if st, ok := s.IngestStats(); !ok || st.Merges < 2 || st.MemLen == 0 {
		return 0, 0, fmt.Errorf("workload too small to fold twice and keep a delta: %+v", st)
	}
	if err := s.Close(); err != nil {
		return 0, 0, fmt.Errorf("record close: %w", err)
	}
	points := rec.Points()
	if points <= preludePoints {
		return 0, 0, fmt.Errorf("workload consumed no crash points (%d..%d)", preludePoints, points)
	}

	// Sweep: one replay per crash point inside the workload, plus one
	// whose budget outlives it (no crash — the fully committed image).
	for budget := preludePoints + 1; budget <= points+1; budget++ {
		delta, clean, perr := runIngestCrashPoint(ctx, mode, budget, preludePoints, cfg, batches, states, extra)
		if perr != nil {
			return deltaRecoveries, cleanRecoveries, fmt.Errorf("%s budget %d: %w", mode, budget, perr)
		}
		deltaRecoveries += delta
		cleanRecoveries += clean
	}
	return deltaRecoveries, cleanRecoveries, nil
}

// runIngestCrashPoint replays the workload until the budget-th crash
// point kills the machine, reboots, and verifies empty-or-complete
// recovery, oracle-exact answers, and continued ingest.
func runIngestCrashPoint(ctx context.Context, mode crashtest.Mode, budget, preludePoints int,
	cfg shard.Config, batches [][]shard.Op, states [][]dual.Motion,
	extra [][]shard.Op) (deltaRecovery, cleanRecovery int, _ error) {
	m := crashtest.NewMedia(mode, budget)
	env := newCrashEnv(m, PageSize)
	s, err := openIngestShard(env, cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("pre-crash open: %w", err)
	}
	if got := m.Points(); got != preludePoints {
		return 0, 0, fmt.Errorf("nondeterministic workload: %d points after open, recorded %d", got, preludePoints)
	}
	completed, inFlight := 0, false
	for _, b := range batches {
		if err := s.Apply(ctx, b); err != nil {
			if !m.Crashed() {
				return 0, 0, fmt.Errorf("batch %d failed without crashing: %w", completed, err)
			}
			inFlight = true
			break
		}
		completed++
	}
	// A dead machine's Close fails with ErrCrash; that is the crash, not
	// a finding. A close failure on a live machine is a real bug.
	if err := s.Close(); err != nil && !m.Crashed() {
		return 0, 0, fmt.Errorf("close failed without crashing: %w", err)
	}

	// Reboot onto the survivor bytes. A torn run or a base/watermark mix
	// surfaces here as an open error — Open cross-checks the superblock
	// watermark, the catalog, and the replayed tier against each other.
	s2, err := openIngestShard(env.reboot(crashtest.NewMedia(mode, 0)), cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("recovery open: %w", err)
	}
	defer s2.Close()

	// Empty-or-complete: the recovered motion set sits at an Apply-batch
	// boundary — everything through the last committed batch, with the
	// in-flight batch either wholly present or wholly absent.
	gotMs, err := s2.Motions()
	if err != nil {
		return 0, 0, fmt.Errorf("recovered catalog: %w", err)
	}
	sort.Slice(gotMs, func(i, j int) bool { return gotMs[i].OID < gotMs[j].OID })
	state := completed
	if !slices.Equal(gotMs, states[completed]) {
		if !inFlight || !slices.Equal(gotMs, states[completed+1]) {
			return 0, 0, fmt.Errorf("torn recovery: %d motions, not the state after %d or %d batches",
				len(gotMs), completed, completed+1)
		}
		state = completed + 1
	}
	if s2.Len() != len(states[state]) {
		return 0, 0, fmt.Errorf("recovered Len = %d, catalog holds %d", s2.Len(), len(states[state]))
	}
	st, ok := s2.IngestStats()
	if !ok {
		return 0, 0, fmt.Errorf("recovered shard lost its ingest tier")
	}
	if st.MemLen > 0 {
		deltaRecovery = 1
	} else {
		cleanRecovery = 1
	}
	if err := checkExact(ctx, s2, exactAnswers(states[state]), "recovered"); err != nil {
		return 0, 0, err
	}

	// The rebooted shard keeps ingesting and folds again.
	pop := append([]dual.Motion{}, states[state]...)
	for i, b := range extra {
		if err := s2.Apply(ctx, b); err != nil {
			return 0, 0, fmt.Errorf("post-recovery batch %d: %w", i, err)
		}
		for _, op := range b {
			pop = append(pop, op.M)
		}
	}
	if st, _ := s2.IngestStats(); st.Merges == 0 {
		return 0, 0, fmt.Errorf("recovered shard never folded: %+v", st)
	}
	if err := checkExact(ctx, s2, exactAnswers(pop), "post-recovery"); err != nil {
		return 0, 0, err
	}
	return deltaRecovery, cleanRecovery, nil
}
