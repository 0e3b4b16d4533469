package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

func clusterMotions(n int) []dual.Motion {
	ms := make([]dual.Motion, 0, n)
	for i := 0; i < n; i++ {
		ms = append(ms, testMotion(i))
	}
	return ms
}

func clusterQueries() []dual.MORQuery {
	return []dual.MORQuery{
		{Y1: 0, Y2: 1000, T1: 0, T2: 5},
		{Y1: 100, Y2: 300, T1: 10, T2: 40},
		{Y1: 450, Y2: 480, T1: 100, T2: 150},
		{Y1: 740, Y2: 760, T1: 5, T2: 25},
		{Y1: 0, Y2: 60, T1: 200, T2: 400},
	}
}

// oracleAnswers computes the unsharded ground truth by brute force.
func oracleAnswers(ms []dual.Motion, qs []dual.MORQuery) [][]dual.OID {
	var out [][]dual.OID
	for _, q := range qs {
		seen := map[dual.OID]bool{}
		var res []dual.OID
		for _, m := range ms {
			if m.Matches(q) && !seen[m.OID] {
				seen[m.OID] = true
				res = append(res, m.OID)
			}
		}
		// Sort ascending to match the router's merge contract.
		for i := 1; i < len(res); i++ {
			for j := i; j > 0 && res[j] < res[j-1]; j-- {
				res[j], res[j-1] = res[j-1], res[j]
			}
		}
		out = append(out, res)
	}
	return out
}

func assertOracle(t *testing.T, c *Cluster, qs []dual.MORQuery, want [][]dual.OID, tag string) {
	t.Helper()
	ctx := context.Background()
	for i, q := range qs {
		got, err := c.Query(ctx, q)
		if err != nil {
			t.Fatalf("%s: query %d: %v", tag, i, err)
		}
		if len(got) != len(want[i]) {
			t.Fatalf("%s: query %d: %d results, want %d", tag, i, len(got), len(want[i]))
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("%s: query %d: result %d = %d, want %d", tag, i, j, got[j], want[i][j])
			}
		}
	}
}

func testClusterConfig() ClusterConfig {
	return ClusterConfig{Terrain: testTerrain(), PageSize: 512}
}

// TestClusterOpenRecovery: load a cluster, crash it (abandon without
// Close), reopen from the same Env, and require byte-identical answers.
func TestClusterOpenRecovery(t *testing.T) {
	env := NewMemEnv(512)
	ctx := context.Background()
	ms := clusterMotions(300)
	qs := clusterQueries()
	want := oracleAnswers(ms, qs)

	c, err := OpenCluster(env, testClusterConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, c, qs, want, "before crash")
	// Crash: no Close. The Env keeps the durable bytes.
	c2, err := OpenCluster(env, testClusterConfig(), 1 /* ignored on reopen */)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Bands() != 4 {
		t.Fatalf("recovered bands = %d, want 4", c2.Bands())
	}
	assertOracle(t, c2, qs, want, "after crash")

	// Recovered cluster keeps serving writes.
	extra := dual.Motion{OID: 7777, Y0: 500, T0: 0, V: 0.4}
	if err := c2.Apply(ctx, []Op{{Insert: true, M: extra}}); err != nil {
		t.Fatal(err)
	}
	want2 := oracleAnswers(append(append([]dual.Motion{}, ms...), extra), qs)
	assertOracle(t, c2, qs, want2, "after recovered write")
}

// TestClusterSplitLive splits a band while the cluster holds data and
// checks: oracle-exact answers afterwards, epoch bumped exactly once, and
// no pending migration left behind.
func TestClusterSplitLive(t *testing.T) {
	env := NewMemEnv(512)
	ctx := context.Background()
	ms := clusterMotions(300)
	qs := clusterQueries()
	want := oracleAnswers(ms, qs)

	c, err := OpenCluster(env, testClusterConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	e0 := c.Epoch()
	if err := c.Split(ctx, 1, 750); err != nil {
		t.Fatal(err)
	}
	if c.Epoch() != e0+1 {
		t.Fatalf("epoch after split = %d, want %d", c.Epoch(), e0+1)
	}
	if c.Bands() != 3 {
		t.Fatalf("bands after split = %d, want 3", c.Bands())
	}
	if _, pending := c.PendingMigration(); pending {
		t.Fatal("migration still pending after Split returned")
	}
	assertOracle(t, c, qs, want, "after split")

	// Writes keep routing correctly under the new topology.
	extra := dual.Motion{OID: 8888, Y0: 800, T0: 0, V: 0.3}
	if err := c.Apply(ctx, []Op{{Insert: true, M: extra}}); err != nil {
		t.Fatal(err)
	}
	want2 := oracleAnswers(append(append([]dual.Motion{}, ms...), extra), qs)
	assertOracle(t, c, qs, want2, "after post-split write")

	// Split again on the new band; cumulative correctness.
	if err := c.Split(ctx, 0, 200); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, c, qs, want2, "after second split")
}

// TestClusterSplitCrashResume drives the split through a crash after the
// prepare step but before any flip: the reopened cluster serves the OLD
// topology exactly, and ResumeMigration completes the split exactly.
func TestClusterSplitCrashResume(t *testing.T) {
	env := NewMemEnv(512)
	ctx := context.Background()
	ms := clusterMotions(300)
	qs := clusterQueries()
	want := oracleAnswers(ms, qs)

	c, err := OpenCluster(env, testClusterConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	// Simulate "prepared then crashed": write the prepared manifest by
	// hand, as Split would, then abandon the cluster.
	c.adminMu.Lock()
	m := c.cur
	m.Mig = migRecord{State: migPrepared, Band: 1, Cut: 750, NewStore: m.NextStore}
	m.NextStore++
	if err := c.man.save(m); err != nil {
		t.Fatal(err)
	}
	c.adminMu.Unlock()

	c2, err := OpenCluster(env, testClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Old topology serves exactly.
	if c2.Bands() != 2 {
		t.Fatalf("bands before resume = %d, want 2", c2.Bands())
	}
	mig, pending := c2.PendingMigration()
	if !pending || mig.Band != 1 || mig.Cut != 750 || mig.Flipped {
		t.Fatalf("pending migration = %+v/%v, want band 1 cut 750 unflipped", mig, pending)
	}
	assertOracle(t, c2, qs, want, "prepared, pre-resume")

	if err := c2.ResumeMigration(ctx); err != nil {
		t.Fatal(err)
	}
	if c2.Bands() != 3 {
		t.Fatalf("bands after resume = %d, want 3", c2.Bands())
	}
	if _, pending := c2.PendingMigration(); pending {
		t.Fatal("migration still pending after resume")
	}
	assertOracle(t, c2, qs, want, "after resume")
}

// warmLoadGate is a split receiver's store whose first page write after
// the batch that initializes its fresh media parks until released: it
// holds the split inside its warm load, after the source snapshot and
// before the flip.
type warmLoadGate struct {
	*pager.WALStore
	*gate
}

func (w *warmLoadGate) Write(p *pager.Page) error {
	if w.CommittedSeq() == 1 {
		w.pass()
	}
	return w.WALStore.Write(p)
}

// TestClusterSplitCatchUp parks a split of band 1 of two in its warm load
// and, in one run, applies a write to the source band meanwhile: a delete
// and an insert in the receiver's half. The split cluster must answer the
// oracle with the write in, and the receiver must have been loaded twice,
// the second time under the barrier; with no write between the snapshot
// and the flip it is loaded once.
func TestClusterSplitCatchUp(t *testing.T) {
	ctx := context.Background()
	ms := clusterMotions(300)
	qs := clusterQueries()
	gone := slices.IndexFunc(ms, func(m dual.Motion) bool { return m.V > 0 && m.Y0 >= 800 && m.Y0 <= 950 })
	for _, write := range []bool{false, true} {
		t.Run(fmt.Sprintf("write=%v", write), func(t *testing.T) {
			g := &warmLoadGate{gate: newGate()}
			g.armed.Store(true)
			cfg := testClusterConfig()
			cfg.WrapStore = func(storeID int) func(pager.Store) pager.Store {
				if storeID != 2 { // the receiver: the store after bands 0 and 1
					return nil
				}
				return func(st pager.Store) pager.Store {
					g.WALStore = st.(*pager.WALStore)
					return g
				}
			}
			c, err := OpenCluster(NewMemEnv(512), cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				g.release() // before Close: a failed check must not strand the split
				if err := c.Close(); err != nil {
					t.Errorf("close: %v", err)
				}
			})
			if err := c.BulkLoad(ctx, ms); err != nil {
				t.Fatal(err)
			}
			split := make(chan error, 1)
			go func() { split <- c.Split(ctx, 1, 750) }()
			select {
			case <-g.parked:
			case <-time.After(5 * time.Second):
				t.Fatal("the split never loaded its receiver")
			}
			want := ms
			if write {
				extra := dual.Motion{OID: 9001, Y0: 820, V: 0.3}
				if err := c.Apply(ctx, []Op{{M: ms[gone]}, {Insert: true, M: extra}}); err != nil {
					t.Fatal(err)
				}
				want = append(slices.Delete(slices.Clone(ms), gone, gone+1), extra)
			}
			g.release()
			if err := <-split; err != nil {
				t.Fatal(err)
			}
			assertOracle(t, c, qs, oracleAnswers(want, qs), "after split")
			// The receiver's catalog is rewritten once per load.
			wantLoads := uint64(1)
			if write {
				wantLoads = 2
			}
			if loads, err := c.Router().Shard(2).catalogGen(); err != nil || loads != wantLoads {
				t.Fatalf("receiver loaded %d times (%v), want %d", loads, err, wantLoads)
			}
		})
	}
}

// TestClusterRevive quarantines a shard with a poisoned batch, trips its
// circuit breaker into a long open window, then revives it by WAL replay
// and checks the cluster is whole again immediately: oracle-exact, no
// degraded shards (the breaker was reset with the shard, not left to its
// hour-long timer), and Revived counted.
func TestClusterRevive(t *testing.T) {
	env := NewMemEnv(512)
	ctx := context.Background()
	ms := clusterMotions(300)
	qs := clusterQueries()
	want := oracleAnswers(ms, qs)

	cfg := testClusterConfig()
	cfg.Policy.BreakAfter = 1
	cfg.Policy.OpenFor = time.Hour
	c, err := OpenCluster(env, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}

	// Force a quarantine: deleting a motion the shard does not hold fails
	// the batch. (An invalid motion is refused before the batch and leaves
	// the shard healthy.)
	absent := dual.Motion{OID: 999999, Y0: 600, T0: 0, V: 1}
	s := c.Router().Shard(2)
	if err := s.Apply(ctx, []Op{{Insert: false, M: absent}}); err == nil {
		t.Fatal("a delete of an absent motion applied cleanly")
	}
	if h := s.Health(); !h.Quarantined {
		t.Fatalf("shard not quarantined: %+v", h)
	}
	// A routed query hits the corpse and trips its breaker open for an
	// hour: the revive below must reset it, not wait it out.
	if _, err := c.Query(ctx, qs[0]); err == nil {
		t.Fatal("query over quarantined shard fully succeeded")
	}
	if d := c.Router().Degraded(); len(d) != 1 || d[0] != 2 {
		t.Fatalf("degraded before revive = %v, want [2]", d)
	}

	if err := c.Revive(2); err != nil {
		t.Fatal(err)
	}
	if h := c.Router().Shard(2).Health(); !h.Healthy {
		t.Fatalf("revived shard unhealthy: %+v", h)
	}
	if got := c.Router().Stats().Revived; got != 1 {
		t.Fatalf("Stats.Revived = %d, want 1", got)
	}
	if d := c.Router().Degraded(); len(d) != 0 {
		t.Fatalf("degraded after revive: %v", d)
	}
	assertOracle(t, c, qs, want, "after revive")
}

// cancelAtCommit is a shard's store that, once given a cancel function,
// calls it when the shard commits a write batch.
type cancelAtCommit struct {
	*pager.WALStore
	cancel context.CancelFunc
}

func (w *cancelAtCommit) Commit() error {
	if w.cancel != nil {
		w.cancel()
	}
	return w.WALStore.Commit()
}

// TestClusterCancelledWriteLandsOnEveryBand cancels a router write's
// context at band 0's first Commit, a nested one inside its batch, before
// band 1, on a one-worker executor, has written. The router and the shard
// admitted the write before: band 0 finishes its batch and band 1 still
// applies its own, so Apply returns nil, no band is quarantined, and every
// answer is the brute-force one with no error.
func TestClusterCancelledWriteLandsOnEveryBand(t *testing.T) {
	w := &cancelAtCommit{}
	cfg := ClusterConfig{Terrain: terrain1D, Exec: core.NewExecutor(1), WrapStore: func(id int) func(pager.Store) pager.Store {
		if id != 0 {
			return nil
		}
		return func(st pager.Store) pager.Store {
			w.WALStore = st.(*pager.WALStore)
			return w
		}
	}}
	r := openCluster(t, 0, cfg, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w.cancel = cancel
	ms := motions1D(64)
	if err := r.Apply(ctx, opsFor(ms)); err != nil {
		t.Fatalf("Apply cancelled at band 0's commit: %v, want nil", err)
	}
	if ctx.Err() == nil {
		t.Fatal("band 0 committed nothing")
	}
	for i := 0; i < 2; i++ {
		if h := r.Shard(i).Health(); !h.Healthy {
			t.Fatalf("band %d after the cancelled write: %+v", i, h)
		}
	}
	for _, q := range queries1D {
		got, err := r.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		if want := bruteForce(nil, ms, q, nil); fingerprint(got) != fingerprint(want) {
			t.Fatalf("query %+v: %q, want %q", q, fingerprint(got), fingerprint(want))
		}
	}
}

// flakyEnv fails the next OpenMedia of one name, once.
type flakyEnv struct {
	Env
	mu       sync.Mutex
	failNext string
}

var errFlakyMedia = errors.New("flaky media")

func (e *flakyEnv) OpenMedia(name string) (Media, error) {
	e.mu.Lock()
	fail := name == e.failNext
	if fail {
		e.failNext = ""
	}
	e.mu.Unlock()
	if fail {
		return Media{}, errFlakyMedia
	}
	return e.Env.OpenMedia(name)
}

// TestClusterReviveOpenFailure revives a quarantined border band whose
// media fail to open once. Band 0 holds motions no peer replicates, so
// only its own media can restore them: the first Revive reports the
// error and leaves the band down with its media intact, and a second
// Revive brings back every motion.
func TestClusterReviveOpenFailure(t *testing.T) {
	env := &flakyEnv{Env: NewMemEnv(512)}
	ctx := context.Background()
	ms := clusterMotions(300)
	qs := clusterQueries()
	want := oracleAnswers(ms, qs)

	c, err := OpenCluster(env, testClusterConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	s := c.Router().Shard(0)
	wantLen := s.Len()
	absent := dual.Motion{OID: 999999, Y0: 10, T0: 0, V: 1}
	if err := s.Apply(ctx, []Op{{Insert: false, M: absent}}); err == nil {
		t.Fatal("a delete of an absent motion applied cleanly")
	}

	env.failNext = shardMediaName(c.cur.Bands[0].Store)
	if err := c.Revive(0); !errors.Is(err, errFlakyMedia) {
		t.Fatalf("Revive over failing media = %v, want %v", err, errFlakyMedia)
	}
	if h := c.Router().Shard(0).Health(); h.Healthy {
		t.Fatalf("band 0 serves after a failed revive: %+v", h)
	}
	if err := c.Revive(0); err != nil {
		t.Fatal(err)
	}
	if got := c.Router().Shard(0).Len(); got != wantLen {
		t.Fatalf("revived band 0 holds %d motions, want %d", got, wantLen)
	}
	assertOracle(t, c, qs, want, "after the second revive")
}

// TestClusterDirEnv exercises the real file-backed environment end to
// end: build, crash, recover from disk.
func TestClusterDirEnv(t *testing.T) {
	env, err := NewDirEnv(t.TempDir(), 512)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ms := clusterMotions(200)
	qs := clusterQueries()
	want := oracleAnswers(ms, qs)

	c, err := OpenCluster(env, testClusterConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BulkLoad(ctx, ms); err != nil {
		t.Fatal(err)
	}
	if err := c.Split(ctx, 0, 250); err != nil {
		t.Fatal(err)
	}
	assertOracle(t, c, qs, want, "file-backed, live")
	// Clean close this time: files must reopen all the same.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCluster(env, testClusterConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Bands() != 3 {
		t.Fatalf("recovered bands = %d, want 3", c2.Bands())
	}
	assertOracle(t, c2, qs, want, "file-backed, reopened")
}
