package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mobidx/internal/dual"
	"mobidx/internal/subscribe"
	"mobidx/internal/workload"
)

// options are the settings of one run that are not part of the workload.
type options struct {
	seed    int64
	window  time.Duration // measured window of the untraced run
	warm    time.Duration // unmeasured closed-loop warm-up before it
	dataDir string        // scratch directory for the deployments' media
	outDir  string        // where the traced run writes its span files
}

// report is what a run prints for a reader besides the metric values.
type report struct {
	lines     []string
	attempted int64
	failed    int64
	rounded   int // boundary roundings the oracle let pass (see roundingTolerance)
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check counts one oracle comparison of an answer to q.
func (r *report) check(scn *scenario, what string, q dual.MORQuery, got []dual.OID) {
	r.attempted++
	rounded, err := scn.checkAnswer(q, got)
	r.rounded += rounded
	if err != nil {
		r.fail("%s %+v: %v", what, q, err)
	}
}

// fail counts one failed check or call and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.printf("FAIL: "+format, args...)
}

// setUp builds a fresh deployment in dir the way an operator would: open,
// bulk load the initial motions, checkpoint, and for the subscription
// workload register the standing queries.
func setUp(ctx context.Context, sp *spec, sc scale, dir string, motions []dual.Motion, fences []workload.Geofence, rec *recorder) (*deployment, []subscribe.SubID, error) {
	dep, err := openDeployment(sp, sc, dir, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	subs, err := load(ctx, dep, motions, fences)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (and close: %v)", err, dep.close())
	}
	return dep, subs, nil
}

func load(ctx context.Context, dep *deployment, motions []dual.Motion, fences []workload.Geofence) ([]subscribe.SubID, error) {
	if err := dep.router.BulkLoad(ctx, motions); err != nil {
		return nil, fmt.Errorf("bulk load: %w", err)
	}
	if err := dep.checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	subs := make([]subscribe.SubID, 0, len(fences))
	for _, f := range fences {
		id, err := dep.router.Subscribe(f.Y1, f.Y2, f.Window)
		if err != nil {
			return nil, fmt.Errorf("subscribe: %w", err)
		}
		subs = append(subs, id)
	}
	return subs, nil
}

// checkCache prints the working set against the pool and, at full scale,
// enforces the relation the workload was built around.
func checkCache(dep *deployment, rep *report) {
	pages, pool := dep.pagesInUse(), dep.poolPages()
	rep.printf("cache: %d pages in use, pool %d pages (%.2fx)", pages, pool, ratio(float64(pages), float64(pool)))
	if !dep.sc.gates {
		return
	}
	switch dep.sp.cache {
	case cacheFits:
		if pages > pool {
			rep.fail("%s must fit the pool: %d pages in use > %d", dep.sp.name, pages, pool)
		}
	case cacheExceeds:
		if pages < 3*pool {
			rep.fail("%s must exceed the pool threefold: %d pages in use < 3 x %d", dep.sp.name, pages, pool)
		}
	}
}

// peerOf builds the workload's second client.
func peerOf(sp *spec, dep *deployment, scn *scenario, clk *clock, subs []subscribe.SubID, seed int64, keepEvery int) client {
	switch sp.peer {
	case peerUpdate:
		return &updateClient{dep: dep, scn: scn, clk: clk}
	case peerFeed:
		return &feedClient{dep: dep, scn: scn, clk: clk, subs: subs}
	case peerSplit:
		return &splitClient{dep: dep}
	default:
		return &queryClient{dep: dep, gen: newQueryGen(seed, sp.mix), clk: clk, keepEvery: keepEvery}
	}
}

// checkAnswers asks n fresh queries at the scenario's current time and
// compares each answer with the oracle; for the subscription workload it
// also compares n standing queries' member sets.
func checkAnswers(ctx context.Context, dep *deployment, scn *scenario, subs []subscribe.SubID, n int, seed int64, rep *report) {
	gen, queries := newQueryGen(seed, dep.sp.mix), n
	for i := 0; i < n; i++ {
		q := gen.next(scn.now())
		got, err := dep.Query(ctx, q)
		if err != nil {
			rep.attempted++
			rep.fail("oracle query %d: %v", i, err)
			continue
		}
		rep.check(scn, fmt.Sprintf("oracle query %d", i), q, got)
	}
	if len(subs) == 0 {
		rep.printf("oracle: %d queries checked against brute force", n)
		return
	}
	fences := scn.fences()
	if n > len(subs) {
		n = len(subs)
	}
	for i := 0; i < n; i++ {
		k := i * len(subs) / n
		got, err := dep.router.SubMembers(subs[k])
		if err != nil {
			rep.attempted++
			rep.fail("members of fence %d: %v", k, err)
			continue
		}
		f := fences[k]
		rep.check(scn, fmt.Sprintf("members of fence %d", k),
			dual.MORQuery{Y1: f.Y1, Y2: f.Y2, T1: scn.now(), T2: scn.now() + f.Window}, got)
	}
	rep.printf("oracle: %d queries and %d fences' members checked against brute force", queries, n)
}

// checkKept verifies the answers a query client kept inside the window.
func checkKept(scn *scenario, c client, rep *report) int {
	qc, ok := c.(*queryClient)
	if !ok {
		return 0
	}
	for i, k := range qc.kept {
		rep.check(scn, fmt.Sprintf("in-window query %d", i), k.q, k.ids)
	}
	return len(qc.kept)
}

// recoverOnce reopens the closed deployment in dir, serves one query,
// checks it, and closes again; the time is open + first query.
func recoverOnce(ctx context.Context, sp *spec, sc scale, dir string, scn *scenario, seed int64, rep *report) (time.Duration, int, error) {
	q := newQueryGen(seed, sp.mix).next(scn.now())
	t0 := time.Now()
	dep, err := openDeployment(sp, sc, dir, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %w", err)
	}
	got, err := dep.Query(ctx, q)
	dt := time.Since(t0)
	if err != nil {
		rep.attempted++
		rep.fail("first query after reopen: %v", err)
	} else {
		rep.check(scn, "first query after reopen", q, got)
	}
	nBands := len(dep.shards())
	return dt, nBands, dep.close()
}

// runTimed is the untraced run: nothing of the benchmark sits on the data
// path. Two closed-loop clients — a query client and the workload's peer —
// share the deployment for the window; set-up, recovery, space and memory
// are measured around it.
func runTimed(ctx context.Context, sp *spec, sc scale, opt options) (map[string]float64, *report, error) {
	rep := &report{}
	scn, err := newScenario(sp, sc, opt.seed)
	if err != nil {
		return nil, nil, err
	}

	// The first set-up is the deployment the run serves from. The others
	// that make setup_s a median come last, so the high-water mark the run
	// prints is of one set-up and the window; they load the population as
	// it then stands, which is the same number of objects.
	dir := filepath.Join(opt.dataDir, sp.name)
	setups := make([]float64, 0, sc.setups)
	t0 := time.Now()
	dep, subs, err := setUp(ctx, sp, sc, dir, scn.motions(), scn.fences(), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	setups = append(setups, time.Since(t0).Seconds())
	objects := len(scn.motions())
	rep.printf("deployment: %d objects, %d bands, %d held with replicas, c=%d, %d-byte pages, pool %d pages/shard",
		objects, len(dep.shards()), dep.held(), observationC, pageSize, sc.poolPages)
	checkCache(dep, rep)

	clk := &clock{}
	clk.set(scn.now())
	keepEvery := 0
	if sp.peer == peerQuery {
		keepEvery = 50
	}
	querier := &queryClient{dep: dep, gen: newQueryGen(opt.seed+1, sp.mix), clk: clk, keepEvery: keepEvery}
	peer := peerOf(sp, dep, scn, clk, subs, opt.seed+2, keepEvery)

	// Warm-up: the same closed loops, unmeasured, so pool and page cache
	// are in their steady state. The splits are a fixed sequence and are
	// not rehearsed.
	warm := []client{querier, peer}
	if sp.peer == peerSplit {
		warm = warm[:1]
	}
	for _, l := range runClients(ctx, opt.warm, warm...) {
		if l.failed > 0 {
			return nil, nil, fmt.Errorf("warm-up: %d calls failed, first: %w", l.failed, l.firstErr)
		}
	}

	if fc, ok := peer.(*feedClient); ok {
		fc.rest()
	}
	var m0, m1 runtime.MemStats
	w0, werr := writtenBytes()
	runtime.ReadMemStats(&m0)
	window := opt.window
	if sp.peer == peerSplit {
		window = 0 // until the six splits are done
	}
	lanes := runClients(ctx, window, querier, peer)
	ql, pl := lanes[0], lanes[1]
	if sp.peer == peerSplit {
		// The query client serves the rest of the window on the new
		// topology, so the query metrics cover --seconds as everywhere
		// else. Over the splits alone (three seconds, 1 400 calls) the
		// tail was the few dozen calls a split disturbs, and it wandered
		// by a quarter between runs.
		rep.printf("during the splits: %d queries in %.2fs (%.1f/s), p50 %.3f ms, p95 %.3f ms",
			ql.calls(), ql.elapsed.Seconds(), ql.perSecond(), ms(percentile(ql.lat, 50)), ms(percentile(ql.lat, 95)))
		if rest := opt.window - ql.elapsed; rest > 0 {
			ql.add(runClients(ctx, rest, querier)[0])
		}
	}
	runtime.ReadMemStats(&m1)
	w1, werr1 := writtenBytes()
	for _, l := range lanes {
		rep.attempted += l.calls()
		rep.failed += l.failed
		if l.firstErr != nil {
			rep.printf("FAIL: %d calls failed, first: %v", l.failed, l.firstErr)
		}
	}

	// Quiesce: finish a half-applied tick, then fold the logs so the
	// space reading is the checkpointed footprint.
	if uc, ok := peer.(*updateClient); ok {
		if err := uc.flush(ctx); err != nil {
			return nil, nil, fmt.Errorf("flush: %w", err)
		}
	}
	if err := dep.checkpoint(); err != nil {
		return nil, nil, fmt.Errorf("final checkpoint: %w", err)
	}
	disk, err := dep.diskBytes()
	if err != nil {
		return nil, nil, err
	}
	// What the process retains at rest — logs folded, the window's garbage
	// collected: pools, memtables, standing queries, and the generator's
	// own state, which does not change between versions of the stack.
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	kept := checkKept(scn, querier, rep) + checkKept(scn, peer, rep)
	if kept > 0 {
		rep.printf("oracle: %d in-window answers checked against brute force", kept)
	}
	checkAnswers(ctx, dep, scn, subs, sc.checks, opt.seed+3, rep)
	if err := dep.close(); err != nil {
		return nil, nil, fmt.Errorf("close: %w", err)
	}

	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	// Durability: what was acknowledged must be there after a restart.
	recoverTime, nBands, err := recoverOnce(ctx, sp, sc, dir, scn, opt.seed+4, rep)
	if err != nil {
		return nil, nil, fmt.Errorf("recover: %w", err)
	}
	for i := 1; i < sc.setups; i++ {
		again := fmt.Sprintf("%s-setup%d", dir, i)
		t0 := time.Now()
		dep, _, err := setUp(ctx, sp, sc, again, scn.motions(), scn.fences(), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := dep.close(); err != nil {
			return nil, nil, fmt.Errorf("close set-up %d: %w", i, err)
		}
		if err := os.RemoveAll(again); err != nil {
			return nil, nil, err
		}
	}

	// Queries completed per second and their latency count every query
	// client: on the read-only workloads the peer is one too.
	queryRate, queryLat := ql.perSecond(), ql.lat
	if sp.peer == peerQuery {
		queryRate += pl.perSecond()
		queryLat = append(append([]time.Duration(nil), ql.lat...), pl.lat...)
	}
	ops := ql.items + pl.items
	vals := map[string]float64{
		"setup_s":               medianFloat(setups),
		"query_per_s":           queryRate,
		"query_p50_ms":          ms(percentile(queryLat, 50)),
		"query_p95_ms":          ms(percentile(queryLat, 95)),
		"peer_per_s":            pl.perSecond(),
		"peer_mid_ms":           ms(midmean(pl.lat)),
		"disk_bytes_per_object": ratio(float64(disk), float64(objects)),
		"alloc_bytes_per_op":    ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(ops)),
		"heap_live_mb":          float64(live.HeapAlloc) / (1 << 20),
	}
	rep.printf("samples: %d query calls in %.2fs, %d peer calls (%d items) in %.2fs; peer: %s",
		ql.calls(), ql.elapsed.Seconds(), pl.calls(), pl.items, pl.elapsed.Seconds(), sp.peerDoes)
	if pl.calls() >= 200 {
		rep.printf("peer p95 %.4f ms (not a metric: the feed and the splits have too few calls for one)", ms(percentile(pl.lat, 95)))
	}
	rep.printf("set-ups %v s; reopen + first query %.4f s over %d bands; peak RSS %.1f MiB", setups, recoverTime.Seconds(), nBands, rss)
	rep.printf("error_rate: %d of %d calls and checks failed; %d boundary roundings within %.2f tolerated",
		rep.failed, rep.attempted, rep.rounded, roundingTolerance)
	if sp.peer == peerUpdate || sp.peer == peerFeed {
		if werr != nil || werr1 != nil {
			rep.printf("write_bytes_per_update: unavailable (%v %v)", werr, werr1)
		} else {
			rep.printf("write_bytes_per_update: %.0f B (write(2) volume in the window / updates)", ratio(float64(w1-w0), float64(pl.items)))
		}
	}
	if fc, ok := peer.(*feedClient); ok {
		rep.printf("feed: a tick due every %v started %.3f ms late at the median, %.3f ms at worst; %d deltas drained from %d fences",
			feedPeriod, ms(percentile(fc.late, 50)), ms(maxDur(fc.late)), fc.deltas, len(subs))
	}
	return vals, rep, nil
}
