package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mobidx/internal/dual"
	"mobidx/internal/ingest"
	"mobidx/internal/shard"
	"mobidx/internal/subscribe"
)

// round is one step of the traced replay: the peer's call, then queries at
// the scenario time the index has reached.
type round struct {
	ops     []shard.Op // update and feed peers: the Apply's ops
	cut     float64    // split peer: where to split
	now     float64    // scenario time once the peer's call is applied
	queries []dual.MORQuery
}

// script is the traced run's fixed input: the same rounds are replayed on
// the bare stack, on the probed stack, and against the isolation replicas,
// so every count repeats for a seed.
type script struct {
	initial []dual.Motion // the bulk-loaded state
	rounds  []round
	tail    []shard.Op // rest of the last, half-applied tick
	scn     *scenario  // the generator, left at the state after tail
}

func (s *script) updates() int {
	n := 0
	for _, r := range s.rounds {
		n += len(r.ops) / 2
	}
	return n
}

func (s *script) queries() []dual.MORQuery {
	var qs []dual.MORQuery
	for _, r := range s.rounds {
		qs = append(qs, r.queries...)
	}
	return qs
}

func newScript(sp *spec, sc scale, seed int64) (*script, error) {
	scn, err := newScenario(sp, sc, seed)
	if err != nil {
		return nil, err
	}
	s := &script{initial: append([]dual.Motion(nil), scn.motions()...), scn: scn}
	gen, peerGen := newQueryGen(seed+1, sp.mix), newQueryGen(seed+2, sp.mix)
	now := scn.now()
	var pending []shard.Op
	for i := 0; i < sc.roundsOf(sp); i++ {
		r := round{}
		switch sp.peer {
		case peerQuery:
			r.queries = append(r.queries, peerGen.next(now))
		case peerUpdate:
			if len(pending) == 0 {
				now = scn.now()
				if pending, err = scn.tick(nil); err != nil {
					return nil, err
				}
			}
			n := 2 * updatesPerCall
			if n > len(pending) {
				n = len(pending)
			}
			r.ops, pending = pending[:n], pending[n:]
		case peerFeed:
			if r.ops, err = scn.tick(nil); err != nil {
				return nil, err
			}
			now = scn.now()
		case peerSplit:
			r.cut = splitCuts[i]
		}
		r.now = now
		for k := 0; k < sp.queriesPerRound && i%sp.queryStride == 0; k++ {
			r.queries = append(r.queries, gen.next(now))
		}
		s.rounds = append(s.rounds, r)
	}
	s.tail = pending
	return s, nil
}

// replay is what one pass over the script measured from outside the
// stack, with or without probes installed.
type replay struct {
	queryDur  []time.Duration
	peerDur   []time.Duration
	digests   []uint64 // one per query, in order
	shardsHit int64    // bands the queries overlapped, summed
	foldStall time.Duration
	folds     int
}

// topLevel names the spans the benchmark itself opens around its calls.
type topLevel struct{ query, apply, advance, drain, split, open, flush int }

func topLevelOf(rec *recorder) topLevel {
	return topLevel{query: rec.id("query"), apply: rec.id("apply"), advance: rec.id("advance"),
		drain: rec.id("drain"), split: rec.id("split"), open: rec.id("open"), flush: rec.id("flush")}
}

// timed runs fn as one benchmark-issued call: a top-level span when a
// recorder is installed, a wall-clock duration either way.
func timed(rec *recorder, name int, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	if rec != nil {
		defer rec.end(rec.begin(name))
	}
	err := fn()
	return time.Since(t0), err
}

func ingestStats(dep *deployment) ingest.Stats {
	var sum ingest.Stats
	for _, s := range dep.shards() {
		if st, ok := s.IngestStats(); ok {
			sum.Merges += st.Merges
			sum.RunProbes += st.RunProbes
			sum.BloomSkips += st.BloomSkips
			sum.BloomFalsePos += st.BloomFalsePos
		}
	}
	return sum
}

// play replays the script on dep from one goroutine.
func play(ctx context.Context, dep *deployment, s *script, subs []subscribe.SubID, rec *recorder) (*replay, error) {
	out := &replay{}
	var tl topLevel
	if rec != nil {
		tl = topLevelOf(rec)
	}
	merges := ingestStats(dep).Merges
	for i, r := range s.rounds {
		switch dep.sp.peer {
		case peerUpdate, peerFeed:
			d, err := timed(rec, tl.apply, func() error { return dep.Apply(ctx, r.ops) })
			if err != nil {
				return nil, fmt.Errorf("round %d apply: %w", i, err)
			}
			if dep.sp.ingest {
				if m := ingestStats(dep).Merges; m > merges {
					out.folds += m - merges
					merges = m
					if d > out.foldStall {
						out.foldStall = d
					}
				}
			}
			if dep.sp.peer == peerFeed {
				d2, err := timed(rec, tl.advance, func() error { return dep.router.AdvanceSubs(r.now) })
				if err != nil {
					return nil, fmt.Errorf("round %d advance: %w", i, err)
				}
				d3, err := timed(rec, tl.drain, func() error {
					for _, id := range subs {
						if _, err := dep.router.DrainSubs(id); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					return nil, fmt.Errorf("round %d drain: %w", i, err)
				}
				d += d2 + d3
			}
			out.peerDur = append(out.peerDur, d)
		case peerSplit:
			d, err := timed(rec, tl.split, func() error { return dep.split(ctx, r.cut) })
			if err != nil {
				return nil, fmt.Errorf("round %d split at %v: %w", i, r.cut, err)
			}
			out.peerDur = append(out.peerDur, d)
		}
		for _, q := range r.queries {
			out.shardsHit += int64(len(dep.router.Partitioner().Overlapping(q)))
			var ids []dual.OID
			d, err := timed(rec, tl.query, func() (err error) { ids, err = dep.Query(ctx, q); return err })
			if err != nil {
				return nil, fmt.Errorf("round %d query %+v: %w", i, q, err)
			}
			out.queryDur = append(out.queryDur, d)
			out.digests = append(out.digests, digest(ids))
		}
	}
	return out, nil
}

// concurrentLeg measures what only two clients can show: how much a query
// waits because the peer is running. It times the query client alone,
// then beside the peer, on an untraced deployment of its own.
func concurrentLeg(ctx context.Context, sp *spec, sc scale, opt options, vals map[string]float64) error {
	scn, err := newScenario(sp, sc, opt.seed)
	if err != nil {
		return err
	}
	dir := filepath.Join(opt.dataDir, sp.name+"-leg")
	dep, subs, err := setUp(ctx, sp, sc, dir, scn.motions(), scn.fences(), nil)
	if err != nil {
		return fmt.Errorf("concurrent leg set-up: %w", err)
	}
	clk := &clock{}
	clk.set(scn.now())
	querier := &queryClient{dep: dep, gen: newQueryGen(opt.seed+1, sp.mix), clk: clk}
	peer := peerOf(sp, dep, scn, clk, subs, opt.seed+2, 0)
	window := opt.warm
	alone := runClients(ctx, window, querier)[0]
	if sp.peer == peerSplit {
		window = 0
	}
	beside := runClients(ctx, window, querier, peer)
	for _, l := range append(beside, alone) {
		if l.failed > 0 {
			return fmt.Errorf("concurrent leg: %d calls failed, first: %w (and close: %v)", l.failed, l.firstErr, dep.close())
		}
	}
	vals["shard.latch.query_wait_ratio"] = ratio(ms(percentile(beside[0].lat, 50)), ms(percentile(alone.lat, 50)))
	vals["shard.split.query_stall_max_ms"] = 0
	if sp.peer == peerSplit {
		vals["shard.split.query_stall_max_ms"] = ms(maxDur(beside[0].lat))
	}
	return dep.close()
}

// routerLeg separates the router's own cost from the shards': the same
// query through the router and directly at each shard it overlaps, after
// one unmeasured pass that brings the query's pages into the pool, and
// alternating which goes first. The metric is the median difference — a
// small difference of two millisecond-sized times, so an estimate.
func routerLeg(ctx context.Context, dep *deployment, qs []dual.MORQuery, vals map[string]float64) error {
	if len(qs) > 200 {
		qs = qs[:200]
	}
	measure := func(q dual.MORQuery, bands []int) (time.Duration, error) {
		t0 := time.Now()
		if bands == nil {
			_, err := dep.Query(ctx, q)
			return time.Since(t0), err
		}
		for _, b := range bands {
			if _, err := dep.router.Shard(b).Query(ctx, q); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	diffs := make([]float64, 0, len(qs))
	for i, q := range qs {
		bands := dep.router.Partitioner().Overlapping(q)
		if _, err := measure(q, nil); err != nil {
			return err
		}
		var routed, direct time.Duration
		var err error
		if i%2 == 0 {
			routed, err = measure(q, nil)
		}
		if err == nil {
			direct, err = measure(q, bands)
		}
		if err == nil && i%2 == 1 {
			routed, err = measure(q, nil)
		}
		if err != nil {
			return err
		}
		diffs = append(diffs, us(routed-direct))
	}
	vals["shard.router.self_us_per_query"] = medianFloat(diffs)
	return nil
}

// runTraced is the traced run: one client replays a fixed script, first on
// the bare stack, then on a stack with a probe at every interface boundary
// the benchmark can supply, and the layers the probes cannot reach are
// timed in isolation on in-memory replicas fed the same inputs.
func runTraced(ctx context.Context, sp *spec, sc scale, opt options) (map[string]float64, *report, error) {
	rep := &report{}
	vals := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		vals[d.name] = 0 // a layer the workload leaves idle reads 0
	}
	// The recorder's span buffer is tens of megabytes of live heap, and
	// the collector paces itself by live heap: allocate it before the bare
	// replay too, so both replays run at the same collection rate and
	// their difference is the probes' cost, not the buffer's.
	rec := newRecorder()
	tl := topLevelOf(rec)
	if err := concurrentLeg(ctx, sp, sc, opt, vals); err != nil {
		return nil, nil, err
	}
	s, err := newScript(sp, sc, opt.seed)
	if err != nil {
		return nil, nil, err
	}

	// Bare replay: the timed equivalent of the traced one.
	bareDir := filepath.Join(opt.dataDir, sp.name+"-bare")
	dep, subs, err := setUp(ctx, sp, sc, bareDir, s.initial, s.scn.fences(), nil)
	if err != nil {
		return nil, nil, fmt.Errorf("bare set-up: %w", err)
	}
	runtime.GC()
	bare, err := play(ctx, dep, s, subs, nil)
	if err == nil {
		err = routerLeg(ctx, dep, s.queries(), vals)
	}
	if cerr := dep.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("bare replay: %w", err)
	}

	// Probed replay.
	probedDir := filepath.Join(opt.dataDir, sp.name+"-probed")
	dep, subs, err = setUp(ctx, sp, sc, probedDir, s.initial, s.scn.fences(), rec)
	if err != nil {
		return nil, nil, fmt.Errorf("probed set-up: %w", err)
	}
	ing0 := ingestStats(dep)
	runtime.GC()
	mark := len(rec.spans)
	probed, err := play(ctx, dep, s, subs, rec)
	if err != nil {
		return nil, nil, fmt.Errorf("probed replay: %w (and close: %v)", err, dep.close())
	}
	end := len(rec.spans)
	ing1 := ingestStats(dep)

	// The probes must not change what they measure: same answers, byte
	// for byte, as the bare stack gave.
	rep.attempted += int64(len(probed.digests))
	for i := range probed.digests {
		if probed.digests[i] != bare.digests[i] {
			rep.fail("query %d answered differently on the probed stack", i)
		}
	}
	// And the stack must be right: finish the half-applied tick, then ask
	// the oracle.
	if len(s.tail) > 0 {
		if _, err := timed(rec, tl.flush, func() error { return dep.Apply(ctx, s.tail) }); err != nil {
			return nil, nil, fmt.Errorf("flush: %w (and close: %v)", err, dep.close())
		}
	}
	checkAnswers(ctx, dep, s.scn, subs, sc.checks, opt.seed+3, rep)
	objects := len(s.initial)
	vals["shard.replication_factor"] = ratio(float64(dep.held()), float64(objects))
	if err := dep.close(); err != nil {
		return nil, nil, fmt.Errorf("close: %w", err)
	}
	var reopened *deployment
	openDur, err := timed(rec, tl.open, func() (err error) {
		reopened, err = openDeployment(sp, sc, probedDir, rec)
		return err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("reopen: %w", err)
	}
	nBands := len(reopened.shards())
	vals["shard.open.ms_per_shard"] = ratio(ms(openDur), float64(nBands))
	if err := reopened.close(); err != nil {
		return nil, nil, fmt.Errorf("close after reopen: %w", err)
	}

	queries, updates := len(probed.queryDur), s.updates()
	vals["shard.router.shards_per_query"] = ratio(float64(probed.shardsHit), float64(queries))
	bareQPS := ratio(float64(queries), sumDur(bare.queryDur).Seconds())
	probedQPS := ratio(float64(queries), sumDur(probed.queryDur).Seconds())
	vals["trace.overhead_pct"] = 100 * ratio(bareQPS-probedQPS, bareQPS)
	if sp.peer == peerSplit {
		vals["shard.split.ms_per_split"] = ms(meanDur(probed.peerDur))
	}
	if sp.ingest {
		probes := float64(ing1.RunProbes - ing0.RunProbes)
		skips := float64(ing1.BloomSkips - ing0.BloomSkips)
		falsePos := float64(ing1.BloomFalsePos - ing0.BloomFalsePos)
		vals["ingest.run_probes_per_query"] = ratio(probes, float64(queries))
		vals["ingest.bloom_skip_ratio"] = ratio(skips, skips+falsePos)
		vals["ingest.bloom_false_pos_ratio"] = ratio(falsePos, probes)
		vals["ingest.folds"] = float64(probed.folds)
		vals["ingest.fold_stall_max_ms"] = ms(probed.foldStall)
	}

	replicaWrites, err := isolationLegs(sp, s, vals)
	if err != nil {
		return nil, nil, fmt.Errorf("isolation legs: %w", err)
	}
	fromSpans(rec, mark, end, tl, queries, updates, replicaWrites, vals)

	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	spanFile := filepath.Join(opt.outDir, fmt.Sprintf("spans-%s.json", sp.name))
	if err := rec.write(spanFile, sp.name, opt.seed); err != nil {
		return nil, nil, err
	}
	rep.printf("replay: %d rounds, %d queries, %d motion updates, %d peer calls; bare %.0f queries/s, probed %.0f",
		len(s.rounds), queries, updates, len(probed.peerDur), bareQPS, probedQPS)
	rep.printf("spans: %d recorded, %d in the replay, written to %s", len(rec.spans), end-mark, spanFile)
	rep.printf("probes: %d answers identical on the bare and the probed stack", len(probed.digests))
	rep.printf("error_rate: %d of %d checks failed; %d boundary roundings within %.2f tolerated",
		rep.failed, rep.attempted, rep.rounded, roundingTolerance)
	return vals, rep, nil
}

// fromSpans derives the intercepted layers' metrics from the spans of the
// replay, spans[mark:end]. Counts are per query or per motion update of
// the request they happened under. replicaWrites is the isolation legs'
// page writes per update on the bare index, and vals already holds their
// core.query.us; both are subtracted from what the spans show.
func fromSpans(rec *recorder, mark, end int, tl topLevel, queries, updates int, replicaWrites float64, vals map[string]float64) {
	type agg struct {
		n   int64
		dur time.Duration
		sum int64 // of span.N
	}
	names := len(rec.names)
	under := make([][]agg, names) // [top-level name][span name]
	for i := range under {
		under[i] = make([]agg, names)
	}
	child := rec.childTime()
	isMiss := make([]bool, len(rec.spans))
	hasTruncate := make([]bool, len(rec.spans))
	id := rec.id
	walRead, truncate := id("wal.read"), id("filelog.truncate")
	for i := mark; i < end; i++ {
		s := rec.spans[i]
		a := &under[rec.spans[s.Req].Name][s.Name]
		a.n++
		a.dur += s.dur()
		a.sum += s.N
		if s.Name == walRead && s.Parent >= 0 {
			isMiss[s.Parent] = true
		}
		if s.Name == truncate {
			hasTruncate[s.Req] = true
		}
	}
	q, u := float64(queries), float64(updates)
	total := func(name int) agg {
		var t agg
		for top := range under {
			t.n += under[top][name].n
			t.dur += under[top][name].dur
			t.sum += under[top][name].sum
		}
		return t
	}
	mean := func(a agg) time.Duration {
		if a.n == 0 {
			return 0
		}
		return a.dur / time.Duration(a.n)
	}

	poolRead := id("pool.read")
	vals["pager.buffered.reads_per_query"] = ratio(float64(under[tl.query][poolRead].n), q)
	vals["pager.buffered.reads_per_update"] = ratio(float64(under[tl.apply][poolRead].n), u)
	vals["pager.buffered.hit_ratio"] = 1 - ratio(float64(total(walRead).n), float64(total(poolRead).n))
	var hit, miss agg
	var querySelf, applySelf, commit agg
	var stall time.Duration
	walCommit := id("wal.commit")
	for i := mark; i < end; i++ {
		s := rec.spans[i]
		switch s.Name {
		case poolRead:
			if isMiss[i] {
				miss.n, miss.dur = miss.n+1, miss.dur+s.dur()
			} else {
				hit.n, hit.dur = hit.n+1, hit.dur+s.dur()
			}
		case tl.query:
			querySelf.n, querySelf.dur = querySelf.n+1, querySelf.dur+s.dur()-child[i]
		case tl.apply:
			applySelf.n, applySelf.dur = applySelf.n+1, applySelf.dur+s.dur()-child[i]
			if hasTruncate[i] && s.dur() > stall {
				stall = s.dur()
			}
		case walCommit:
			if s.N == 1 && rec.spans[s.Req].Name == tl.apply { // the outermost Commit makes the batch durable
				commit.n, commit.dur = commit.n+1, commit.dur+s.dur()
			}
		}
	}
	vals["pager.buffered.hit_ns"] = float64(mean(hit).Nanoseconds())
	vals["pager.buffered.miss_us"] = us(mean(miss))
	vals["pager.wal.reads_per_query"] = ratio(float64(under[tl.query][walRead].n), q)
	vals["pager.wal.commit_ms"] = ms(mean(commit))
	vals["pager.wal.pages_per_commit"] = ratio(float64(under[tl.apply][id("wal.write")].n), float64(commit.n))
	vals["pager.filelog.append_bytes_per_update"] = ratio(float64(under[tl.apply][id("filelog.append")].sum), u)
	vals["pager.filelog.syncs_per_update"] = ratio(float64(under[tl.apply][id("filelog.sync")].n), u)
	vals["pager.filelog.sync_ms"] = ms(mean(total(id("filelog.sync"))))
	vals["pager.filestore.reads_per_query"] = ratio(float64(under[tl.query][id("filestore.read")].n), q)
	vals["pager.filestore.read_us"] = us(mean(total(id("filestore.read"))))
	vals["pager.filestore.write_bytes_per_update"] = ratio(float64(under[tl.apply][id("filestore.write")].n*pageSize), u)
	vals["pager.checkpoint.count"] = float64(total(truncate).n)
	vals["pager.checkpoint.stall_max_ms"] = ms(stall)
	if queries > 0 {
		vals["shard.query.self_us"] = us(mean(querySelf)) - vals["core.query.us"]
	}
	if updates > 0 {
		vals["shard.apply.self_ms_per_batch"] = ms(mean(applySelf))
		vals["shard.durable.page_writes_per_update"] = ratio(float64(under[tl.apply][id("pool.write")].n), u) - replicaWrites
	}
}
