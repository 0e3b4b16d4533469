#!/bin/sh
# Repo verification gate: formatting, vet, the mobidxlint invariant
# suite, build, full tests (shuffled), the concurrency suites under the
# race detector, a GOMAXPROCS stress matrix for the parallel serving
# paths, smokes of the commands, the nested benchmark module's own vet and
# smoke test, fuzz smoke tests, and the non-test line and lint-allow counts.
set -eu

cd "$(dirname "$0")/.."

# Packages that run under the race detector. Every internal package that
# launches a goroutine anywhere (production or test code) must be listed;
# TestRaceGateCoverage in internal/analysis parses this assignment and
# fails if the list falls behind the code.
RACE_PKGS="./internal/pager/... ./internal/core/... ./internal/twod/... \
	./internal/kdtree/... ./internal/kinetic/... ./internal/ingest/... \
	./internal/leakcheck/... ./internal/shard/... ./internal/subscribe/... \
	./internal/workload/..."

echo "== gofmt -s =="
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== mobidxlint =="
# The project-invariant static-analysis suite (cmd/mobidxlint): buffer
# release pairing, WAL batch discipline, codec bounds, float equality,
# dropped errors, library panics, lock ordering, atomic/plain mixing,
# context flow, and goroutine lifecycle. Exits non-zero on any finding.
# The verbose run prints the load's and each pass's wall time.
go run ./cmd/mobidxlint -v ./...

echo "== go test (shuffled) =="
go test -shuffle=on ./...

echo "== go test -race (storage + parallel query + sharded serving layers) =="
# shellcheck disable=SC2086 — word splitting is the point
go test -race $RACE_PKGS

echo "== subscription storm (leak + race gated) =="
# The continuous-query engine under a live update storm: concurrent
# subscribe/unsubscribe/update/advance stress, Unsubscribe and Close
# mid-storm with leakcheck asserting no goroutine survives, and the
# differential oracle suite (churn leg included); then the router's one
# engine under concurrent Apply x Subscribe x Unsubscribe x Query, where
# the first Subscribe seeds the idle engine and the last Unsubscribe
# empties it, through live splits, revives and a failed write, and with
# readers running while a write holds the feed latch.
# -count=1 defeats the cache so the race detector really runs.
go test -race -count=1 -run 'Storm|Stress|Differential|Leak' ./internal/subscribe
go test -race -count=1 -run 'TestSubscribeStormOnRouter|TestSubscriptionsSurviveTopologyChanges|TestSubscriptionFeedFailure|TestQueryDuringSubscriptionFeed|TestWritesShareFeedLatch|TestRouterWriteCancelledKeepsSubs' \
	./internal/shard

echo "== chaos sweep (topology x fault, race-gated) =="
# The sharded-serving chaos harness: every topology through every fault
# scenario with deterministic seeds, asserting byte-identical no-fault
# answers, exact healthy-union degraded answers with typed PartialErrors,
# and zero goroutine leaks — all under the race detector.
go test -race -count=1 -run 'TestChaos' ./internal/shard/chaostest

echo "== cluster crash sweep (kill points x fault schedules x topologies, race-gated) =="
# The durable-cluster lifecycle harness: kill-and-reopen a live band split
# at every write/sync boundary under every media failure mode and
# topology, asserting one manifest-proven topology on reboot (never a
# mix), byte-identical recovered answers, and idempotent resume; plus the
# fault-injected (non-crash) migration resume path, the served-cluster
# bit-flip sweep (one seeded byte of each page slot and of its CRC trailer
# flipped in a closed shard's pages file: every reopen is refused with
# ErrPageCorrupt/ErrBadMeta, degrades that band to a PartialError, or
# answers the oracle exactly — never a wrong answer), and the durable
# shard recovery/lifecycle tests. With them run the write admission rule:
# a shard write is refused before its batch or runs to completion
# (TestShardAdmittedWriteRunsToEnd), a router write cancelled at one
# band's commit still lands on every band (TestClusterCancelledWriteLandsOnEveryBand),
# and an ingest shard's failed install or refused build quarantines it
# and marks its band stale (TestShardIngestQuarantineOnFailedInstall,
# TestShardIngestQuarantineOnRefusedBuild).
go test -race -count=1 -run 'TestClusterCrashSweep|TestClusterSplitFaultResume|TestClusterBitFlipSweep' \
	./internal/shard/chaostest
go test -race -count=1 -run 'TestCluster|TestShardCloseDuringReads|TestPartialError|TestShardAdmittedWriteRunsToEnd|TestShardIngestQuarantineOn' \
	./internal/shard

echo "== ingest crash sweep (fold kill points x media modes, race-gated) =="
# The log-structured write tier's recovery harness: kill an ingesting
# shard at every log/base write-and-sync boundary across staged deltas
# and base folds under every media failure mode, asserting the
# reboot lands on a batch boundary (complete or absent, never torn),
# answers a brute-force oracle exactly, and keeps folding afterwards;
# plus the pager's commit tests (a failed append, sync or truncate; a
# commit durable across a reopen).
go test -race -count=1 -run 'TestIngestCrashSweep' ./internal/shard/chaostest
go test -race -count=1 -run 'TestWALCommit' ./internal/pager

echo "== I/O off the read path (race-gated) =="
# A checkpoint parked inside a base Write or Sync, or a write batch parked
# inside its log fsync, must not stall readers: a shard Query, WALStore
# View and Read, and a FileStore Read all return while it is parked, and
# see the published batch; a batch begun meanwhile, or already open when
# the fsync began, waits and lands after it; the write is not
# acknowledged before its fsync ends. A fold or a BulkLoad parked inside
# a page write of the index it builds must not stall readers either: they
# answer the pre-batch state, and the write returns after the build. A failed
# checkpoint still acknowledges the durable batch that made it due, and a
# failed log fsync quarantines the shard and feeds its batch to no
# subscription. Each deadlocks or times out if the I/O runs under a latch
# readers take. A pool miss fetches its page off the pool's latch, and a
# write, free or clear of that page landing meanwhile wins: the miss does
# not cache its older image (TestBufferedMissKeepsLaterWrite).
go test -race -count=1 -run 'TestWALCheckpointIOPhase|TestWALLogSyncOffLatch|TestWALSyncCoversLaterBatch|TestFileStoreReadDuringSync|TestBufferedMissKeepsLaterWrite' ./internal/pager
go test -race -count=1 -run 'TestShardQueryDuringCheckpoint|TestShardCheckpointFailureAcksBatch|TestShardQueryDuringLogSync|TestShardSyncFailureQuarantines|TestShardQueryDuringFold|TestShardQueryDuringBulkLoad' \
	./internal/shard
go test -race -count=1 -run 'TestTierQueryDuringFoldBuild' ./internal/ingest

echo "== stress matrix (GOMAXPROCS=1,4) =="
# The concurrency tests must hold both when goroutines interleave on one
# processor (maximal context-switch churn) and when they run truly in
# parallel. -count=1 defeats the test cache so both settings really run.
for procs in 1 4; do
	echo "-- GOMAXPROCS=$procs --"
	GOMAXPROCS=$procs go test -count=1 \
		-run 'Concurrent|Parallel|Stress|StatsDuringBuild|Executor|Router|CloseUnderLoad' \
		./internal/pager ./internal/core ./internal/twod \
		./internal/kdtree ./internal/kinetic \
		./internal/ingest ./internal/shard ./internal/shard/chaostest
done

echo "== zero-allocation gates =="
# The steady-state query hot loops must stay allocation-free above the
# buffer pool — a B+-tree point query (TestPointQueryZeroAlloc) and a
# range scan with a callback (TestRangeZeroAlloc) — and a non-structural
# Insert/Delete must allocate nothing but the one page image the stores
# below share (TestUpdateZeroAllocAboveStores);
# in the pager a commit allocates the same for 8 staged pages as for 512,
# a MemStore Allocate one image, a pool write one image, a pool miss on a page the WAL holds only the
# frame header, a pool hit nothing (TestPoolHitZeroAlloc), and a FileStore
# write (trailer included) nothing; in the
# subscription engine an upsert or a certificate
# fire that changes no membership allocates nothing; a serving query
# allocates its answer and a fixed handful of small objects on one worker
# and on two (TestQueryAllocatesOnlyItsAnswer), and the router returns a
# single band's answer without copying it (TestRouterQueryNoSecondCopy).
# A bulk rebuild (DualBPlus.Build plus its install, an ingest fold)
# allocates the page images it writes and a bounded per-motion scratch
# beside them (TestBuildZeroAllocBeyondPages).
# testing.AllocsPerRun makes a regression a test failure.
go test -count=1 -run 'ZeroAlloc' ./internal/bptree ./internal/pager ./internal/subscribe ./internal/core
go test -count=1 -run 'TestQueryAllocatesOnlyItsAnswer|TestRouterQueryNoSecondCopy' ./internal/core ./internal/shard

echo "== bench smoke =="
# One iteration of each benchmark: catches bit-rot in the benchmark code
# (and the bulk-vs-incremental build paths it drives) without timing
# anything. internal/core's BenchmarkQueryParallel is the standing guard
# for reader contention: run it with -cpu 1,2 to time it. internal/pager's
# BenchmarkWALCommitCycle (one shard's durable commits and due checkpoints
# on real files) attributes the write path's fsync cost to the WAL: time
# it with -benchtime 400x -count 5 against the parent commit. Its
# BenchmarkBufferedView times a pool hit and a miss on one and two
# goroutines: time it with -count 5 against the parent commit.
# internal/shard's BenchmarkCatalogReplay (one enumeration of a 50k-motion
# catalog, as rewritten and with 10k update pairs appended) attributes a
# split's catalog reads to the catalog: time it with -benchtime 20x
# -count 5 against the parent commit.
go test -run '^$' -bench . -benchtime=1x ./internal/bptree ./internal/pager ./internal/subscribe \
	./internal/core ./internal/ingest ./internal/shard

echo "== command smokes =="
# The commands have no test files. mobbench runs its quickest sweep,
# verifies E5 against brute force, and treats a -fig value it does not
# know as a usage error rather than a silent no-op. A mobgen dump
# replayed through mobtrace must answer every recorded query exactly on
# the Dual-B+ and the R*-tree, as EXPERIMENTS.md claims. mobsim must
# verify a tiny scenario on every method and refuse a method it does not
# know. mobtrace must refuse a query row stamped before tick 0 instead
# of waiting forever for that tick.
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke" ./cmd/mobbench ./cmd/mobgen ./cmd/mobsim ./cmd/mobtrace
"$smoke/mobbench" -fig e7 >/dev/null
"$smoke/mobbench" -fig e5 -ns 2000 -ticks 10 -verify >/dev/null
if "$smoke/mobbench" -fig nosuch >/dev/null 2>&1; then
	echo "mobbench -fig nosuch exited 0" >&2
	exit 1
fi
"$smoke/mobgen" -n 2000 -ticks 10 -ops "$smoke/ops.csv" -queries "$smoke/q.csv"
for m in dualbp rstar; do
	out=$("$smoke/mobtrace" -method "$m" -ops "$smoke/ops.csv" -queries "$smoke/q.csv")
	echo "mobtrace -method $m: $out"
	case $out in
	*" 0 within rounding, 0 diverged"*) ;;
	*)
		echo "mobtrace -method $m did not answer every query exactly" >&2
		exit 1
		;;
	esac
done
for m in dualbp kd rstar parttree; do
	"$smoke/mobsim" -method "$m" -n 1000 -ticks 5 -verify >/dev/null
done
if "$smoke/mobsim" -method nosuch -n 100 -ticks 1 >/dev/null 2>&1; then
	echo "mobsim -method nosuch exited 0" >&2
	exit 1
fi
printf 'tick,op,oid,y0,t0,v\n0,I,0,10,0,1\n' >"$smoke/neg_ops.csv"
printf 'tick,mix,y1,y2,t1,t2,answer\n-1,1%%,0,10,0,5,1\n' >"$smoke/neg_q.csv"
status=0
timeout 10 "$smoke/mobtrace" -ops "$smoke/neg_ops.csv" -queries "$smoke/neg_q.csv" >/dev/null 2>&1 || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ]; then
	echo "mobtrace on a negative-tick query row exited $status, want an input error" >&2
	exit 1
fi

echo "== benchmark module (bench/) =="
# bench/ is a module of its own, so nothing above builds it. Vet it and run
# its smoke test — all six workloads, traced and untraced, at 1/40 size —
# so a change to bptree, pager or shard cannot silently break the
# benchmark the driver runs.
(cd bench && go vet . && go test -count=1 .)

echo "== fuzz smoke =="
# A B+-tree page image as arbitrary bytes: through the checks every read
# trusts a node through (type, count, child pointers, Attach's root), then
# planted on the descent of every operation — Insert, Delete, Get, Range,
# Ceil, Floor, CheckInvariants, Destroy, Attach: ErrPageCorrupt or an
# answer, never a panic, a hang or a failed mutation that moved Len().
go test ./internal/bptree -run '^$' -fuzz '^FuzzDecodeNode$' -fuzztime=10s
# One execution builds eighteen trees, and these two six, so the default
# 60 s minimisation budget would swallow the whole smoke.
go test ./internal/bptree -run '^$' -fuzz '^FuzzMutateHostileImage$' -fuzztime=10s -fuzzminimizetime=1s
go test ./internal/kdtree -run '^$' -fuzz '^FuzzHostileImage$' -fuzztime=10s -fuzzminimizetime=1s
go test ./internal/parttree -run '^$' -fuzz '^FuzzHostileImage$' -fuzztime=10s -fuzzminimizetime=1s
# An R*-tree page image planted on the descent of a search, Delete and Insert.
go test ./internal/rstar -run '^$' -fuzz '^FuzzHostileImage$' -fuzztime=10s -fuzzminimizetime=1s
# Arbitrary entries, tiled so short inputs cross the radix cutoff, through
# SortEntries against a stable comparison sort: the same order, bit for bit.
go test ./internal/bptree -run '^$' -fuzz '^FuzzSortEntries$' -fuzztime=10s
# A pages file as arbitrary bytes: a store or ErrBadMeta, never a panic or
# an endless chain walk; an opened store then reads every live page, each
# verified against its slot's trailer or ErrPageCorrupt. The 8 KB seed
# image makes minimising a find slow.
go test ./internal/pager -run '^$' -fuzz '^FuzzOpenFileStore$' -fuzztime=10s -fuzzminimizetime=1s
go test ./internal/pager -run '^$' -fuzz '^FuzzDecodeWALRecord$' -fuzztime=10s
go test ./internal/geom -run '^$' -fuzz '^FuzzClipConvex$' -fuzztime=10s
go test ./internal/subscribe -run '^$' -fuzz '^FuzzMatcher$' -fuzztime=10s
go test ./internal/subscribe -run '^$' -fuzz '^FuzzKineticBoundary$' -fuzztime=10s
# Arbitrary float bits through History's Begin, End and QueryPast over an
# archive of well-formed trajectories: a typed ErrInvalidMotion or
# ErrInvalidQuery, or the answer of a linear scan over the archived
# pieces; never a panic or an answer lost to a poisoned R*-tree.
go test ./internal/core -run '^$' -fuzz '^FuzzHistoryHostile$' -fuzztime=10s
# Arbitrary float bits through Router.Apply and Router.Query on a two-band
# cluster: a typed ErrInvalidMotion/ErrInvalidQuery with every shard still
# healthy, or the brute-force answer; never a panic or a quarantine.
go test ./internal/shard -run '^$' -fuzz '^FuzzRouterApplyHostile$' -fuzztime=10s

echo "== least code =="
# ROADMAP aim 2's number — non-test, non-bench/, non-testdata Go lines —
# printed by the gate so that a simplicity PR quotes a measured count.
echo "non-test Go lines: $(find . -name '*.go' -not -name '*_test.go' \
	-not -path './bench/*' -not -path '*/testdata/*' | xargs cat | wc -l)"
# The suppressions are counted too: every directive outside the lint
# suite's own fixtures, test files included; one quoted inside a doc
# comment is not a directive.
echo "mobidxlint:allow directives: $(grep -rE --include='*.go' \
	--exclude-dir=testdata '//mobidxlint:allow [a-z,]+ -- ' . |
	grep -cvE '//[[:space:]]+//mobidxlint')"

echo "verify: all checks passed"
