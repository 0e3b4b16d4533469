package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported number. The tables below are the single
// source of the benchmark's vocabulary: BENCHMARK.json repeats them (a
// test checks the two agree) and later issues refer to these names.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of the serving stack sees. Every workload
// reports every one of them from the untraced, two-client run; the
// per-workload meaning of the peer_* metrics is in specs (spec.peerDoes).
//
// A bound is max(10%, 2 × spread) capped at the contract's 25%, where
// spread is the widest inter-quartile range over median any workload
// showed across ten seeds (README.md has the tables). This sandbox runs
// at one of two speeds a tenth or more apart for minutes at a time, so
// every wall-clock metric sits at the cap; the three that count bytes do
// not.
//
// Not here, because they did not repeat within their bound: the time to
// reopen (a third apart on the small deployments; the traced run's
// shard.open.ms_per_shard has fixed work to time) and the resident-set
// high-water mark (a fifth apart: it is the collector's pacing during the
// bulk load). The run still reopens once, as its durability check, and
// prints both. heap_live_mb is the memory metric: what is still reachable
// after a forced collection when the window closes.
//
// The query tail is p95, not p99: the 99th percentile sat on the edge
// between the few calls a split or a checkpoint stalls and ordinary ones
// and swung by half between identical runs; shard.split.query_stall_max_ms
// reports the stall. The peer's latency is an interquartile mean, not a
// median: on mixed_direct an Apply beside the reader takes 6-8 ms or
// 15-25 ms, about half and half (p45 8.8, p50 9.9, p55 12.3 ms), so the
// median sat on the step between the two and read 9.9-12.4 ms over ten
// seeds, a spread of 13%, where the interquartile mean moved half as much;
// it also makes more of six splits than their middle two. The peer has no tail metric: a run makes six
// splits and 75 feed ticks, too few to have ten samples beyond any
// percentile worth the name. Its p95 is printed where it has the samples,
// and pager.checkpoint.stall_max_ms and ingest.fold_stall_max_ms report
// what lands in it.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_per_s", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"peer_per_s", "1/s", "higher", 0.25},
	{"peer_mid_ms", "ms", "lower", 0.25},
	{"disk_bytes_per_object", "B", "lower", 0.20},
	{"alloc_bytes_per_op", "B", "lower", 0.20},
	{"heap_live_mb", "MiB", "lower", 0.25},
}

// perLayer lists the traced run's numbers, one prefix per module of this
// repository. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"shard.router.self_us_per_query", "us", "lower", 0},
	{"shard.router.shards_per_query", "count", "lower", 0},
	{"shard.replication_factor", "ratio", "lower", 0},
	{"shard.query.self_us", "us", "lower", 0},
	{"shard.apply.self_ms_per_batch", "ms", "lower", 0},
	{"shard.durable.page_writes_per_update", "count", "lower", 0},
	{"shard.latch.query_wait_ratio", "ratio", "lower", 0},
	{"shard.split.ms_per_split", "ms", "lower", 0},
	{"shard.split.query_stall_max_ms", "ms", "lower", 0},
	{"shard.open.ms_per_shard", "ms", "lower", 0},
	{"ingest.add_us_per_op", "us", "lower", 0},
	{"ingest.query_overlay_ratio", "ratio", "lower", 0},
	{"ingest.run_probes_per_query", "count", "lower", 0},
	{"ingest.bloom_skip_ratio", "ratio", "higher", 0},
	{"ingest.bloom_false_pos_ratio", "ratio", "lower", 0},
	{"ingest.folds", "count", "lower", 0},
	{"ingest.fold_stall_max_ms", "ms", "lower", 0},
	{"core.query.us", "us", "lower", 0},
	{"core.query.subqueries", "count", "lower", 0},
	{"core.query.candidates_per_result", "ratio", "lower", 0},
	{"core.update.us", "us", "lower", 0},
	{"core.update.alloc_bytes", "B", "lower", 0},
	{"core.bulkload.ms_per_100k", "ms", "lower", 0},
	{"core.merge.us_per_1k_ids", "us", "lower", 0},
	{"dual.matches.ns", "ns", "lower", 0},
	{"bptree.get.ns", "ns", "lower", 0},
	{"bptree.ceil.ns", "ns", "lower", 0},
	{"bptree.pages_per_get", "count", "lower", 0},
	{"bptree.range.ns_per_entry", "ns", "lower", 0},
	{"bptree.insert.us", "us", "lower", 0},
	{"bptree.delete.us", "us", "lower", 0},
	{"bptree.insert.alloc_bytes", "B", "lower", 0},
	{"bptree.bulkload.ns_per_entry", "ns", "lower", 0},
	{"pager.buffered.reads_per_query", "count", "lower", 0},
	{"pager.buffered.reads_per_update", "count", "lower", 0},
	{"pager.buffered.hit_ratio", "ratio", "higher", 0},
	{"pager.buffered.hit_ns", "ns", "lower", 0},
	{"pager.buffered.miss_us", "us", "lower", 0},
	{"pager.wal.reads_per_query", "count", "lower", 0},
	{"pager.wal.commit_ms", "ms", "lower", 0},
	{"pager.wal.pages_per_commit", "count", "lower", 0},
	{"pager.filelog.append_bytes_per_update", "B", "lower", 0},
	{"pager.filelog.syncs_per_update", "count", "lower", 0},
	{"pager.filelog.sync_ms", "ms", "lower", 0},
	{"pager.filestore.reads_per_query", "count", "lower", 0},
	{"pager.filestore.read_us", "us", "lower", 0},
	{"pager.filestore.write_bytes_per_update", "B", "lower", 0},
	{"pager.checkpoint.count", "count", "lower", 0},
	{"pager.checkpoint.stall_max_ms", "ms", "lower", 0},
	{"subscribe.apply.us_per_update", "us", "lower", 0},
	{"subscribe.candidates_per_update", "count", "lower", 0},
	{"subscribe.advance.ms_per_tick", "ms", "lower", 0},
	{"subscribe.cert_fires_per_tick", "count", "lower", 0},
	{"subscribe.stale_event_ratio", "ratio", "lower", 0},
	{"subscribe.drain.us_per_sub", "us", "lower", 0},
	{"subscribe.deltas_per_tick", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints, exactly these keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect turns measured values into the result's metrics object in the
// vocabulary of defs, failing on a value the run did not produce so a
// forgotten metric is a loud error and never a silent zero.
func collect(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the benchmark's vocabulary", name)
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// the samples, or 0 for none. It sorts a copy.
func percentile(samples []time.Duration, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p/100*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// midmean is the interquartile mean: the mean of the samples between the
// first and the third quartile, or 0 for none. Like a median it ignores
// both tails; unlike one it does not jump when the distribution has a
// step at its middle.
func midmean(samples []time.Duration) time.Duration {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return meanDur(s[len(s)/4 : len(s)-len(s)/4])
}

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sumDur(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return sumDur(ds) / time.Duration(len(ds))
}

func maxDur(ds []time.Duration) time.Duration {
	var m time.Duration
	for _, d := range ds {
		if d > m {
			m = d
		}
	}
	return m
}

// ratio is a/b, or 0 when there is nothing to divide by — the reading of
// a layer the workload did not exercise.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procField reads one "key: value [kB]" line of a /proc/self file.
func procField(file, key string) (int64, error) {
	f, err := os.Open(file)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok || k != key {
			continue
		}
		fields := strings.Fields(v)
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("%s: no %s line", file, key)
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	kb, err := procField("/proc/self/status", "VmHWM")
	return float64(kb) / 1024, err
}

// writtenBytes is the process's cumulative write(2) volume.
func writtenBytes() (int64, error) { return procField("/proc/self/io", "wchar") }
