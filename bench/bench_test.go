package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Every workload, untraced and traced, at smoke-test size: all answers
// right, no call failed, and every metric of the vocabulary measured.
func TestWorkloadsShort(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		t.Run(sp.name, func(t *testing.T) {
			dir := t.TempDir()
			opt := options{seed: 1999, window: 500 * time.Millisecond, warm: 50 * time.Millisecond,
				dataDir: filepath.Join(dir, "data"), outDir: filepath.Join(dir, "out")}
			for _, mode := range []struct {
				name string
				run  func(context.Context, *spec, scale, options) (map[string]float64, *report, error)
				defs []metricDef
			}{{"untraced", runTimed, endToEnd}, {"traced", runTraced, perLayer}} {
				vals, rep, err := mode.run(context.Background(), sp, shortScale, opt)
				if err != nil {
					t.Fatalf("%s: %v", mode.name, err)
				}
				if rep.failed != 0 || rep.attempted == 0 {
					t.Errorf("%s: %d of %d calls and checks failed: %v", mode.name, rep.failed, rep.attempted, rep.lines)
				}
				if _, err := collect(mode.defs, vals); err != nil {
					t.Errorf("%s: %v", mode.name, err)
				}
				for name, v := range vals {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: %s = %v", mode.name, name, v)
					}
				}
				if mode.name == "untraced" {
					for _, d := range endToEnd {
						if vals[d.name] <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, vals[d.name])
						}
					}
				}
			}
			if _, err := os.Stat(filepath.Join(opt.outDir, "spans-"+sp.name+".json")); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// Layers a workload leaves idle must read 0 there, and the cache relation
// each read workload is built around must show in the pool's hit ratio.
func TestLayerSeparationShort(t *testing.T) {
	dir := t.TempDir()
	run := func(name string) map[string]float64 {
		sp, err := specByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt := options{seed: 3, warm: 20 * time.Millisecond, dataDir: filepath.Join(dir, name), outDir: filepath.Join(dir, "out")}
		vals, _, err := runTraced(context.Background(), sp, shortScale, opt)
		if err != nil {
			t.Fatal(err)
		}
		return vals
	}
	read := run("read_small")
	for _, name := range []string{"pager.filelog.syncs_per_update", "ingest.query_overlay_ratio", "ingest.add_us_per_op",
		"subscribe.deltas_per_tick", "core.update.us", "shard.split.ms_per_split"} {
		if read[name] != 0 {
			t.Errorf("read_small: %s = %v, want 0", name, read[name])
		}
	}
	if read["pager.buffered.reads_per_query"] <= 0 || read["core.query.us"] <= 0 || read["bptree.get.ns"] <= 0 {
		t.Errorf("read_small did not exercise the read path: %v", read)
	}
	ingest := run("mixed_ingest")
	if ingest["ingest.query_overlay_ratio"] <= 0 || ingest["pager.filelog.syncs_per_update"] <= 0 {
		t.Errorf("mixed_ingest: overlay ratio %v, syncs per update %v", ingest["ingest.query_overlay_ratio"], ingest["pager.filelog.syncs_per_update"])
	}
	feed := run("subscribe_feed")
	if feed["subscribe.deltas_per_tick"] <= 0 || feed["ingest.query_overlay_ratio"] != 0 {
		t.Errorf("subscribe_feed: deltas per tick %v, overlay ratio %v", feed["subscribe.deltas_per_tick"], feed["ingest.query_overlay_ratio"])
	}
}

// The traced run's counts must repeat exactly for a seed.
func TestTracedCountsRepeat(t *testing.T) {
	sp, err := specByName("mixed_direct")
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]map[string]float64
	for i := range runs {
		dir := t.TempDir()
		opt := options{seed: 11, warm: 20 * time.Millisecond, dataDir: filepath.Join(dir, "data"), outDir: filepath.Join(dir, "out")}
		if runs[i], _, err = runTraced(context.Background(), sp, shortScale, opt); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range perLayer {
		if d.unit == "count" && runs[0][d.name] != runs[1][d.name] {
			t.Errorf("%s: %v then %v", d.name, runs[0][d.name], runs[1][d.name])
		}
	}
}

// BENCHMARK.json at the repository root must be what the tables render.
func TestContractMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no contract beside the benchmark: %v", err)
	}
	var onDisk struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	want, err := contract(onDisk.RunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(string(raw)) != string(want) {
		t.Errorf("BENCHMARK.json differs from `go run . -contract -seconds %d`", onDisk.RunSeconds)
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds %d", onDisk.RunSeconds)
	}
	for _, sp := range specs {
		if len(sp.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", sp.name, len(sp.why))
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(ds[:6], 95); got != 100 {
		t.Errorf("p95 of six samples = %v, want the maximum", got)
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

func TestMidmeanIgnoresTails(t *testing.T) {
	// Quartiles of eight samples cut off two at each end.
	ds := []time.Duration{1000, 1, 4, 5, 2, 6, 7, 3}
	if got := midmean(ds); got != (3+4+5+6)/4 {
		t.Errorf("midmean = %v, want the mean of 3..6", got)
	}
	if got := midmean(ds[:1]); got != 1000 {
		t.Errorf("midmean of one sample = %v", got)
	}
	if midmean(nil) != 0 {
		t.Error("midmean of nothing is not 0")
	}
}
