package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runChild runs one workload in a process of its own — this binary again —
// copying its output to out, and returns the result it printed last.
func runChild(f *flags, workload string, trace int, seed int64, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(f.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
		"-dir", f.dir, "-out", f.out}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	var copyErr error
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		last = sc.Text()
		if _, err := fmt.Fprintln(out, last); err != nil && copyErr == nil {
			copyErr = err
		}
	}
	scanErr := sc.Err()
	if scanErr == nil {
		scanErr = copyErr
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", workload, err)
	}
	if scanErr != nil {
		return nil, scanErr
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("workload %s: last line is not a result: %w", workload, err)
	}
	return &res, nil
}

// contract renders BENCHMARK.json from the tables this package measures
// by, so the file at the repository root cannot drift from the code:
//
//	go run . -contract > ../BENCHMARK.json
func contract(runSeconds int) ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, sp := range specs {
		doc.Workloads = append(doc.Workloads, workload{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.name, d.unit, d.better})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// selfcheckRuns is how many runs make one of the self-check's two sets; a
// set's reading of a metric is the median of its runs, as the bounds are
// bounds on medians.
const selfcheckRuns = 3

// selfcheck is the repeatability gate: the same code, measured twice, must
// agree with itself — every end-to-end metric's two medians within its
// bound, and every count the traced run reports exactly, since one client
// with fixed op counts leaves nothing to chance.
func selfcheck(f *flags) error {
	bad := 0
	for i := range specs {
		name := specs[i].name
		var timed [2]map[string][]float64
		var traced [2]*result
		for k := range timed {
			timed[k] = make(map[string][]float64)
			for r := 0; r < selfcheckRuns; r++ {
				res, err := runChild(f, name, 0, f.seed, io.Discard)
				if err != nil {
					return err
				}
				for metric, v := range res.Metrics {
					timed[k][metric] = append(timed[k][metric], v.Value)
				}
			}
			var err error
			if traced[k], err = runChild(f, name, 1, f.seed, io.Discard); err != nil {
				return err
			}
		}
		for _, d := range endToEnd {
			a, b := medianFloat(timed[0][d.name]), medianFloat(timed[1][d.name])
			diff := ratio(math.Abs(a-b), math.Min(math.Abs(a), math.Abs(b)))
			verdict := "ok"
			if diff > d.bound {
				verdict = fmt.Sprintf("DIFFERS by more than %.0f%%", 100*d.bound)
				bad++
			}
			fmt.Printf("%-15s %-40s %14.4f %14.4f %6.1f%% %s\n", name, d.name, a, b, 100*diff, verdict)
		}
		for _, d := range perLayer {
			if d.unit != "count" {
				continue
			}
			a, b := traced[0].Metrics[d.name].Value, traced[1].Metrics[d.name].Value
			verdict := "ok"
			if a != b {
				verdict = "COUNT DIFFERS"
				bad++
			}
			fmt.Printf("%-15s %-40s %14.4f %14.4f         %s\n", name, d.name, a, b, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics disagree between two measurements of the same code", bad)
	}
	fmt.Println("selfcheck: two sets of runs agree")
	return nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which is
// how the benchmark's bounds are judged.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread runs every selected workload runs times, each with another seed,
// and prints per end-to-end metric the median and the inter-quartile range
// as a share of it — the table the bounds in BENCHMARK.json are set from.
func spread(f *flags, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-spread needs at least 2 runs, got %d", runs)
	}
	for i := range specs {
		name := specs[i].name
		if f.workload != "all" && f.workload != name {
			continue
		}
		samples := make(map[string][]float64)
		for k := 0; k < runs; k++ {
			res, err := runChild(f, name, 0, f.seed+int64(k), io.Discard)
			if err != nil {
				return err
			}
			for metric, v := range res.Metrics {
				samples[metric] = append(samples[metric], v.Value)
			}
		}
		for _, d := range endToEnd {
			q1, q3 := quartiles(samples[d.name])
			med := medianFloat(samples[d.name])
			fmt.Printf("%-15s %-24s median %14.4f %-4s iqr/median %6.2f%%  runs %.4g\n",
				name, d.name, med, d.unit, 100*ratio(q3-q1, med), samples[d.name])
		}
	}
	return nil
}
