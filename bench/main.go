// Command bench is the repository's one benchmark: it drives the real
// serving stack — shard.Cluster / shard.Router over shard.DirEnv, so
// pager.FileStore and pager.FileLog with real fsync — from one process
// with two closed-loop clients, checks every answer it samples against
// the brute-force oracle, and prints each metric by name and unit. The
// last line of output is one JSON object; see README.md for the metric
// dictionary and BENCHMARK.json at the repository root for the contract.
//
//	go run . -workload read_small            # untraced run, end-to-end metrics
//	go run . -workload read_small -trace 1   # traced run, per-layer metrics
//	go run . -workload all                   # every workload, one process each
//	go run . -selfcheck                      # two sets of runs must agree
//	go run . -spread 10                      # run-to-run spread of every metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type flags struct {
	workload   string
	seed       int64
	seconds    float64
	trace      int
	selfcheck  bool
	spread     int
	contract   bool
	dir        string
	out        string
	cpuprofile string
	memprofile string
	exectrace  string
}

func parseFlags(args []string) (*flags, error) {
	f := &flags{}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "all", "workload `name`, or all")
	fs.Int64Var(&f.seed, "seed", 1999, "seed every generated input derives from")
	fs.Float64Var(&f.seconds, "seconds", 15, "measured window of the untraced run")
	fs.IntVar(&f.trace, "trace", 0, "1 runs the traced, single-client replay and reports the per-layer metrics")
	fs.BoolVar(&f.selfcheck, "selfcheck", false, "measure every workload twice (medians of 3 untraced runs, 1 traced run) and fail if the two disagree")
	fs.IntVar(&f.spread, "spread", 0, "run each workload `n` times on n seeds and print each metric's median and inter-quartile spread")
	fs.BoolVar(&f.contract, "contract", false, "print BENCHMARK.json as the metric and workload tables define it, with -seconds as run_seconds")
	fs.StringVar(&f.dir, "dir", ".bench_build", "scratch `directory` for media and, by default, output")
	fs.StringVar(&f.out, "out", "", "`directory` for span files (default <dir>/out)")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to `file`")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a heap profile at exit to `file`")
	fs.StringVar(&f.exectrace, "exectrace", "", "write a runtime execution trace to `file`")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if f.trace != 0 && f.trace != 1 {
		return nil, fmt.Errorf("-trace is 0 or 1, got %d", f.trace)
	}
	if f.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %v", f.seconds)
	}
	if f.out == "" {
		f.out = filepath.Join(f.dir, "out")
	}
	return f, nil
}

func run(args []string) error {
	f, err := parseFlags(args)
	if err != nil {
		return err
	}
	if f.contract {
		doc, err := contract(int(f.seconds))
		if err != nil {
			return err
		}
		fmt.Println(string(doc))
		return nil
	}
	if f.selfcheck {
		return selfcheck(f)
	}
	if f.spread > 0 {
		return spread(f, f.spread)
	}
	if f.workload == "all" {
		// One process per workload, so peak RSS, /proc/self/io and
		// MemStats are that workload's alone.
		for i := range specs {
			if _, err := runChild(f, specs[i].name, f.trace, f.seed, os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	sp, err := specByName(f.workload)
	if err != nil {
		return err
	}
	stop, err := startProfiles(f)
	if err != nil {
		return err
	}
	res, rep, runErr := runOne(sp, f)
	if err := stop(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		return runErr
	}
	for _, line := range rep.lines {
		fmt.Println(" ", line)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d calls and checks failed", sp.name, res.Failed, res.Attempted)
	}
	return nil
}

// runOne runs one workload in this process and prints its metrics. It
// owns the run's scratch directory: the deployments a run leaves there go
// when the run is over.
func runOne(sp *spec, f *flags) (_ *result, _ *report, err error) {
	// Two clients, so two processors at most; recorded because before
	// Go 1.25 GOMAXPROCS ignores a container's CPU quota.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	opt := options{seed: f.seed, window: time.Duration(f.seconds * float64(time.Second)),
		warm: time.Second, dataDir: filepath.Join(f.dir, fmt.Sprintf("data-%d", os.Getpid())), outDir: f.out}
	if err := os.MkdirAll(opt.dataDir, 0o755); err != nil {
		return nil, nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(opt.dataDir); rerr != nil && err == nil {
			err = rerr
		}
	}()

	mode, defs := "untraced, 2 closed-loop clients", endToEnd
	runFn := runTimed
	if f.trace == 1 {
		mode, defs = "traced, 1 client, fixed op counts", perLayer
		runFn = runTraced
	}
	fmt.Printf("workload %s: %s\n  seed %d, window %.1fs, GOMAXPROCS %d of %d CPUs, %s\n",
		sp.name, sp.why, f.seed, f.seconds, procs, runtime.NumCPU(), mode)
	vals, rep, err := runFn(context.Background(), sp, fullScale, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	metrics, err := collect(defs, vals)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range defs {
		fmt.Printf("  %-40s %14.4f %s\n", d.name, vals[d.name], d.unit)
	}
	return &result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: metrics}, rep, nil
}

// startProfiles turns on whichever of the three profiles were asked for
// and returns the function that finishes them.
func startProfiles(f *flags) (func() error, error) {
	var stops []func() error
	stopAll := func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	if f.cpuprofile != "" {
		out, err := os.Create(f.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(out); err != nil {
			return nil, fmt.Errorf("%w (and close: %v)", err, out.Close())
		}
		stops = append(stops, func() error { pprof.StopCPUProfile(); return out.Close() })
	}
	if f.exectrace != "" {
		out, err := os.Create(f.exectrace)
		if err != nil {
			return nil, fmt.Errorf("%w (and stop: %v)", err, stopAll())
		}
		if err := trace.Start(out); err != nil {
			return nil, fmt.Errorf("%w (and stop: %v %v)", err, out.Close(), stopAll())
		}
		stops = append(stops, func() error { trace.Stop(); return out.Close() })
	}
	if f.memprofile != "" {
		stops = append(stops, func() error {
			out, err := os.Create(f.memprofile)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(out); err != nil {
				return fmt.Errorf("%w (and close: %v)", err, out.Close())
			}
			return out.Close()
		})
	}
	return stopAll, nil
}
