// Command mobbench regenerates the paper's evaluation: Figures 6-9 of §5
// (query I/Os, space, update I/Os for the five access methods) and the
// analytic ablations E5-E8 catalogued in DESIGN.md.
//
// Reproduce the §5 figures at paper scale with:
//
//	mobbench -fig figures -ns 100000,200000,300000,400000,500000 -ticks 2000
//
// The default configuration is laptop-sized; -ticks and -ns trade fidelity
// for time (the measured shapes are stable in both).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mobidx/internal/harness"
	"mobidx/internal/workload"
)

// figChoices are the values -fig accepts.
const figChoices = "figures|e5|e6|e7|e8|all"

func main() {
	var (
		fig      = flag.String("fig", "all", "what to run: "+figChoices)
		nsFlag   = flag.String("ns", "20000,40000,60000,80000,100000", "comma-separated object counts for the figures")
		ticks    = flag.Int("ticks", 200, "scenario length in time instants (paper: 2000)")
		verify   = flag.Bool("verify", false, "cross-check every query against brute force (slow)")
		partTree = flag.Bool("parttree", false, "include the §3.4 partition tree in the figures")

		build    = flag.Bool("build", false, "run the incremental-vs-bulk construction benchmark instead of the figures")
		buildN   = flag.Int("buildn", 100000, "records per structure for -build")
		buildOut = flag.String("buildout", "BENCH_build.json", "output file for the -build report")
	)
	flag.Parse()

	if *build {
		if err := runBuild(*buildN, *buildOut); err != nil {
			fmt.Fprintf(os.Stderr, "mobbench: build: %v\n", err)
			os.Exit(1)
		}
		return
	}

	switch strings.ToLower(*fig) {
	case "figures", "e5", "e6", "e7", "e8", "all":
	default:
		fmt.Fprintf(os.Stderr, "mobbench: unknown -fig %q (accepted: %s)\n", *fig, figChoices)
		flag.Usage()
		os.Exit(2)
	}

	ns, err := parseInts(*nsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobbench: bad -ns: %v\n", err)
		os.Exit(1)
	}

	run := func(name string, f func() error) {
		if *fig != "all" && !strings.EqualFold(*fig, name) {
			return
		}
		start := time.Now()
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "mobbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Second))
	}

	run("figures", func() error {
		tr := workload.DefaultParams(1).Terrain
		methods := harness.PaperMethods(tr)
		if *partTree {
			methods = append(methods, harness.PartTreeMethod(tr))
		}
		fmt.Printf("Running §5 scenario: N in %v, %d ticks, %d methods (this is the long part)\n",
			ns, *ticks, len(methods))
		fs, err := harness.RunFigures(methods, ns, *ticks, *verify, func(line string) {
			fmt.Println("  " + line)
		})
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(fs.String())
		return nil
	})

	run("e5", func() error {
		n := 50000
		if len(ns) > 0 {
			n = ns[0]
		}
		rows, err := harness.ApproxErrorSweep(n, min(*ticks, 100), []int{2, 4, 6, 8, 12, 16})
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatApproxSweep(rows))
		return nil
	})

	run("e6", func() error {
		// Crossings grow ~N²·horizon/terrain; these combinations keep M
		// (and hence the O(n+m) structure) laptop-sized while spanning two
		// decades of n+m.
		rows, err := harness.KineticSweep([]int{10000, 20000, 40000}, []float64{5, 20}, 50, 1999)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatKineticSweep(rows))
		return nil
	})

	run("e7", func() error {
		rows, err := harness.PartTreeSweep([]int{20000, 80000, 320000}, 1999)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatPartTreeSweep(rows))
		return nil
	})

	run("e8", func() error {
		rows, err := harness.TwoDScenario(20000, min(*ticks, 100), 100, 1999)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatTwoD(rows))
		routed, err := harness.RoutedScenario(10, 1000, min(*ticks, 100), 100, 1999)
		if err != nil {
			return err
		}
		fmt.Println(harness.FormatRouted(routed))
		return nil
	})
}

// runBuild measures incremental vs bulk construction for every access
// method and writes the machine-readable report to outPath.
func runBuild(n int, outPath string) error {
	fmt.Printf("Build benchmark: %d records per structure, incremental vs bulk\n", n)
	fmt.Printf("  %-10s %-11s  %11s  %17s  %18s  %15s  %12s\n",
		"structure", "method", "wall", "logical I/Os", "physical I/Os", "allocated", "pages")
	rep, err := harness.RunBuildBench(harness.BuildBenchConfig{N: n}, func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fmt.Printf("  B+-tree (B=%d): bulk load does %.1fx fewer physical page I/Os than incremental\n",
		rep.BPTreeLeafB, rep.BPTreeIOReduction)

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", outPath)
	if rep.BPTreeIOReduction < 5 {
		return fmt.Errorf("bptree physical I/O reduction %.1fx below the 5x gate", rep.BPTreeIOReduction)
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("%q: %w", part, err)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values")
	}
	return out, nil
}
