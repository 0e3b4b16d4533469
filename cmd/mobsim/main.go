// Command mobsim runs one §5 scenario against one access method and
// reports query/space/update metrics, optionally verifying every query
// against brute force.
//
//	mobsim -method dualbp -c 6 -n 50000 -ticks 200 -verify
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mobidx/internal/bptree"
	"mobidx/internal/harness"
	"mobidx/internal/workload"
)

func main() {
	var (
		method = flag.String("method", "dualbp", "access method: dualbp|kd|rstar|parttree")
		c      = flag.Int("c", 4, "observation-index count for dualbp")
		n      = flag.Int("n", 20000, "number of mobile objects")
		ticks  = flag.Int("ticks", 100, "scenario length (paper: 2000)")
		verify = flag.Bool("verify", false, "cross-check every query against brute force")
		seed   = flag.Int64("seed", 1999, "workload seed")
		wide   = flag.Bool("wide", false, "use 8-byte records instead of the paper's 4-byte ones")
	)
	flag.Parse()

	tr := workload.DefaultParams(1).Terrain
	codec := bptree.Compact
	if *wide {
		codec = bptree.Wide
	}
	m, err := harness.MethodByName(*method, tr, *c, codec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobsim: %v\n", err)
		os.Exit(1)
	}

	cfg := harness.DefaultScenario(*n, *ticks)
	cfg.Params.Seed = *seed
	cfg.Verify = *verify
	fmt.Printf("method=%s N=%d ticks=%d verify=%v\n", m.Name, *n, *ticks, *verify)
	start := time.Now()
	r, err := harness.RunScenario(m, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("completed in %s\n\n", time.Since(start).Round(time.Millisecond))
	for _, mix := range cfg.Mixes {
		mr := r.Mix[mix.Name]
		fmt.Printf("%4s queries: %5d run, avg %8.2f I/Os, avg answer %8.1f objects\n",
			mix.Name, mr.Queries, mr.AvgIOs, mr.AvgAnswer)
	}
	fmt.Printf("space: %d pages (%.1f MB at 4 KB pages)\n", r.Pages, float64(r.Pages)*4096/1e6)
	fmt.Printf("updates: %d performed, avg %.2f I/Os each\n", r.Updates, r.AvgUpdateIO)
	if *verify {
		fmt.Printf("verified: %d queries matched brute force\n", r.Verified)
	}
}
