// Command mobidxlint runs the project-invariant static-analysis suite
// over the given package patterns and reports every violation with a
// position-accurate diagnostic. It exits 1 when there are findings, 2
// when the analysis itself could not run, and 0 on a clean tree — which
// is what lets scripts/verify.sh gate on it.
//
//	mobidxlint ./...                 # whole repo, human-readable
//	mobidxlint -passes errdrop ./... # one pass only
//	mobidxlint -v ./...              # per-pass wall times on stderr
//	mobidxlint -list                 # describe the suite
//
// Suppressions are per-line and must carry a reason:
//
//	//mobidxlint:allow errdrop -- torn-write injection is the point here
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mobidx/internal/analysis"
)

func main() {
	var (
		passes  = flag.String("passes", "all", "comma-separated pass names to run")
		list    = flag.Bool("list", false, "list the available passes and exit")
		verbose = flag.Bool("v", false, "print per-pass wall times to stderr")
	)
	flag.Parse()

	if *list {
		for _, p := range analysis.All() {
			fmt.Printf("%-16s %s\n", p.Name, p.Doc)
		}
		return
	}

	selected, err := analysis.ByName(*passes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobidxlint: %v\n", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loadStart := time.Now()
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mobidxlint: %v\n", err)
		os.Exit(2)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "mobidxlint: load       %8.1fms (%d packages)\n",
			float64(time.Since(loadStart).Microseconds())/1000, len(pkgs))
	}

	var diags []analysis.Diagnostic
	if *verbose {
		// Run pass by pass so each one's wall time is visible; re-sort at
		// the end to keep the output order identical to a plain run.
		for _, p := range selected {
			start := time.Now()
			diags = append(diags, analysis.RunPasses(pkgs, []*analysis.Pass{p})...)
			fmt.Fprintf(os.Stderr, "mobidxlint: %-10s %8.1fms\n",
				p.Name, float64(time.Since(start).Microseconds())/1000)
		}
		analysis.SortDiagnostics(diags)
	} else {
		diags = analysis.RunPasses(pkgs, selected)
	}

	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mobidxlint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
