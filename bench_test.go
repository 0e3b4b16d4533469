// Benchmarks reporting every figure of the paper's evaluation (§5) and
// the analytic ablations at laptop scale. Each runs, once per process,
// the internal/harness function cmd/mobbench runs for its figure, and
// reports that function's results through b.ReportMetric: the paper's
// metric, page I/Os per operation or pages of space, not wall time. So
// `go test -run '^$' -bench .` prints the numbers of
//
//	mobbench -fig figures -ns 20000 -ticks 20   (Figures 6-9)
//	mobbench -fig e5 -ns 20000 -ticks 20
//	mobbench -fig e7
//	mobbench -fig e8 -ticks 20
//
// and E6's kinetic sweep at a tenth of mobbench's sizes (its largest row
// holds 2.3 GB of pages).
//
//	Figure 6 -> BenchmarkFig6QueryLarge   (avg I/Os per 10% query)
//	Figure 7 -> BenchmarkFig7QuerySmall   (avg I/Os per 1% query)
//	Figure 8 -> BenchmarkFig8Space        (pages)
//	Figure 9 -> BenchmarkFig9Update       (avg I/Os per update)
//	E5       -> BenchmarkApproxErrorVsC   (Lemma 1: K' vs c)
//	E6       -> BenchmarkKineticQuery     (Theorem 2: O(log_B(n+m)))
//	E7       -> BenchmarkPartitionTree    (§3.4: ~sqrt(n) I/Os)
//	E8       -> Benchmark2DQuery, BenchmarkRoutedQuery
package mobidx

import (
	"fmt"
	"sync"
	"testing"

	"mobidx/internal/harness"
	"mobidx/internal/workload"
)

const (
	benchN     = 20000 // objects per scenario (paper: 100k-500k)
	benchTicks = 20    // scenario length (paper: 2000)
	benchSeed  = 1999  // mobbench's seed for the sweeps
)

var (
	benchFigures = sync.OnceValues(func() (*harness.FigureSet, error) {
		return harness.RunFigures(harness.PaperMethods(workload.DefaultParams(1).Terrain),
			[]int{benchN}, benchTicks, false, nil)
	})
	benchApprox = sync.OnceValues(func() ([]harness.ApproxRow, error) {
		return harness.ApproxErrorSweep(benchN, benchTicks, []int{2, 4, 6, 8, 12, 16}, false)
	})
	benchKinetic = sync.OnceValues(func() ([]harness.KineticRow, error) {
		return harness.KineticSweep([]int{1000, 2000, 4000}, []float64{5, 20}, 50, benchSeed)
	})
	benchPartTree = sync.OnceValues(func() ([]harness.PartRow, error) {
		return harness.PartTreeSweep([]int{20000, 80000, 320000}, benchSeed)
	})
	benchTwoD = sync.OnceValues(func() ([]harness.TwoDRow, error) {
		return harness.TwoDScenario(20000, benchTicks, 100, benchSeed)
	})
	benchRouted = sync.OnceValues(func() (*harness.RoutedRow, error) {
		return harness.RoutedScenario(10, 1000, benchTicks, 100, benchSeed)
	})
)

// result fails the benchmark on the harness's error and returns its result.
func result[T any](b *testing.B, run func() (T, error)) T {
	b.Helper()
	v, err := run()
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// metric is one value b.ReportMetric reports, in its unit.
type metric struct {
	unit  string
	value float64
}

// report adds a sub-benchmark whose result is the given metrics. The
// harness has already measured them, so there is no timed loop, and the
// wall-clock ns/op is suppressed.
func report(b *testing.B, name string, ms ...metric) {
	b.Run(name, func(b *testing.B) {
		b.ReportMetric(0, "ns/op")
		for _, m := range ms {
			b.ReportMetric(m.value, m.unit)
		}
	})
}

// reportSeries reports one figure's value for each method.
func reportSeries(b *testing.B, series func(*harness.FigureSet) []harness.Series, unit string) {
	for _, s := range series(result(b, benchFigures)) {
		ms := []metric{{unit, s.Values[0]}}
		if unit == "pages" {
			ms = append(ms, metric{"pages/kObj", s.Values[0] / benchN * 1000})
		}
		report(b, s.Name, ms...)
	}
}

func BenchmarkFig6QueryLarge(b *testing.B) {
	reportSeries(b, func(fs *harness.FigureSet) []harness.Series { return fs.Fig6 }, "pageIO/op")
}

func BenchmarkFig7QuerySmall(b *testing.B) {
	reportSeries(b, func(fs *harness.FigureSet) []harness.Series { return fs.Fig7 }, "pageIO/op")
}

func BenchmarkFig8Space(b *testing.B) {
	reportSeries(b, func(fs *harness.FigureSet) []harness.Series { return fs.Fig8 }, "pages")
}

func BenchmarkFig9Update(b *testing.B) {
	reportSeries(b, func(fs *harness.FigureSet) []harness.Series { return fs.Fig9 }, "pageIO/op")
}

// E5: approximation error versus c (Lemma 1).
func BenchmarkApproxErrorVsC(b *testing.B) {
	for _, r := range result(b, benchApprox) {
		report(b, fmt.Sprintf("c=%d,%s", r.C, r.Mix), metric{"pageIO/op", r.AvgIOs},
			metric{"Kprime/op", r.AvgError}, metric{"Kprime/K", r.ErrorRatio},
			metric{"pages", float64(r.Pages)}, metric{"updIO/op", r.AvgUpdateIO})
	}
}

// E6: kinetic MOR1 query cost (Theorem 2).
func BenchmarkKineticQuery(b *testing.B) {
	for _, r := range result(b, benchKinetic) {
		report(b, fmt.Sprintf("N=%d,h=%g", r.N, r.Horizon), metric{"pageIO/op", r.AvgQueryIO},
			metric{"crossings", float64(r.M)}, metric{"pages", float64(r.Pages)})
	}
}

// E7: partition-tree thin-wedge simplex queries (~sqrt(n)).
func BenchmarkPartitionTree(b *testing.B) {
	for _, r := range result(b, benchPartTree) {
		report(b, fmt.Sprintf("N=%d", r.N), metric{"pageIO/op", r.AvgQueryIO},
			metric{"pages", float64(r.Pages)}, metric{"crossing", float64(r.WorstCrossing)})
	}
}

// E8a: the 2-dimensional methods.
func Benchmark2DQuery(b *testing.B) {
	for _, r := range result(b, benchTwoD) {
		report(b, r.Method, metric{"pageIO/op", r.AvgQueryIO},
			metric{"pages", float64(r.Pages)}, metric{"updIO/op", r.AvgUpdateIO})
	}
}

// E8b: routed (1.5-dimensional) rectangle queries.
func BenchmarkRoutedQuery(b *testing.B) {
	r := result(b, benchRouted)
	b.ReportMetric(0, "ns/op")
	b.ReportMetric(r.AvgQueryIO, "pageIO/op")
	b.ReportMetric(float64(r.Pages), "pages")
	b.ReportMetric(r.AvgUpdateIO, "updIO/op")
}
