package harness

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

// The paper golden pins every result the §5 drivers report, at test
// scale: a verified scenario per method, and each of the E5-E8 sweeps. A
// refactor of the harness must leave every line below unchanged; only a
// change to what a driver measures may re-take them. Averages are printed
// to four places: fine enough to catch any change in what was counted,
// coarse enough that a sum taken in another order, which moves at most
// the last bit, leaves every printed digit alone.

// goldenScenario is the §5 scenario shrunk to test scale.
func goldenScenario() ScenarioConfig {
	cfg := DefaultScenario(800, 20)
	cfg.Params.UpdatesPerTick = 20
	cfg.QueryInstants = 2
	for i := range cfg.Mixes {
		cfg.Mixes[i].PerSlot = 10
	}
	cfg.Verify = true
	return cfg
}

func goldenScenarioLines(t *testing.T) []string {
	t.Helper()
	tr := workload.DefaultParams(1).Terrain
	methods := append(PaperMethods(tr), Method{Name: "Partition tree", New: func(st pager.Store) (core.Index1D, error) {
		return core.NewPartTreeDual(st, core.PartTreeDualConfig{Terrain: tr})
	}})
	var out []string
	for _, m := range methods {
		r, err := RunScenario(m, goldenScenario())
		if err != nil {
			t.Fatal(err)
		}
		line := fmt.Sprintf("scenario %s N=%d pages=%d updates=%d upd=%.4f verified=%d",
			r.Method, r.N, r.Pages, r.Updates, r.AvgUpdateIO, r.Verified)
		names := make([]string, 0, len(r.Mix))
		for name := range r.Mix {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			mr := r.Mix[name]
			line += fmt.Sprintf(" | %s q=%d io=%.4f ans=%.4f", name, mr.Queries, mr.AvgIOs, mr.AvgAnswer)
		}
		out = append(out, line)
	}
	return out
}

func goldenSweepLines(t *testing.T) []string {
	t.Helper()
	var out []string
	approx, err := ApproxErrorSweep(2000, 10, []int{2, 8}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range approx {
		out = append(out, fmt.Sprintf("e5 c=%d %s q=%d io=%.4f ans=%.4f err=%.4f ratio=%.4f pages=%d upd=%.4f",
			r.C, r.Mix, r.Queries, r.AvgIOs, r.AvgAnswer, r.AvgError, r.ErrorRatio, r.Pages, r.AvgUpdateIO))
	}
	kin, err := KineticSweep([]int{1000, 2000}, []float64{5, 20}, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range kin {
		out = append(out, fmt.Sprintf("e6 N=%d h=%.0f M=%d pages=%d io=%.4f ans=%.4f",
			r.N, r.Horizon, r.M, r.Pages, r.AvgQueryIO, r.AvgAnswer))
	}
	part, err := PartTreeSweep([]int{5000, 20000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range part {
		out = append(out, fmt.Sprintf("e7 N=%d pages=%d io=%.4f sqrt=%.4f crossing=%d cells=%d",
			r.N, r.Pages, r.AvgQueryIO, r.SqrtN, r.WorstCrossing, r.RootCells))
	}
	twoD, err := TwoDScenario(1500, 10, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range twoD {
		out = append(out, fmt.Sprintf("e8a %s N=%d io=%.4f ans=%.4f pages=%d upd=%.4f",
			r.Method, r.N, r.AvgQueryIO, r.AvgAnswer, r.Pages, r.AvgUpdateIO))
	}
	routed, err := RoutedScenario(5, 60, 20, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, fmt.Sprintf("e8b routes=%d objects=%d io=%.4f ans=%.4f pages=%d upd=%.4f",
		routed.Routes, routed.Objects, routed.AvgQueryIO, routed.AvgAnswer, routed.Pages, routed.AvgUpdateIO))
	return out
}

const goldenPaper = `
scenario R*-tree N=800 pages=7 updates=415 upd=10.1518 verified=40 | 1% q=20 io=6.3000 ans=8.4500 | 10% q=20 io=6.2000 ans=96.0000
scenario kd-tree (hB) N=800 pages=6 updates=415 upd=3.2554 verified=40 | 1% q=20 io=6.0000 ans=8.4500 | 10% q=20 io=6.0000 ans=96.0000
scenario Dual B+ c=4 N=800 pages=36 updates=415 upd=38.9711 verified=40 | 1% q=20 io=5.0500 ans=8.4500 | 10% q=20 io=5.1000 ans=96.0000
scenario Dual B+ c=6 N=800 pages=54 updates=415 upd=56.9060 verified=40 | 1% q=20 io=4.4500 ans=8.4500 | 10% q=20 io=5.1000 ans=96.0000
scenario Dual B+ c=8 N=800 pages=72 updates=415 upd=74.9133 verified=40 | 1% q=20 io=4.6000 ans=8.4500 | 10% q=20 io=5.8000 ans=96.0000
scenario Partition tree N=800 pages=13 updates=415 upd=6.8434 verified=40 | 1% q=20 io=13.0500 ans=8.4500 | 10% q=20 io=13.1000 ans=96.0000
e5 c=2 1% q=200 io=5.6600 ans=26.8900 err=549.0150 ratio=20.4171 pages=36 upd=22.3487
e5 c=2 10% q=200 io=6.8150 ans=207.8800 err=643.1200 ratio=3.0937 pages=36 upd=22.3487
e5 c=8 1% q=200 io=5.0700 ans=26.8900 err=298.9750 ratio=11.1184 pages=122 upd=75.1223
e5 c=8 10% q=200 io=7.7050 ans=207.8800 err=666.0400 ratio=3.2040 pages=122 upd=75.1223
e6 N=1000 h=5 M=2958 pages=101 io=5.2000 ans=28.9500
e6 N=1000 h=20 M=11653 pages=379 io=5.2000 ans=21.6500
e6 N=2000 h=5 M=11499 pages=377 io=5.9000 ans=61.2500
e6 N=2000 h=20 M=45831 pages=1477 io=5.5000 ans=60.6000
e7 N=5000 pages=18 io=5.7000 sqrt=70.7107 crossing=7 cells=15
e7 N=20000 pages=70 io=10.4500 sqrt=141.4214 crossing=14 cells=59
e8a kd-tree 4D N=1500 io=14.0000 ans=14.2000 pages=14 upd=4.6271
e8a decomposed 2x1D N=1500 io=13.6333 ans=14.2000 pages=120 upd=82.1039
e8a parttree 4D N=1500 io=25.5667 ans=14.2000 pages=29 upd=7.1711
e8b routes=10 objects=600 io=3.6000 ans=10.7667 pages=121 upd=26.0000
`

func TestGoldenPaperResults(t *testing.T) {
	got := "\n" + strings.Join(append(goldenScenarioLines(t), goldenSweepLines(t)...), "\n") + "\n"
	if got != goldenPaper {
		t.Fatalf("paper results moved:\n got:%s\nwant:%s", got, goldenPaper)
	}
}
