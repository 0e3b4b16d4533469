package harness

import (
	"math"
	"strings"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

// smallScenario shrinks the paper's scenario to test scale.
func smallScenario(n int) ScenarioConfig {
	cfg := DefaultScenario(n, 20)
	cfg.Params.UpdatesPerTick = 20
	cfg.QueryInstants = 2
	for i := range cfg.Mixes {
		cfg.Mixes[i].PerSlot = 10
	}
	return cfg
}

// Every paper method must produce verified-correct answers on a small
// scenario end to end.
func TestAllMethodsVerifiedSmall(t *testing.T) {
	tr := workload.DefaultParams(1).Terrain
	partTree, err := MethodByName("parttree", tr, 0, bptree.Compact)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range append(PaperMethods(tr), partTree) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			cfg := smallScenario(800)
			cfg.Verify = true
			r, err := RunScenario(m, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Verified == 0 {
				t.Fatal("no queries verified")
			}
			if r.Updates == 0 || r.AvgUpdateIO <= 0 {
				t.Fatalf("no update cost measured: %+v", r)
			}
			if r.Pages <= 0 {
				t.Fatal("no space measured")
			}
			for name, mr := range r.Mix {
				if mr.Queries == 0 {
					t.Fatalf("mix %s ran no queries", name)
				}
				if mr.AvgIOs <= 0 {
					t.Fatalf("mix %s measured no I/O", name)
				}
			}
		})
	}
}

// The headline shape of Figures 6-9 must hold even at reduced scale:
// R* worst on queries and updates; Dual-B+ space grows with c.
func TestFigureShapes(t *testing.T) {
	tr := workload.DefaultParams(1).Terrain
	methods := PaperMethods(tr)
	fs, err := RunFigures(methods, []int{2000}, 40, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	get := func(series []Series, name string) float64 {
		for _, s := range series {
			if s.Name == name {
				return s.Values[0]
			}
		}
		t.Fatalf("series %s missing", name)
		return 0
	}
	rstarQ := get(fs.Fig6, "R*-tree")
	kdQ := get(fs.Fig6, "kd-tree (hB)")
	bp4Q := get(fs.Fig6, "Dual B+ c=4")
	if rstarQ <= kdQ || rstarQ <= bp4Q {
		t.Fatalf("R* should be worst on 10%% queries: R*=%v kd=%v bp4=%v", rstarQ, kdQ, bp4Q)
	}
	rstarU := get(fs.Fig9, "R*-tree")
	kdU := get(fs.Fig9, "kd-tree (hB)")
	if rstarU <= kdU {
		t.Fatalf("R* should be worst on updates: R*=%v kd=%v", rstarU, kdU)
	}
	s4 := get(fs.Fig8, "Dual B+ c=4")
	s8 := get(fs.Fig8, "Dual B+ c=8")
	if s8 <= s4 {
		t.Fatalf("Dual-B+ space should grow with c: c4=%v c8=%v", s4, s8)
	}
	out := fs.String()
	for _, want := range []string{"Figure 6", "Figure 7", "Figure 8", "Figure 9", "R*-tree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("figure output missing %q", want)
		}
	}
}

func TestApproxErrorSweep(t *testing.T) {
	rows, err := ApproxErrorSweep(2000, 10, []int{2, 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want one per (c, query set)", len(rows))
	}
	// Lemma 1 bounds the error of the small (1%) queries: there, more
	// observation indexes mean less error, and every set pays more space.
	var small []ApproxRow
	for _, r := range rows {
		if r.Mix == workload.SmallQueries().Name {
			small = append(small, r)
		}
	}
	if len(small) != 2 {
		t.Fatalf("1%% rows = %d", len(small))
	}
	if small[1].AvgError >= small[0].AvgError {
		t.Fatalf("error should fall with c: c2=%v c8=%v", small[0].AvgError, small[1].AvgError)
	}
	if small[1].Pages <= small[0].Pages {
		t.Fatalf("space should grow with c: c2=%v c8=%v", small[0].Pages, small[1].Pages)
	}
	if !strings.Contains(FormatApproxSweep(rows), "K'") {
		t.Fatal("format output missing header")
	}
}

func TestKineticSweep(t *testing.T) {
	rows, err := KineticSweep([]int{2000, 8000}, []float64{100}, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Query cost must stay tiny (logarithmic) even as n quadruples.
	if rows[1].AvgQueryIO > rows[0].AvgQueryIO*3+10 {
		t.Fatalf("kinetic query cost not logarithmic: %v -> %v", rows[0].AvgQueryIO, rows[1].AvgQueryIO)
	}
	if rows[1].Pages <= rows[0].Pages {
		t.Fatal("space should grow with n")
	}
	_ = FormatKineticSweep(rows)
}

func TestPartTreeSweep(t *testing.T) {
	rows, err := PartTreeSweep([]int{5000, 80000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 16x points: ~4x I/O, certainly below 10x.
	if rows[1].AvgQueryIO > rows[0].AvgQueryIO*10 {
		t.Fatalf("partition-tree scaling broken: %v -> %v", rows[0].AvgQueryIO, rows[1].AvgQueryIO)
	}
	_ = FormatPartTreeSweep(rows)
}

func TestTwoDScenario(t *testing.T) {
	rows, err := TwoDScenario(1500, 10, 30, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.AvgAnswer <= 0 {
			t.Fatalf("%s found nothing", r.Method)
		}
	}
	// All three methods must agree on average answer cardinality (they
	// answer the same queries exactly).
	for _, r := range rows[1:] {
		if math.Abs(r.AvgAnswer-rows[0].AvgAnswer) > rows[0].AvgAnswer/50+1 {
			t.Fatalf("answer cardinality diverges: %v vs %v", r.AvgAnswer, rows[0].AvgAnswer)
		}
	}
	_ = FormatTwoD(rows)
}

func TestRoutedScenario(t *testing.T) {
	row, err := RoutedScenario(5, 60, 20, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	if row.Objects != 600 {
		t.Fatalf("objects = %d", row.Objects)
	}
	if row.AvgAnswer <= 0 {
		t.Fatal("routed queries found nothing")
	}
	_ = FormatRouted(row)
}

func TestFormatFigure(t *testing.T) {
	out := FormatFigure("Figure X", "method \\ N", []int{1500, 100000},
		[]Series{{Name: "m1", Values: []float64{1.5, 2.5}}}, "unit")
	for _, want := range []string{"Figure X", "m1", "1.50", "2.50", "100k", "1500", "[unit]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q in:\n%s", want, out)
		}
	}
}

// liar answers every query with its index's answer plus an object the
// scenario never created.
type liar struct{ core.Index1D }

func (l liar) Query(q dual.MORQuery, emit func(dual.OID)) error {
	emit(1 << 20)
	return l.Index1D.Query(q, emit)
}

// Verification must name an OID beyond the population as spurious rather
// than look its motion up.
func TestVerifyRejectsUnknownOID(t *testing.T) {
	tr := workload.DefaultParams(1).Terrain
	m := Method{Name: "liar", New: func(st pager.Store) (core.Index1D, error) {
		ix, err := core.NewKDDual(st, core.KDDualConfig{Terrain: tr})
		return liar{ix}, err
	}}
	cfg := DefaultScenario(300, 2)
	cfg.Verify = true
	_, err := RunScenario(m, cfg)
	if err == nil || !strings.Contains(err.Error(), "verify: spurious object 1048576") {
		t.Fatalf("RunScenario = %v, want a spurious object 1048576", err)
	}
}
