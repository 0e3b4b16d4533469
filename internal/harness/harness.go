// Package harness runs the paper's performance study (§5) and the
// additional analytic experiments against any of the implemented access
// methods, reporting the same metrics the paper's figures plot: average
// I/Os per query (Figures 6-7), space consumption in pages (Figure 8), and
// average I/Os per update (Figure 9).
//
// Methodology mirrors §5: page size 4096; a tiny buffer pool holding only
// a root-to-leaf path's worth of pages, cleared before every query; an
// update is a delete of the old motion plus an insert of the new one.
package harness

import (
	"fmt"
	"strings"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
	"mobidx/internal/workload"
)

// BufferPages is the buffer pool size of §5 ("3 or 4 pages").
const BufferPages = 4

// Method is one access method under test.
type Method struct {
	Name string
	New  func(store pager.Store) (core.Index1D, error)
}

// PaperMethods returns the five methods of Figures 6-9: the R*-tree over
// trajectory segments, the k-d point access method (the hBΠ stand-in), and
// the Dual-B+ approximation with c = 4, 6 and 8.
func PaperMethods(tr dual.Terrain) []Method {
	ms := []Method{
		{Name: "R*-tree", New: func(st pager.Store) (core.Index1D, error) {
			return core.NewRStarSeg(st, core.RStarSegConfig{Terrain: tr})
		}},
		{Name: "kd-tree (hB)", New: func(st pager.Store) (core.Index1D, error) {
			return core.NewKDDual(st, core.KDDualConfig{Terrain: tr})
		}},
	}
	for _, c := range []int{4, 6, 8} {
		c := c
		ms = append(ms, Method{
			Name: fmt.Sprintf("Dual B+ c=%d", c),
			New: func(st pager.Store) (core.Index1D, error) {
				return core.NewDualBPlus(st, core.DualBPlusConfig{Terrain: tr, C: c, Codec: bptree.Compact})
			},
		})
	}
	return ms
}

// PartTreeMethod returns the §3.4 partition tree as an extra method.
func PartTreeMethod(tr dual.Terrain) Method {
	return Method{Name: "Partition tree", New: func(st pager.Store) (core.Index1D, error) {
		return core.NewPartTreeDual(st, core.PartTreeDualConfig{Terrain: tr})
	}}
}

// MixResult aggregates one query mix's measurements.
type MixResult struct {
	Queries   int
	AvgIOs    float64
	AvgAnswer float64 // average result cardinality
}

// ScenarioResult is the outcome of one full §5 scenario run.
type ScenarioResult struct {
	Method      string
	N           int
	Mix         map[string]*MixResult
	Pages       int     // space consumption after the scenario
	AvgUpdateIO float64 // I/Os per update (delete+insert pair)
	Updates     int
	Verified    int // queries cross-checked against brute force (0 = off)
}

// ScenarioConfig tunes a run.
type ScenarioConfig struct {
	Params        workload.Params
	Mixes         []workload.QueryMix
	QueryInstants int  // number of evenly spaced query instants (paper: 10)
	Verify        bool // cross-check every query against brute force
}

// DefaultScenario returns the paper's configuration for the given N,
// scaled by the given tick count (2000 reproduces the paper exactly).
func DefaultScenario(n, ticks int) ScenarioConfig {
	p := workload.DefaultParams(n)
	p.Ticks = ticks
	return ScenarioConfig{
		Params:        p,
		Mixes:         []workload.QueryMix{workload.LargeQueries(), workload.SmallQueries()},
		QueryInstants: 10,
	}
}

// RunScenario executes the scenario against one method.
func RunScenario(m Method, cfg ScenarioConfig) (*ScenarioResult, error) {
	base := pager.NewMemStore(pager.DefaultPageSize)
	buf := pager.NewBuffered(base, BufferPages)
	ix, err := m.New(buf)
	if err != nil {
		return nil, fmt.Errorf("harness: create %s: %w", m.Name, err)
	}
	sim, err := workload.NewSimulator(cfg.Params)
	if err != nil {
		return nil, err
	}
	apply := func(op workload.Op) error {
		if op.Insert {
			return ix.Insert(op.Motion)
		}
		return ix.Delete(op.Motion)
	}
	if err := sim.Bootstrap(apply); err != nil {
		return nil, fmt.Errorf("harness: %s: %w", m.Name, err)
	}

	res := &ScenarioResult{Method: m.Name, N: cfg.Params.N, Mix: map[string]*MixResult{}}
	for _, mix := range cfg.Mixes {
		res.Mix[mix.Name] = &MixResult{}
	}

	// Updates are measured over the whole scenario; queries at the
	// evenly spaced instants.
	instants := map[int]bool{}
	if cfg.QueryInstants > 0 {
		step := cfg.Params.Ticks / cfg.QueryInstants
		if step < 1 {
			step = 1
		}
		for i := 1; i <= cfg.QueryInstants; i++ {
			instants[i*step] = true
		}
	}

	var updIOs int64
	for tick := 1; tick <= cfg.Params.Ticks; tick++ {
		before := buf.Stats()
		preOps := 0
		countingApply := func(op workload.Op) error {
			if !op.Insert {
				preOps++ // one delete per update pair
			}
			return apply(op)
		}
		if err := sim.Tick(countingApply); err != nil {
			return nil, fmt.Errorf("harness: %s tick %d: %w", m.Name, tick, err)
		}
		updIOs += buf.Stats().Sub(before).IOs()
		res.Updates += preOps

		if !instants[tick] {
			continue
		}
		for _, mix := range cfg.Mixes {
			mr := res.Mix[mix.Name]
			for _, q := range sim.Queries(mix) {
				buf.Clear()
				before := buf.Stats()
				count := 0
				var got map[dual.OID]bool
				if cfg.Verify {
					got = map[dual.OID]bool{}
				}
				if err := ix.Query(q, func(id dual.OID) {
					count++
					if got != nil {
						got[id] = true
					}
				}); err != nil {
					return nil, fmt.Errorf("harness: %s query: %w", m.Name, err)
				}
				d := buf.Stats().Sub(before)
				mr.Queries++
				mr.AvgIOs += float64(d.IOs())
				mr.AvgAnswer += float64(count)
				if cfg.Verify {
					if err := verifyAnswer(sim, q, got); err != nil {
						return nil, fmt.Errorf("harness: %s: %w", m.Name, err)
					}
					res.Verified++
				}
			}
		}
	}
	for _, mr := range res.Mix {
		if mr.Queries > 0 {
			mr.AvgIOs /= float64(mr.Queries)
			mr.AvgAnswer /= float64(mr.Queries)
		}
	}
	if res.Updates > 0 {
		res.AvgUpdateIO = float64(updIOs) / float64(res.Updates)
	}
	res.Pages = buf.PagesInUse()
	return res, nil
}

// verifyAnswer compares an index answer with the simulator's ground truth,
// tolerating only boundary-rounding disagreements (the compact on-page
// codecs store 4-byte floats, as the paper's own record layouts do).
func verifyAnswer(sim *workload.Simulator, q dual.MORQuery, got map[dual.OID]bool) error {
	const tol = 0.05
	want := map[dual.OID]bool{}
	for _, id := range sim.BruteForce(q) {
		want[id] = true
	}
	motions := sim.Motions()
	for id := range want {
		if !got[id] && !nearBoundary(motions[id], q, tol) {
			return fmt.Errorf("verify: missing object %d for %+v", id, q)
		}
	}
	for id := range got {
		if !want[id] && !nearBoundary(motions[id], q, tol) {
			return fmt.Errorf("verify: spurious object %d for %+v", id, q)
		}
	}
	return nil
}

func nearBoundary(m dual.Motion, q dual.MORQuery, tol float64) bool {
	big := dual.MORQuery{Y1: q.Y1 - tol, Y2: q.Y2 + tol, T1: q.T1 - tol, T2: q.T2 + tol}
	small := dual.MORQuery{Y1: q.Y1 + tol, Y2: q.Y2 - tol, T1: q.T1 + tol, T2: q.T2 - tol}
	if small.Y1 > small.Y2 || small.T1 > small.T2 {
		return m.Matches(big)
	}
	return m.Matches(big) && !m.Matches(small)
}

// ---------------------------------------------------------------------------
// Figure formatting
// ---------------------------------------------------------------------------

// Series is one line of a figure: a method's value at each N.
type Series struct {
	Name   string
	Values []float64
}

// FormatFigure renders a paper-style figure as an aligned text table with
// one row per method and one column per x value.
func FormatFigure(title, xLabel string, xs []int, series []Series, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  [%s]\n", title, unit)
	fmt.Fprintf(&b, "%-16s", xLabel)
	for _, x := range xs {
		fmt.Fprintf(&b, "%12s", formatN(x))
	}
	b.WriteString("\n")
	for _, s := range series {
		fmt.Fprintf(&b, "%-16s", s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&b, "%12.2f", v)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func formatN(n int) string {
	if n >= 1000 && n%1000 == 0 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return fmt.Sprintf("%d", n)
}

// FigureSet holds the four §5 figures assembled from scenario results.
type FigureSet struct {
	Ns      []int
	Fig6    []Series // avg I/Os per 10% query
	Fig7    []Series // avg I/Os per 1% query
	Fig8    []Series // space (pages)
	Fig9    []Series // avg I/Os per update
	Results []*ScenarioResult
}

// RunFigures runs every method at every N and assembles Figures 6-9.
// progress, if non-nil, receives one line per completed run.
func RunFigures(methods []Method, ns []int, ticks int, verify bool, progress func(string)) (*FigureSet, error) {
	fs := &FigureSet{Ns: ns}
	bySeries := map[string]*[4][]float64{}
	order := []string{}
	for _, m := range methods {
		bySeries[m.Name] = &[4][]float64{}
		order = append(order, m.Name)
	}
	for _, n := range ns {
		for _, m := range methods {
			cfg := DefaultScenario(n, ticks)
			cfg.Verify = verify
			r, err := RunScenario(m, cfg)
			if err != nil {
				return nil, err
			}
			fs.Results = append(fs.Results, r)
			s := bySeries[m.Name]
			s[0] = append(s[0], r.Mix[workload.LargeQueries().Name].AvgIOs)
			s[1] = append(s[1], r.Mix[workload.SmallQueries().Name].AvgIOs)
			s[2] = append(s[2], float64(r.Pages))
			s[3] = append(s[3], r.AvgUpdateIO)
			if progress != nil {
				progress(fmt.Sprintf("%-16s N=%-8d q10%%=%8.1f q1%%=%8.1f pages=%8d upd=%6.1f",
					m.Name, n,
					r.Mix[workload.LargeQueries().Name].AvgIOs,
					r.Mix[workload.SmallQueries().Name].AvgIOs,
					r.Pages, r.AvgUpdateIO))
			}
		}
	}
	for _, name := range order {
		s := bySeries[name]
		fs.Fig6 = append(fs.Fig6, Series{Name: name, Values: s[0]})
		fs.Fig7 = append(fs.Fig7, Series{Name: name, Values: s[1]})
		fs.Fig8 = append(fs.Fig8, Series{Name: name, Values: s[2]})
		fs.Fig9 = append(fs.Fig9, Series{Name: name, Values: s[3]})
	}
	return fs, nil
}

// String renders all four figures.
func (fs *FigureSet) String() string {
	var b strings.Builder
	b.WriteString(FormatFigure("Figure 6: Query Performance for 10% Queries", "method \\ N", fs.Ns, fs.Fig6, "avg I/Os per query"))
	b.WriteString("\n")
	b.WriteString(FormatFigure("Figure 7: Query Performance for 1% Queries", "method \\ N", fs.Ns, fs.Fig7, "avg I/Os per query"))
	b.WriteString("\n")
	b.WriteString(FormatFigure("Figure 8: Space Consumption", "method \\ N", fs.Ns, fs.Fig8, "pages"))
	b.WriteString("\n")
	b.WriteString(FormatFigure("Figure 9: Update Performance", "method \\ N", fs.Ns, fs.Fig9, "avg I/Os per update"))
	return b.String()
}
