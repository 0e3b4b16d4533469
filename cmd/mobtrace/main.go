// Command mobtrace replays an operation stream produced by mobgen (or any
// tool emitting the same CSV) against a chosen access method, reporting
// I/O totals, and optionally answers a query file, comparing cardinalities
// against the recorded ground truth.
//
//	mobgen -n 10000 -ticks 50 -ops ops.csv -queries q.csv
//	mobtrace -method dualbp -ops ops.csv -queries q.csv
package main

import (
	"bufio"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/harness"
	"mobidx/internal/workload"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mobtrace: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		method  = flag.String("method", "dualbp", "access method: dualbp|kd|rstar|parttree")
		c       = flag.Int("c", 4, "observation-index count for dualbp")
		opsPath = flag.String("ops", "", "operation stream CSV (required)")
		qPath   = flag.String("queries", "", "query CSV with recorded answers (optional)")
	)
	flag.Parse()
	if *opsPath == "" {
		fail("-ops is required")
	}

	m, err := harness.MethodByName(*method, workload.DefaultParams(1).Terrain, *c, bptree.Compact)
	if err != nil {
		fail("%v", err)
	}
	pool := harness.NewPool()
	ix, err := m.New(pool)
	if err != nil {
		fail("create index: %v", err)
	}

	f, err := os.Open(*opsPath)
	if err != nil {
		fail("%v", err)
	}
	defer f.Close()
	r := csv.NewReader(bufio.NewReader(f))
	header, err := r.Read()
	if err != nil {
		fail("read header: %v", err)
	}
	if len(header) != 6 || header[0] != "tick" {
		fail("unexpected ops header %v (want tick,op,oid,y0,t0,v)", header)
	}

	// Query batches are stamped with the tick they were generated at;
	// replay interleaves them so each batch sees exactly the state the
	// recorded ground-truth answers were computed against.
	type query struct {
		q    dual.MORQuery
		want int
	}
	batches := map[int][]query{}
	if *qPath != "" {
		qf, err := os.Open(*qPath)
		if err != nil {
			fail("%v", err)
		}
		defer qf.Close()
		qr := csv.NewReader(bufio.NewReader(qf))
		if _, err := qr.Read(); err != nil {
			fail("read query header: %v", err)
		}
		for {
			rec, err := qr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				fail("read queries: %v", err)
			}
			if len(rec) != 7 {
				fail("query row needs 7 fields, got %d", len(rec))
			}
			tick, err := strconv.Atoi(rec[0])
			if err != nil {
				fail("query tick: %v", err)
			}
			if tick < 0 {
				fail("query tick %d is negative", tick)
			}
			vals := make([]float64, 4)
			for i := 0; i < 4; i++ {
				if vals[i], err = strconv.ParseFloat(rec[2+i], 64); err != nil {
					fail("query field %d: %v", i, err)
				}
			}
			want, err := strconv.Atoi(rec[6])
			if err != nil {
				fail("query answer field: %v", err)
			}
			batches[tick] = append(batches[tick], query{
				q:    dual.MORQuery{Y1: vals[0], Y2: vals[1], T1: vals[2], T2: vals[3]},
				want: want,
			})
		}
	}

	queries, exact, close := 0, 0, 0
	var qIOs int64
	runBatch := func(tick int) {
		for _, qu := range batches[tick] {
			got := 0
			ios, err := pool.Query(func() error { return ix.Query(qu.q, func(dual.OID) { got++ }) })
			if err != nil {
				fail("query: %v", err)
			}
			qIOs += ios
			queries++
			switch {
			case got == qu.want:
				exact++
			case abs(got-qu.want) <= 1+qu.want/50:
				close++ // 4-byte record rounding at query boundaries
			}
		}
		delete(batches, tick)
	}

	ops, inserts, deletes := 0, 0, 0
	curTick := 0
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			fail("read ops: %v", err)
		}
		tick, err := strconv.Atoi(rec[0])
		if err != nil {
			fail("row %d: tick: %v", ops+2, err)
		}
		for tick > curTick {
			runBatch(curTick)
			curTick++
		}
		m, err := parseMotion(rec[2:])
		if err != nil {
			fail("row %d: %v", ops+2, err)
		}
		switch rec[1] {
		case "I":
			if err := ix.Insert(m); err != nil {
				fail("insert %d: %v", m.OID, err)
			}
			inserts++
		case "D":
			if err := ix.Delete(m); err != nil {
				fail("delete %d: %v", m.OID, err)
			}
			deletes++
		default:
			fail("row %d: unknown op %q", ops+2, rec[1])
		}
		ops++
	}
	// Remaining batches at or after the last op tick.
	for tick := curTick; len(batches) > 0; tick++ {
		runBatch(tick)
	}
	st := pool.Stats()
	fmt.Printf("replayed %d ops (%d inserts, %d deletes): %d reads, %d writes, %d pages, %d objects live\n",
		ops, inserts, deletes, st.Reads, st.Writes, pool.PagesInUse(), ix.Len())
	if *qPath == "" {
		return
	}
	fmt.Printf("answered %d queries: %.2f I/Os avg; %d exact, %d within rounding, %d diverged\n",
		queries, float64(qIOs)/float64(max(queries, 1)), exact, close, queries-exact-close)
	if queries-exact-close > 0 {
		os.Exit(1)
	}
}

func parseMotion(fields []string) (dual.Motion, error) {
	if len(fields) != 4 {
		return dual.Motion{}, fmt.Errorf("need oid,y0,t0,v")
	}
	oid, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return dual.Motion{}, err
	}
	y0, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return dual.Motion{}, err
	}
	t0, err := strconv.ParseFloat(fields[2], 64)
	if err != nil {
		return dual.Motion{}, err
	}
	v, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return dual.Motion{}, err
	}
	return dual.Motion{OID: dual.OID(oid), Y0: y0, T0: t0, V: v}, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
