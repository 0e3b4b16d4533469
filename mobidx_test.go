package mobidx

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mobidx/internal/pager"
)

var testTerrain = Terrain{YMax: 1000, VMin: 0.16, VMax: 1.66}

// collect runs a query and returns sorted ids.
func collect(t *testing.T, ix Index1D, q Query) []OID {
	t.Helper()
	var out []OID
	if err := ix.Query(q, func(id OID) { out = append(out, id) }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Every public 1D constructor must agree on the same small scenario.
func TestPublicIndexesAgree(t *testing.T) {
	mks := map[string]func() Index1D{
		"dualbp": func() Index1D {
			ix, err := NewDualBPlusIndex(NewMemStore(0), DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: WideRecords})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"kd": func() Index1D {
			ix, err := NewKDIndex(NewMemStore(0), KDConfig{Terrain: testTerrain})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"rstar": func() Index1D {
			ix, err := NewRStarIndex(NewMemStore(0), RStarConfig{Terrain: testTerrain})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
		"parttree": func() Index1D {
			ix, err := NewPartitionTreeIndex(NewMemStore(0), PartitionTreeConfig{Terrain: testTerrain})
			if err != nil {
				t.Fatal(err)
			}
			return ix
		},
	}
	rng := rand.New(rand.NewSource(1))
	var motions []Motion
	for i := 0; i < 500; i++ {
		v := testTerrain.VMin + rng.Float64()*(testTerrain.VMax-testTerrain.VMin)
		if rng.Intn(2) == 0 {
			v = -v
		}
		motions = append(motions, Motion{OID: OID(i), Y0: rng.Float64() * 1000, T0: 0, V: v})
	}
	queries := make([]Query, 25)
	for i := range queries {
		y1 := rng.Float64() * 900
		t1 := rng.Float64() * 50
		queries[i] = Query{Y1: y1, Y2: y1 + rng.Float64()*120, T1: t1, T2: t1 + rng.Float64()*60}
	}

	answers := map[string][][]OID{}
	for name, mk := range mks {
		ix := mk()
		for _, m := range motions {
			if err := ix.Insert(m); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		var res [][]OID
		for _, q := range queries {
			res = append(res, collect(t, ix, q))
		}
		answers[name] = res
	}
	// The Wide-codec dualbp answer is the float64-exact reference; the
	// float32-backed methods may differ only at boundaries, so compare
	// cardinalities within a tiny slack and flag real divergence.
	ref := answers["dualbp"]
	for name, res := range answers {
		for i := range queries {
			a, b := ref[i], res[i]
			diff := symmetricDiff(a, b)
			if diff > 1+len(a)/100 {
				t.Errorf("%s query %d: answer differs from reference by %d (|ref|=%d, |got|=%d)",
					name, i, diff, len(a), len(b))
			}
		}
	}
}

func symmetricDiff(a, b []OID) int {
	in := map[OID]int{}
	for _, x := range a {
		in[x]++
	}
	for _, x := range b {
		in[x]--
	}
	d := 0
	for _, v := range in {
		if v != 0 {
			d++
		}
	}
	return d
}

// The whole stack must work against a real file-backed store.
func TestFileBackedEndToEnd(t *testing.T) {
	fs, err := NewFileStore(filepath.Join(t.TempDir(), "mobidx.db"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ix, err := NewDualBPlusIndex(fs, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: CompactRecords})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var motions []Motion
	for i := 0; i < 2000; i++ {
		v := testTerrain.VMin + rng.Float64()*(testTerrain.VMax-testTerrain.VMin)
		if rng.Intn(2) == 0 {
			v = -v
		}
		m := Motion{OID: OID(i), Y0: rng.Float64() * 1000, T0: 0, V: v}
		motions = append(motions, m)
		if err := ix.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	// Update a third of them.
	for i := 0; i < 700; i++ {
		m := motions[i]
		if err := ix.Delete(m); err != nil {
			t.Fatal(err)
		}
		nm := Motion{OID: m.OID, Y0: m.At(10), T0: 10, V: -m.V}
		if nm.Y0 < 0 {
			nm.Y0 = 0
		}
		if nm.Y0 > 1000 {
			nm.Y0 = 1000
		}
		if err := ix.Insert(nm); err != nil {
			t.Fatal(err)
		}
		motions[i] = nm
	}
	// Queries against brute force (rounding slack for the compact codec).
	for trial := 0; trial < 20; trial++ {
		y1 := rng.Float64() * 850
		t1 := 10 + rng.Float64()*40
		q := Query{Y1: y1, Y2: y1 + 100, T1: t1, T2: t1 + 30}
		want := 0
		for _, m := range motions {
			if m.Matches(q) {
				want++
			}
		}
		got := len(collect(t, ix, q))
		if got < want-want/50-2 || got > want+want/50+2 {
			t.Fatalf("file-backed query: got %d, want ~%d", got, want)
		}
	}
	if fs.Stats().Writes == 0 {
		t.Fatal("file store saw no writes")
	}
}

// The buffered store must reduce counted I/O without changing answers.
func TestBufferedStoreEquivalence(t *testing.T) {
	// The kd index touches only two trees per insert, so the 4-page pool
	// keeps their upper paths resident. (Dual-B+ with c=4 spreads inserts
	// over 12 structures and a path-sized pool cannot help it — which is
	// also why the paper reports its update cost as the c-fold price.)
	build := func(store Store) Index1D {
		ix, err := NewKDIndex(store, KDConfig{Terrain: testTerrain})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 3000; i++ {
			v := testTerrain.VMin + rng.Float64()*1.2
			if rng.Intn(2) == 0 {
				v = -v
			}
			if err := ix.Insert(Motion{OID: OID(i), Y0: rng.Float64() * 1000, T0: 0, V: v}); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	raw := NewMemStore(0)
	rawIx := build(raw)
	bufBase := NewMemStore(0)
	buf := NewBufferedStore(bufBase, 4)
	bufIx := build(buf)

	q := Query{Y1: 200, Y2: 320, T1: 5, T2: 40}
	a := collect(t, rawIx, q)
	b := collect(t, bufIx, q)
	if len(a) != len(b) {
		t.Fatalf("buffered store changed the answer: %d vs %d", len(a), len(b))
	}
	// Build I/O through the buffer must be strictly lower than raw.
	if buf.Stats().Reads >= raw.Stats().Reads {
		t.Fatalf("buffer saved nothing: %d vs %d reads", buf.Stats().Reads, raw.Stats().Reads)
	}
}

func TestKineticFacade(t *testing.T) {
	objs := []KineticObject{
		{OID: 1, Y0: 0, V: 2},
		{OID: 2, Y0: 100, V: -1},
	}
	cs := Crossings(objs, 0, 100)
	if len(cs) != 1 {
		t.Fatalf("crossings = %v", cs)
	}
	st, err := NewKineticStructure(NewMemStore(0), objs, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	// At t=50: object 1 at 100, object 2 at 50.
	if err := st.Query(90, 110, 50, func(OID) { found++ }); err != nil {
		t.Fatal(err)
	}
	if found != 1 {
		t.Fatalf("found %d", found)
	}
}

// The robustness facade: an index built on the stack the cluster serves —
// a buffer pool over a WAL over a FileStore and a FileLog — and
// checkpointed to disk. One byte of one page slot in the pages file is
// flipped, for each slot in turn; the reopened stack must answer exactly
// or fail with ErrPageCorrupt.
func TestPublicRobustnessStack(t *testing.T) {
	motions := make([]Motion, 200)
	for i := range motions {
		v := 0.2 + 0.2*float64(i%7)
		if i%2 == 1 {
			v = -v
		}
		motions[i] = Motion{OID: OID(i + 1), Y0: float64((i * 137) % 1000), T0: 0, V: v}
	}
	q := Query{Y1: 200, Y2: 600, T1: 20, T2: 60}
	cfg := DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: WideRecords}
	dir := t.TempDir()
	pagesPath, logPath := filepath.Join(dir, "pages"), filepath.Join(dir, "log")
	open := func(fs *pager.FileStore) (*WALStore, error) {
		t.Helper()
		log, err := OpenFileLog(logPath)
		if err != nil {
			t.Fatal(err)
		}
		ws, err := OpenWALStore(fs, log)
		if err != nil {
			return nil, errors.Join(err, log.Close())
		}
		return ws, nil
	}
	fs, err := NewFileStore(pagesPath, 512)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := open(fs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewDualBPlusIndex(NewBufferedStore(ws, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range motions {
		if err := ix.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	want, meta := collect(t, ix, q), ix.Meta()
	if err := ws.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(ws.Close(), fs.Close()); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(pagesPath)
	if err != nil {
		t.Fatal(err)
	}

	const slot = 512 + 4
	var corrupt int
	for off := slot + 37; off < len(clean); off += slot {
		img := append([]byte(nil), clean...)
		img[off] ^= 0x08
		if err := os.WriteFile(pagesPath, img, 0o644); err != nil {
			t.Fatal(err)
		}
		fs, err := OpenFileStore(pagesPath)
		if err != nil {
			t.Fatal(err)
		}
		var got []OID
		ws, err := open(fs)
		if err == nil {
			ix, aerr := AttachDualBPlusIndex(NewBufferedStore(ws, 4), cfg, meta)
			if err = aerr; err == nil {
				err = ix.Query(q, func(id OID) { got = append(got, id) })
			}
			err = errors.Join(err, ws.Close())
		}
		switch {
		case errors.Is(err, ErrPageCorrupt):
			corrupt++
		case err != nil:
			t.Fatalf("byte %d flipped: %v, want ErrPageCorrupt", off, err)
		default:
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("byte %d flipped: a wrong answer with no error", off)
			}
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if corrupt == 0 {
		t.Fatal("no flip reached a page the query reads; test is vacuous")
	}
	if !IsTransient(ErrTransient) || IsTransient(ErrPageCorrupt) {
		t.Fatal("IsTransient misclassifies the exported sentinels")
	}
}

// A file store written through the public API must reopen with its pages
// and user metadata intact.
func TestPublicFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "smoke.mobidx")
	fs, err := NewFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	p, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(p.Data, "hello, crash recovery")
	if err := fs.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := fs.SetUserMeta([]byte{0xAB, 0xCD}); err != nil {
		t.Fatal(err)
	}
	id := p.ID
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PageSize() != 256 {
		t.Fatalf("page size not recovered: %d", re.PageSize())
	}
	um := re.UserMeta()
	if len(um) < 2 || um[0] != 0xAB || um[1] != 0xCD {
		t.Fatalf("user meta not recovered: %x", um)
	}
	rp, err := re.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(rp.Data[:21]) != "hello, crash recovery" {
		t.Fatalf("page content lost: %q", rp.Data[:21])
	}
}

// The WAL facade: an index built inside atomic batches over a file-backed
// base and log survives an abrupt "crash" (no Close, no Checkpoint) and
// answers identically after recovery through the public API.
func TestPublicWALCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.pages")
	logPath := filepath.Join(dir, "wal.log")

	base, err := NewFileStore(basePath, 512)
	if err != nil {
		t.Fatal(err)
	}
	log, err := OpenFileLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := OpenWALStore(base, log)
	if err != nil {
		t.Fatal(err)
	}
	var _ Batcher = ws // the public contract the index layer relies on

	ix, err := NewDualBPlusIndex(ws, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: WideRecords})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	ms := make([]Motion, 40)
	for i := range ms {
		v := testTerrain.VMin + (testTerrain.VMax-testTerrain.VMin)*rng.Float64()
		if i%2 == 1 {
			v = -v
		}
		ms[i] = Motion{OID: OID(i + 1), Y0: 1000 * rng.Float64(), T0: 0, V: v}
	}
	for _, m := range ms {
		if err := ix.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Y1: 200, Y2: 700, T1: 10, T2: 60}
	want := collect(t, ix, q)
	if len(want) == 0 {
		t.Fatal("query returned nothing; scenario is vacuous")
	}
	// Crash: drop every handle without Checkpoint or Close. Only what the
	// commit protocol already made durable may survive.
	if err := base.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	base2, err := OpenFileStore(basePath)
	if err != nil {
		t.Fatal(err)
	}
	defer base2.Close()
	log2, err := OpenFileLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	ws2, err := OpenWALStore(base2, log2)
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer ws2.Close()
	ix2, err := NewDualBPlusIndex(ws2, DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: WideRecords})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if err := ix2.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, ix2, q)
	if len(got) != len(want) {
		t.Fatalf("recovered index answers %d ids, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d: %d, want %d", i, got[i], want[i])
		}
	}
}

// The public parallel-serving surface: QueryParallel through an Executor
// must return exactly the sequential answer at every worker count.
func TestPublicParallelQuery(t *testing.T) {
	ix, err := NewDualBPlusIndex(NewMemStore(0), DualBPlusConfig{Terrain: testTerrain, C: 4, Codec: WideRecords})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 800; i++ {
		v := testTerrain.VMin + (testTerrain.VMax-testTerrain.VMin)*rng.Float64()
		if i%2 == 1 {
			v = -v
		}
		if err := ix.Insert(Motion{OID: OID(i + 1), Y0: 1000 * rng.Float64(), T0: 0, V: v}); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []Query{
		{Y1: 100, Y2: 900, T1: 5, T2: 80}, // large: decomposes into subqueries
		{Y1: 440, Y2: 460, T1: 10, T2: 25},
	} {
		want := collect(t, ix, q)
		for _, workers := range []int{1, 2, 8} {
			got, err := ix.QueryParallelCtx(context.Background(), NewExecutor(workers), q)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d: %d ids, want %d", workers, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: result %d is %d, want %d", workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestPublicSubscriptionEngine drives the facade's continuous-query API
// end to end: subscribe, stream, update, advance across a boundary
// crossing, and check the drained deltas reconstruct a one-shot answer.
func TestPublicSubscriptionEngine(t *testing.T) {
	eng, err := NewSubscriptionEngine(SubscribeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Apply([]SubOp{
		{Insert: true, M: Motion{OID: 1, Y0: 90, V: 1}},
		{Insert: true, M: Motion{OID: 2, Y0: 500, V: -0.5}},
	}); err != nil {
		t.Fatal(err)
	}
	id, ch, err := eng.SubscribeStream(100, 200, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	// OID 1 sweeps [90, 100] over the window and already touches Y1.
	if d := <-ch; d.Kind != SubEnter || d.OID != 1 {
		t.Fatalf("initial delta %+v, want enter 1", d)
	}
	// Advance far enough that object 2 (at 500-0.5t) reaches the range.
	if err := eng.Advance(600); err != nil {
		t.Fatal(err)
	}
	ds, err := eng.Drain(id)
	if err != nil {
		t.Fatal(err)
	}
	members := map[OID]bool{}
	for _, d := range ds {
		switch d.Kind {
		case SubEnter:
			members[d.OID] = true
		case SubLeave:
			delete(members, d.OID)
		}
	}
	want := map[OID]bool{}
	q := Query{Y1: 100, Y2: 200, T1: 600, T2: 610}
	for _, m := range []Motion{{OID: 1, Y0: 90, V: 1}, {OID: 2, Y0: 500, V: -0.5}} {
		if m.Matches(q) {
			want[m.OID] = true
		}
	}
	if len(want) == 0 {
		t.Fatal("inert scenario: no member at t=600")
	}
	if !reflect.DeepEqual(members, want) {
		t.Fatalf("reconstruction %v, want %v", members, want)
	}
	if err := eng.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Drain(id); !errors.Is(err, ErrUnknownSub) {
		t.Fatalf("drain after unsubscribe: %v, want ErrUnknownSub", err)
	}
}

// hostileIndex is the surface every public index constructor returns, for
// its own motion and query type.
type hostileIndex[M, Q any] interface {
	Insert(M) error
	Query(Q, func(OID)) error
	Len() int
}

// checkHostile loads good, then feeds every bad motion to Insert (and to
// BulkLoad where the index has one, behind the good ones) and every bad
// query to each query entry point the index has. Each call must fail,
// report nothing, and leave Len where it was.
func checkHostile[M, Q any](t *testing.T, ix hostileIndex[M, Q], good, badMotions []M, badQueries []Q) {
	t.Helper()
	for _, m := range good {
		if err := ix.Insert(m); err != nil {
			t.Fatal(err)
		}
	}
	bulk, _ := ix.(interface{ BulkLoad([]M) error })
	for _, m := range badMotions {
		if err := ix.Insert(m); err == nil {
			t.Errorf("Insert accepted %+v", m)
		}
		if bulk != nil {
			if err := bulk.BulkLoad(append(append([]M(nil), good...), m)); err == nil {
				t.Errorf("BulkLoad accepted %+v", m)
			}
		}
	}
	par, _ := ix.(interface {
		QueryParallel(context.Context, *Executor, Q) ([]OID, error)
	})
	parCtx, _ := ix.(interface {
		QueryParallelCtx(context.Context, *Executor, Q) ([]OID, error)
	})
	for _, q := range badQueries {
		emitted := 0
		if err := ix.Query(q, func(OID) { emitted++ }); err == nil || emitted > 0 {
			t.Errorf("Query(%+v): err=%v with %d answers", q, err, emitted)
		}
		if par != nil {
			if ids, err := par.QueryParallel(context.Background(), NewExecutor(2), q); err == nil || len(ids) > 0 {
				t.Errorf("QueryParallel(%+v): err=%v with %d answers", q, err, len(ids))
			}
		}
		if parCtx != nil {
			if ids, err := parCtx.QueryParallelCtx(context.Background(), NewExecutor(2), q); err == nil || len(ids) > 0 {
				t.Errorf("QueryParallelCtx(%+v): err=%v with %d answers", q, err, len(ids))
			}
		}
	}
	if ix.Len() != len(good) {
		t.Errorf("Len = %d after the hostile input, want %d", ix.Len(), len(good))
	}
}

// Every public index constructor must refuse non-finite motions and
// non-finite or reversed queries with an error, not index or answer them.
func TestPublicIndexesRejectHostileInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	good1 := []Motion{{OID: 1, Y0: 100, T0: 0, V: 1}, {OID: 2, Y0: 900, T0: 5, V: -0.5}, {OID: 3, Y0: 500, T0: 9, V: 0.01}}
	badMotions1 := []Motion{
		{OID: 9, Y0: nan, T0: 0, V: 1}, {OID: 9, Y0: 100, T0: nan, V: 1}, {OID: 9, Y0: 100, T0: 0, V: nan},
		{OID: 9, Y0: inf, T0: 0, V: 1}, {OID: 9, Y0: 100, T0: -inf, V: 1}, {OID: 9, Y0: 100, T0: 0, V: -inf},
		{OID: 9, Y0: nan, T0: 0, V: 0.01}, {OID: 9, Y0: 100, T0: inf, V: 0.01}, // slow side of the speed partition
	}
	badQueries1 := []Query{
		{Y1: nan, Y2: 200, T1: 0, T2: 10}, {Y1: 100, Y2: nan, T1: 0, T2: 10},
		{Y1: 100, Y2: 200, T1: nan, T2: 10}, {Y1: 100, Y2: 200, T1: 0, T2: nan},
		{Y1: -inf, Y2: 200, T1: 0, T2: 10}, {Y1: 100, Y2: 200, T1: 0, T2: inf},
		{Y1: 200, Y2: 100, T1: 0, T2: 10}, {Y1: 100, Y2: 200, T1: 10, T2: 0},
	}
	rows1 := map[string]func(Store) (Index1D, error){
		"dualbp": func(st Store) (Index1D, error) {
			return NewDualBPlusIndex(st, DualBPlusConfig{Terrain: testTerrain})
		},
		"kd":    func(st Store) (Index1D, error) { return NewKDIndex(st, KDConfig{Terrain: testTerrain}) },
		"rstar": func(st Store) (Index1D, error) { return NewRStarIndex(st, RStarConfig{Terrain: testTerrain}) },
		"parttree": func(st Store) (Index1D, error) {
			return NewPartitionTreeIndex(st, PartitionTreeConfig{Terrain: testTerrain})
		},
		"speedpart": func(st Store) (Index1D, error) {
			moving, err := NewKDIndex(st, KDConfig{Terrain: testTerrain})
			if err != nil {
				return nil, err
			}
			return NewSpeedPartitionedIndex(st, SpeedPartitionedConfig{Terrain: testTerrain}, moving)
		},
	}
	for name, mk := range rows1 {
		t.Run(name, func(t *testing.T) {
			ix, err := mk(NewMemStore(0))
			if err != nil {
				t.Fatal(err)
			}
			good := good1
			if name != "speedpart" {
				good = good1[:2] // the third is below the speed band
			}
			checkHostile[Motion, Query](t, ix, good, badMotions1, badQueries1)
		})
	}

	terrain2 := Terrain2D{XMax: 1000, YMax: 1000, VMin: 0.16, VMax: 1.66}
	good2 := []Motion2D{{OID: 1, X0: 100, Y0: 100, T0: 0, VX: 1, VY: -1}, {OID: 2, X0: 900, Y0: 500, T0: 5, VX: -0.5, VY: 0.5}}
	ok2 := Motion2D{OID: 9, X0: 100, Y0: 100, T0: 0, VX: 1, VY: 1}
	okq := Query2D{X1: 100, X2: 200, Y1: 100, Y2: 200, T1: 0, T2: 10}
	var badMotions2 []Motion2D
	var badQueries2 []Query2D
	for _, f := range []float64{nan, inf, -inf} {
		for field := 0; field < 5; field++ {
			m := ok2
			*[]*float64{&m.X0, &m.Y0, &m.T0, &m.VX, &m.VY}[field] = f
			badMotions2 = append(badMotions2, m)
		}
		for field := 0; field < 6; field++ {
			q := okq
			*[]*float64{&q.X1, &q.X2, &q.Y1, &q.Y2, &q.T1, &q.T2}[field] = f
			badQueries2 = append(badQueries2, q)
		}
	}
	badQueries2 = append(badQueries2,
		Query2D{X1: 200, X2: 100, Y1: 100, Y2: 200, T1: 0, T2: 10},
		Query2D{X1: 100, X2: 200, Y1: 200, Y2: 100, T1: 0, T2: 10},
		Query2D{X1: 100, X2: 200, Y1: 100, Y2: 200, T1: 10, T2: 0})
	rows2 := map[string]func(Store) (Index2D, error){
		"kd4":        func(st Store) (Index2D, error) { return New2DKDIndex(st, KD4Config{Terrain: terrain2}) },
		"decomposed": func(st Store) (Index2D, error) { return New2DDecomposedIndex(st, DecomposedConfig{Terrain: terrain2}) },
		"parttree4": func(st Store) (Index2D, error) {
			return New2DPartitionTreeIndex(st, PartTree4Config{Terrain: terrain2})
		},
	}
	for name, mk := range rows2 {
		t.Run(name, func(t *testing.T) {
			ix, err := mk(NewMemStore(0))
			if err != nil {
				t.Fatal(err)
			}
			checkHostile[Motion2D, Query2D](t, ix, good2, badMotions2, badQueries2)
		})
	}
}
