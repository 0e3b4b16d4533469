package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/geom"
	"mobidx/internal/kdtree"
	"mobidx/internal/pager"
	"mobidx/internal/parttree"
)

// The golden test pins what the k-d tree and the partition tree put on
// their pages and what a fixed query set costs and answers, at d = 2 and
// d = 4, so that a refactor of either structure is shown not to move the
// paper reproduction. Every constant below was captured from the
// implementations at commit 09179fc, which had a 2-dimensional and a
// d-dimensional copy of each structure; none may be edited to make a later
// commit pass.

// goldenHalfSpace is Coef·x <= C over the first d coordinates.
type goldenHalfSpace struct {
	Coef []float64
	C    float64
}

// goldenIndex is the surface the stream drives.
type goldenIndex struct {
	insert func(val uint64, c []float64) error
	remove func(val uint64, c []float64) (bool, error)
	// bulk is nil on the rows whose stream has no bulk-load step (the
	// 4-dimensional k-d tree had no bulk loader when the constants were
	// captured).
	bulk   func(vals []uint64, cs [][]float64) error
	search func(q []goldenHalfSpace, emit func(val uint64)) error
	size   func() int
}

// goldenScale is the per-dimension extent of the point domain: narrow
// velocities beside wide intercepts, as the dual indexes see them.
var goldenScale = []float64{2, 1000, 2, 1000}

func goldenVec(c []float64) geom.Vec {
	var v geom.Vec
	copy(v[:], c)
	return v
}

func goldenKD(t *testing.T, st pager.Store, d int) goldenIndex {
	t.Helper()
	tr, err := kdtree.New(st, d, geom.Box{Hi: goldenVec(goldenScale[:d])})
	if err != nil {
		t.Fatal(err)
	}
	return goldenIndex{
		insert: func(val uint64, c []float64) error {
			return tr.Insert(kdtree.Pt(goldenVec(c), val))
		},
		remove: func(val uint64, c []float64) (bool, error) {
			return tr.Delete(kdtree.Pt(goldenVec(c), val))
		},
		bulk: func(vals []uint64, cs [][]float64) error {
			pts := make([]kdtree.Point, len(vals))
			for i := range pts {
				pts[i] = kdtree.Pt(goldenVec(cs[i]), vals[i])
			}
			return tr.BulkLoad(pts)
		},
		search: func(q []goldenHalfSpace, emit func(uint64)) error {
			return tr.SearchRegion(goldenRegion(q, d), func(p kdtree.Point) bool { emit(p.Val); return true })
		},
		size: tr.Len,
	}
}

func goldenPart(t *testing.T, st pager.Store, d int) goldenIndex {
	t.Helper()
	tr, err := parttree.New(st, d)
	if err != nil {
		t.Fatal(err)
	}
	return goldenIndex{
		insert: func(val uint64, c []float64) error {
			return tr.Insert(parttree.Pt(goldenVec(c), val))
		},
		remove: func(val uint64, c []float64) (bool, error) {
			return tr.Delete(parttree.Pt(goldenVec(c), val))
		},
		bulk: func(vals []uint64, cs [][]float64) error {
			pts := make([]parttree.Point, len(vals))
			for i := range pts {
				pts[i] = parttree.Pt(goldenVec(cs[i]), vals[i])
			}
			return tr.BulkLoad(pts)
		},
		search: func(q []goldenHalfSpace, emit func(uint64)) error {
			return tr.SearchRegion(goldenRegion(q, d), func(p parttree.Point) bool { emit(p.Val); return true })
		},
		size: tr.Len,
	}
}

// goldenRegion gives each row the classifier its constants were captured
// with: the exact clip of geom.ConvexRegion at d = 2 (what Figures 6-9
// were measured with), the per-constraint geom.HalfSpaces at d = 4.
func goldenRegion(q []goldenHalfSpace, d int) geom.Region {
	if d == 2 {
		cs := make([]geom.Constraint, len(q))
		for i, h := range q {
			cs[i] = geom.Constraint{A: h.Coef[0], B: h.Coef[1], C: h.C}
		}
		return geom.NewRegion(cs...)
	}
	hs := make([]geom.HalfSpace, len(q))
	for i, h := range q {
		hs[i] = geom.HalfSpace{Coef: goldenVec(h.Coef), C: h.C}
	}
	return geom.HalfSpaces{D: d, Hs: hs}
}

type goldenLive struct {
	val uint64
	c   []float64
}

// goldenStream drives the seeded stream: a random insert/delete mix, a
// mass delete past the half-dead point (the partition tree's global
// rebuild, the k-d tree's bucket collapses), a bulk load where there is
// one, more mutation on top of it, and a run of identical points (the k-d
// tree's overflow chain, the partition tree's arbitrary-split fallback)
// partly deleted again. It returns the live set it left behind.
func goldenStream(t *testing.T, ix goldenIndex, d int) []goldenLive {
	t.Helper()
	rng := rand.New(rand.NewSource(1999))
	var live []goldenLive
	next := uint64(0)
	fresh := func() goldenLive {
		c := make([]float64, d)
		for k := range c {
			c[k] = rng.Float64() * goldenScale[k]
		}
		next++
		return goldenLive{val: next - 1, c: c}
	}
	insert := func() {
		p := fresh()
		if err := ix.insert(p.val, p.c); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	remove := func() {
		i := rng.Intn(len(live))
		found, err := ix.remove(live[i].val, live[i].c)
		if err != nil || !found {
			t.Fatalf("delete of live point %d: found=%v err=%v", live[i].val, found, err)
		}
		live = append(live[:i], live[i+1:]...)
	}
	for op := 0; op < 3000; op++ {
		if len(live) == 0 || rng.Float64() < 0.7 {
			insert()
		} else {
			remove()
		}
	}
	for n := len(live) * 3 / 5; n > 0; n-- {
		remove()
	}
	if ix.bulk != nil {
		for i := 0; i < 1500; i++ {
			live = append(live, fresh())
		}
		vals := make([]uint64, len(live))
		cs := make([][]float64, len(live))
		for i, p := range live {
			vals[i], cs[i] = p.val, p.c
		}
		if err := ix.bulk(vals, cs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		insert()
	}
	for i := 0; i < 100; i++ {
		remove()
	}
	same := make([]float64, d)
	for k := range same {
		same[k] = goldenScale[k] / 4
	}
	first := len(live)
	for i := 0; i < 130; i++ {
		p := goldenLive{val: next, c: same}
		next++
		if err := ix.insert(p.val, p.c); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	for i := 0; i < 40; i++ {
		j := first + rng.Intn(len(live)-first)
		found, err := ix.remove(live[j].val, live[j].c)
		if err != nil || !found {
			t.Fatalf("delete of duplicate %d: found=%v err=%v", live[j].val, found, err)
		}
		live = append(live[:j], live[j+1:]...)
	}
	if ix.size() != len(live) {
		t.Fatalf("Len = %d, stream left %d live", ix.size(), len(live))
	}
	return live
}

// goldenQueries is the fixed 50-query set: conjunctions of two to four
// random half-spaces, every fifth one a thin slab.
func goldenQueries(d int) [][]goldenHalfSpace {
	rng := rand.New(rand.NewSource(4242))
	qs := make([][]goldenHalfSpace, 50)
	for i := range qs {
		if i%5 == 4 {
			coef := make([]float64, d)
			at := 0.0
			for k := range coef {
				coef[k] = 1 / goldenScale[k]
				at += rng.Float64()
			}
			neg := make([]float64, d)
			for k := range neg {
				neg[k] = -coef[k]
			}
			qs[i] = []goldenHalfSpace{{Coef: coef, C: at + 0.01}, {Coef: neg, C: -(at - 0.01)}}
			continue
		}
		q := make([]goldenHalfSpace, 2+rng.Intn(3))
		for j := range q {
			coef := make([]float64, d)
			c := 0.0
			for k := range coef {
				coef[k] = (rng.Float64()*2 - 1) / goldenScale[k]
				c += coef[k] * rng.Float64() * goldenScale[k]
			}
			q[j] = goldenHalfSpace{Coef: coef, C: c + rng.Float64()*0.2}
		}
		qs[i] = q
	}
	return qs
}

// goldenPagesHash is SHA-256 over (id, image) of every live page in id
// order.
func goldenPagesHash(t *testing.T, st *pager.MemStore) string {
	t.Helper()
	h := sha256.New()
	var idb [4]byte
	for id, seen := pager.PageID(1), 0; seen < st.PagesInUse(); id++ {
		p, err := st.Read(id)
		if errors.Is(err, pager.ErrPageNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		seen++
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		h.Write(idb[:])
		h.Write(p.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenPointIndexes(t *testing.T) {
	rows := []struct {
		name      string
		build     func(*testing.T, pager.Store, int) goldenIndex
		d         int
		bulk      bool   // the stream includes its bulk-load step
		pagesHash string // d = 2 only: the on-page bytes are pinned
		pages     int
		reads     int64
		results   int
		answers   string
	}{
		{name: "kdtree", build: goldenKD, d: 2, bulk: true,
			pagesHash: "f768bd6770f5f91924b9ed86fff48c61acd6adeabf1a36971d6c655888f98f7d",
			pages:     103, reads: 1882, results: 27629,
			answers: "d84097a23ef63d303a1e464343c212e3bc28bd789038ccb261e1b27eec894eb0"},
		{name: "kdtree", build: goldenKD, d: 2,
			pagesHash: "d6013ef5ade1f7c3c0d59dcb1986f2cd4f24a97595778b16ce5d99e94c3137ca",
			pages:     43, reads: 853, results: 8549,
			answers: "4c53ad3bdaddc043b05efe5740dfc17c008a75c16c79629fa6337bcd3c856eae"},
		{name: "kdtree", build: goldenKD, d: 4,
			pages: 80, reads: 2483, results: 7682,
			answers: "d7ba27ee6a6d562750b816b1faa4baec97b242e715f248d49d19184870a779d4"},
		{name: "parttree", build: goldenPart, d: 2, bulk: true,
			pagesHash: "2cc5831f9f3804f04c242b82bc020ce54ebc98c9cb97084dd22d76f639d59bf1",
			pages:     113, reads: 3543, results: 27629,
			answers: "d84097a23ef63d303a1e464343c212e3bc28bd789038ccb261e1b27eec894eb0"},
		{name: "parttree", build: goldenPart, d: 2,
			pagesHash: "5b48aa9568a157480c5668430cc842d00567512b90bf642af630db763e4d1da6",
			pages:     37, reads: 1221, results: 8549,
			answers: "4c53ad3bdaddc043b05efe5740dfc17c008a75c16c79629fa6337bcd3c856eae"},
		{name: "parttree", build: goldenPart, d: 4, bulk: true,
			pages: 213, reads: 8604, results: 25181,
			answers: "82efe6a9ba3b3a6de3e5d4f0d1f791162e7501c11c88d9b5f37249836add9169"},
	}
	for _, row := range rows {
		st := pager.NewMemStore(512)
		ix := row.build(t, st, row.d)
		if !row.bulk {
			ix.bulk = nil
		}
		live := goldenStream(t, ix, row.d)

		pagesHash := ""
		if row.d == 2 {
			pagesHash = goldenPagesHash(t, st)
		}
		pages := st.PagesInUse()

		answers := sha256.New()
		results := 0
		before := st.Stats()
		for qi, q := range goldenQueries(row.d) {
			var got []uint64
			if err := ix.search(q, func(v uint64) { got = append(got, v) }); err != nil {
				t.Fatal(err)
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], uint64(qi)<<32|uint64(len(got)))
			answers.Write(b[:])
			for _, v := range got {
				binary.LittleEndian.PutUint64(b[:], v)
				answers.Write(b[:])
			}
			results += len(got)
		}
		reads := st.Stats().Sub(before).Reads
		ansHash := hex.EncodeToString(answers.Sum(nil))

		t.Logf("%s d=%d bulk=%v: live=%d pagesHash=%q pages=%d reads=%d results=%d answers=%q",
			row.name, row.d, row.bulk, len(live), pagesHash, pages, reads, results, ansHash)
		if pagesHash != row.pagesHash {
			t.Errorf("%s d=%d bulk=%v: page images hash %s, want %s", row.name, row.d, row.bulk, pagesHash, row.pagesHash)
		}
		if pages != row.pages || reads != row.reads {
			t.Errorf("%s d=%d bulk=%v: %d pages, %d reads over the query set; want %d, %d", row.name, row.d, row.bulk, pages, reads, row.pages, row.reads)
		}
		if results != row.results || ansHash != row.answers {
			t.Errorf("%s d=%d bulk=%v: %d results, answers hash %s; want %d, %s", row.name, row.d, row.bulk, results, ansHash, row.results, row.answers)
		}
	}
}
