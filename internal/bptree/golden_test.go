package bptree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/pager"
)

// The B+-tree golden test pins what the tree leaves on its pages, so that a
// rewrite of how nodes are read and built is shown not to move a byte: one
// seeded stream per codec at 256-byte pages, through growth (leaf,
// internal and root splits), churn and a drain to the empty root leaf
// (borrows from either sibling and merges with either sibling at leaf and
// internal level, root collapse), bulk loads at fills 0.7, 0.9 and 1.0 with
// churn on the full one, a sorted bulk load and Destroy. After each phase
// it pins the SHA-256 of every live page (with its id), Meta(),
// PagesInUse(), and a hash of the phase's operation results together with
// the Range/Floor/Ceil/Get answers over a fixed probe set. The test reads
// pages with its own parser, never with the code under test, and checks
// that the stream reached every structural case it names. Every constant
// below was captured from the decoding implementation at commit 6eae191;
// none may be edited to make a later commit pass.

// goldenBPTree is one phase's pinned state.
type goldenBPTree struct {
	meta    Meta
	pages   int
	image   string // SHA-256 over every live page in ascending id order: id ‖ bytes
	answers string // SHA-256 over the phase's operation results and the probe answers
}

var goldenBPTreeWant = map[string]goldenBPTree{
	"wide/grow": {meta: Meta{Root: 134, Height: 4, Size: 1000}, pages: 162,
		image:   "794e4ab07abf0bfd2d9cfd9aa6f73b4ff03f1789f4e949619e9cc8c19650ead6",
		answers: "81c00027d23bd87821c4aad36dfa6dc193b90bad992d42a414cac4adf85b809a"},
	"wide/churn": {meta: Meta{Root: 134, Height: 4, Size: 941}, pages: 166,
		image:   "45a656a5a25b48f01b44dcd32ea08709d9345bb1786f362e12199001a235b987",
		answers: "01b58f4a392e71ad0438516ca8a089024f132187f02330b2dcd97910aa84f2d8"},
	"wide/drain": {meta: Meta{Root: 1, Height: 1, Size: 0}, pages: 1,
		image:   "b1fb59a809483990baf94ff9da73aa7a4ece69bd5baa524744ec976d467b9500",
		answers: "09d24a3107db8a92e22aa1e5a3f2c2f7d737ede234e5c216a1389c93b4ae9ae1"},
	"wide/regrow": {meta: Meta{Root: 21, Height: 3, Size: 300}, pages: 50,
		image:   "444943f30ba5787857d53cf813f35f2c8143c8195eb8e323548c950736315b62",
		answers: "2d26008e8d416fddbcc07796b3cec7a72ab8a7644e1cb547b1888048c1bd1e47"},
	"wide/bulk-0.7": {meta: Meta{Root: 30, Height: 4, Size: 500}, pages: 84,
		image:   "3e85f45abf21278ac4f72523fa4ba42959db623e4f474841bf5f9d5a0ffa546c",
		answers: "d714d0911fffeedb516a2fdd941353f88f86b7d1c081f3630c2bd63950bbdcd2"},
	"wide/bulk-0.9": {meta: Meta{Root: 124, Height: 3, Size: 500}, pages: 63,
		image:   "4b273cf2f689b735bcd2a25d937ffabeecdb1dc4cc957b518ff7e75d371c5e5d",
		answers: "80b8c8f49257aa906c1565722058eb2d659d76bc6f561fc2b638518a8db8d5f5"},
	"wide/bulk-1.0": {meta: Meta{Root: 61, Height: 3, Size: 500}, pages: 56,
		image:   "8f3b6d19fcd159608d9d3f392b62c77d1830275c741d35f2ec1a67240c44dd3a",
		answers: "25ffb0599d061c0cc5129420d16707ba1d8b159da86c0cca8ca07ea8d3331f5d"},
	"wide/bulk-1.0-churn": {meta: Meta{Root: 61, Height: 3, Size: 461}, pages: 80,
		image:   "f0eb02b138e1133382154570b89de0735edf03e18b2f693161ad631004654f57",
		answers: "0477cabc6643b50d1194c04954eb9d6d241536a92c7bfa60aa6565a8d2c1a585"},
	"wide/bulk-sorted": {meta: Meta{Root: 3, Height: 3, Size: 500}, pages: 63,
		image:   "6823ec8884b040e78805114d1db0ecff9bf136f9aaa252fee107c5793fe664f0",
		answers: "02d21aa49662ca73e6a94cbbbc41864c71438115787cc3307db19c887e44f074"},
	"wide/destroy": {meta: Meta{Root: 3, Height: 3, Size: 500}, pages: 0,
		image:   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		answers: "cdb4ee2aea69cc6a83331bbe96dc2caa9a299d21329efb0336fc02a82e1839a8"},
	"compact/grow": {meta: Meta{Root: 25, Height: 3, Size: 1000}, pages: 77,
		image:   "353af6654279273931daffc9f45fa44c9d6eb05f234ef47e99b50b9f810e94fa",
		answers: "fb4db32f80548c40365c63671e1851164736f5ffdb83da22905647747b02b8e0"},
	"compact/churn": {meta: Meta{Root: 25, Height: 3, Size: 941}, pages: 77,
		image:   "999ebf72c28164b3f234466ccc6c8e86f1cad685d3138a09bf3f68d642ddd866",
		answers: "2de057431995c7887875d8966abcd2634704f973ae251ae446a6c10ff0dc0b20"},
	"compact/drain": {meta: Meta{Root: 1, Height: 1, Size: 0}, pages: 1,
		image:   "b1fb59a809483990baf94ff9da73aa7a4ece69bd5baa524744ec976d467b9500",
		answers: "09d24a3107db8a92e22aa1e5a3f2c2f7d737ede234e5c216a1389c93b4ae9ae1"},
	"compact/regrow": {meta: Meta{Root: 79, Height: 2, Size: 300}, pages: 22,
		image:   "c1037249515bea3b8e0741011a7b41e6c6eb58feb83d6a6b8884a4c31160f0de",
		answers: "c525a4ed98c2004f4f7db3224e378eaf046874a486545de80c6a9aaf517ac236"},
	"compact/bulk-0.7": {meta: Meta{Root: 38, Height: 3, Size: 500}, pages: 40,
		image:   "b8a95cdd86dfbe3ee1910d2f4f94d8608767a326d766b22d1c4f18c0a9f5615a",
		answers: "8768d19045eca2811e90cd23adfe6daa39ef9b3b04f4738063482d0233f5240c"},
	"compact/bulk-0.9": {meta: Meta{Root: 59, Height: 3, Size: 500}, pages: 31,
		image:   "39664624000c2da4e3c8b9a3eb70da485305a928976b24651175d07b619f6831",
		answers: "a8bcf7f3170fe921c254532450b8c783eda171fd72e501d1d62d2305a1be5c72"},
	"compact/bulk-1.0": {meta: Meta{Root: 4, Height: 3, Size: 500}, pages: 28,
		image:   "c8d0a3418e6f0a128625ae466b763aabdc0637e1cd18eeb74b223b0afa2e6f01",
		answers: "b424840b54eeabe45868e10537f58f97262cc4035b213a6b1bc0bfb044b40323"},
	"compact/bulk-1.0-churn": {meta: Meta{Root: 4, Height: 3, Size: 461}, pages: 41,
		image:   "4189211e25f97d6f7031d21d683be63fa038961188febe4f823ccf121e5aa1b7",
		answers: "0e311e55bec3761fd7c7832e06372e3dd899b847c906bb1d0da149707f5b025a"},
	"compact/bulk-sorted": {meta: Meta{Root: 3, Height: 3, Size: 500}, pages: 31,
		image:   "f03c15dcad4d2639b7fd75d9540eb43e12f54e4cce05ac294d1b4b5e56bf8f54",
		answers: "a6e86904ed195ff49e2ee49623a98b181ccba62dcaae7a1a3f30ef96f12cef42"},
	"compact/destroy": {meta: Meta{Root: 3, Height: 3, Size: 500}, pages: 0,
		image:   "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
		answers: "cdb4ee2aea69cc6a83331bbe96dc2caa9a299d21329efb0336fc02a82e1839a8"},
}

const goldenPageSize = 256

// goldenNode is one page as the golden test parses it: the 12-byte header
// (type, count, next-leaf link) and, for an internal node, the leftmost
// child followed by count (key, val, child) separators.
type goldenNode struct {
	leaf  bool
	count int
	next  pager.PageID
	kids  []pager.PageID
	keys  []float64
	vals  []uint64
}

func goldenParse(t *testing.T, st *pager.MemStore, codec Codec, id pager.PageID) goldenNode {
	t.Helper()
	d, err := st.View(id)
	if err != nil {
		t.Fatalf("page %d: %v", id, err)
	}
	n := goldenNode{
		leaf:  d[0] == 1,
		count: int(binary.LittleEndian.Uint16(d[2:4])),
		next:  pager.PageID(binary.LittleEndian.Uint32(d[4:8])),
	}
	if n.leaf {
		return n
	}
	n.kids = append(n.kids, pager.PageID(binary.LittleEndian.Uint32(d[12:16])))
	off := 16
	for i := 0; i < n.count; i++ {
		if codec == Compact {
			n.keys = append(n.keys, float64(math.Float32frombits(binary.LittleEndian.Uint32(d[off:]))))
			n.vals = append(n.vals, uint64(binary.LittleEndian.Uint32(d[off+4:])))
			n.kids = append(n.kids, pager.PageID(binary.LittleEndian.Uint32(d[off+8:])))
			off += 12
		} else {
			n.keys = append(n.keys, math.Float64frombits(binary.LittleEndian.Uint64(d[off:])))
			n.vals = append(n.vals, binary.LittleEndian.Uint64(d[off+8:]))
			n.kids = append(n.kids, pager.PageID(binary.LittleEndian.Uint32(d[off+16:])))
			off += 20
		}
	}
	return n
}

// goldenLevel is one non-root node on a descent, with its siblings under
// the same parent (NilPage when absent) and every entry count, taken
// before an operation.
type goldenLevel struct {
	leaf                 bool
	id, left, right      pager.PageID
	count, nLeft, nRight int
}

// goldenPath records the descent to composite (k, v): at every level the
// first child whose separator exceeds (k, v).
func goldenPath(t *testing.T, st *pager.MemStore, codec Codec, m Meta, k float64, v uint64) []goldenLevel {
	t.Helper()
	var out []goldenLevel
	id := m.Root
	for h := m.Height; h > 1; h-- {
		n := goldenParse(t, st, codec, id)
		ci := sort.Search(n.count, func(i int) bool {
			return n.keys[i] > k || (n.keys[i] == k && n.vals[i] > v)
		})
		lv := goldenLevel{leaf: h == 2, id: n.kids[ci], count: goldenParse(t, st, codec, n.kids[ci]).count}
		if ci > 0 {
			lv.left = n.kids[ci-1]
			lv.nLeft = goldenParse(t, st, codec, lv.left).count
		}
		if ci < n.count {
			lv.right = n.kids[ci+1]
			lv.nRight = goldenParse(t, st, codec, lv.right).count
		}
		out = append(out, lv)
		id = lv.id
	}
	return out
}

// goldenObserve names the structural cases one operation went through by
// comparing the counts and liveness of the pages on its path before and
// after it.
func goldenObserve(st *pager.MemStore, before []goldenLevel, hBefore, hAfter int, insert bool, seen map[string]bool) {
	count := func(id pager.PageID) (int, bool) {
		d, err := st.View(id)
		if err != nil {
			return 0, false
		}
		return int(binary.LittleEndian.Uint16(d[2:4])), true
	}
	if insert {
		if hAfter > hBefore {
			seen["root split"] = true
		}
		for _, lv := range before {
			n, _ := count(lv.id)
			if lv.leaf && n != lv.count+1 {
				seen["leaf split"] = true
			}
			if !lv.leaf && n != lv.count && n != lv.count+1 {
				seen["internal split"] = true
			}
		}
		return
	}
	if hAfter < hBefore {
		seen["root collapse"] = true
	}
	for _, lv := range before {
		level := "internal"
		if lv.leaf {
			level = "leaf"
		}
		_, live := count(lv.id)
		_, rightLive := count(lv.right)
		nLeft, _ := count(lv.left)
		nRight, _ := count(lv.right)
		switch {
		case !live:
			seen[level+" merge with left"] = true
		case lv.right != pager.NilPage && !rightLive:
			seen[level+" merge with right"] = true
		case lv.left != pager.NilPage && nLeft == lv.nLeft-1:
			seen[level+" borrow from left"] = true
		case lv.right != pager.NilPage && nRight == lv.nRight-1:
			seen[level+" borrow from right"] = true
		}
	}
}

// goldenImage hashes every live page of st with its id, in id order.
func goldenImage(t *testing.T, st *pager.MemStore) string {
	t.Helper()
	h := sha256.New()
	var idb [4]byte
	found := 0
	for id := pager.PageID(1); found < st.PagesInUse(); id++ {
		if id > 1<<20 {
			t.Fatalf("found %d of %d live pages below id %d", found, st.PagesInUse(), id)
		}
		d, err := st.View(id)
		if err != nil {
			continue
		}
		found++
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		h.Write(idb[:])
		h.Write(d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenEntry(h hash.Hash, e Entry, ok bool) {
	var b [25]byte
	if ok {
		b[0] = 1
	}
	binary.LittleEndian.PutUint64(b[1:], math.Float64bits(e.Key))
	binary.LittleEndian.PutUint64(b[9:], e.Val)
	binary.LittleEndian.PutUint64(b[17:], math.Float64bits(e.Aux))
	h.Write(b[:])
}

// goldenProbes answers the fixed probe set into h: ranges, Floor and Ceil
// at fixed keys, and Get of fixed composites plus the first live ones.
func goldenProbes(t *testing.T, tr *Tree, live []Entry, h hash.Hash) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	ranges := [][2]float64{{math.Inf(-1), math.Inf(1)}, {70, 70}, {-10, -1}, {300, 400}}
	for i := 0; i < 12; i++ {
		lo := rng.Float64()*220 - 5
		ranges = append(ranges, [2]float64{lo, lo + rng.Float64()*30})
	}
	for _, r := range ranges {
		n := 0
		if err := tr.Range(r[0], r[1], func(e Entry) bool { goldenEntry(h, e, true); n++; return true }); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "range %d;", n)
	}
	keys := []float64{math.Inf(-1), math.Inf(1), -1, 0, 7, 209.3, 250}
	for i := 0; i < 40; i++ {
		keys = append(keys, rng.Float64()*220-5, float64(rng.Intn(300))*0.7)
	}
	for _, k := range keys {
		e, ok, err := tr.Floor(k)
		if err != nil {
			t.Fatal(err)
		}
		goldenEntry(h, e, ok)
		if e, ok, err = tr.Ceil(k); err != nil {
			t.Fatal(err)
		}
		goldenEntry(h, e, ok)
	}
	gets := make([]Entry, 0, 60)
	for i := 0; i < 40; i++ {
		gets = append(gets, Entry{Key: float64(rng.Intn(300)) * 0.7, Val: uint64(rng.Intn(2000))})
	}
	for i := 0; i < 20 && i < len(live); i++ {
		gets = append(gets, live[(i*37)%len(live)])
	}
	for _, g := range gets {
		e, ok, err := tr.Get(g.Key, g.Val)
		if err != nil {
			t.Fatal(err)
		}
		goldenEntry(h, e, ok)
	}
}

func TestGoldenBPTreeImages(t *testing.T) {
	for _, codec := range []Codec{Wide, Compact} {
		t.Run(codecName(codec), func(t *testing.T) {
			st := pager.NewMemStore(goldenPageSize)
			tr, err := New(st, Config{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1999))
			var (
				live    []Entry // codec-rounded, in no particular order
				nextVal uint64
				seen    = map[string]bool{}
				h       = sha256.New()
			)
			fresh := func() Entry {
				nextVal++
				return Entry{Key: float64(rng.Intn(300)) * 0.7, Val: nextVal, Aux: rng.Float64()}
			}
			rounded := func(e Entry) Entry {
				return Entry{Key: codec.roundKey(e.Key), Val: e.Val, Aux: codec.roundKey(e.Aux)}
			}
			// result folds one operation's outcome into the phase hash; a
			// miss is ErrNotFound, anything else fails the test.
			result := func(op string, err error) {
				t.Helper()
				switch {
				case err == nil:
					h.Write([]byte{'.'})
				case errors.Is(err, ErrNotFound):
					h.Write([]byte{'n'})
				default:
					t.Fatalf("%s: %v", op, err)
				}
			}
			insert := func(e Entry) {
				t.Helper()
				m := tr.Meta()
				before := goldenPath(t, st, codec, m, codec.roundKey(e.Key), e.Val)
				result("insert", tr.Insert(e))
				goldenObserve(st, before, m.Height, tr.Height(), true, seen)
				live = append(live, rounded(e))
			}
			remove := func(k float64, v uint64) {
				t.Helper()
				m := tr.Meta()
				before := goldenPath(t, st, codec, m, codec.roundKey(k), v)
				err := tr.Delete(k, v)
				result("delete", err)
				goldenObserve(st, before, m.Height, tr.Height(), false, seen)
				if err == nil {
					for i, e := range live {
						if e.Key == codec.roundKey(k) && e.Val == v {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			}
			churn := func(ops int) {
				t.Helper()
				for i := 0; i < ops; i++ {
					switch r := rng.Intn(20); {
					case r < 9 || len(live) == 0:
						insert(fresh())
					case r < 19:
						e := live[rng.Intn(len(live))]
						remove(e.Key, e.Val)
					default:
						remove(float64(rng.Intn(300))*0.7, uint64(rng.Intn(int(nextVal)+1)))
					}
				}
			}
			bulk := func(fill float64) {
				t.Helper()
				es := make([]Entry, 500)
				for i := range es {
					es[i] = fresh()
				}
				result("bulk", tr.BulkLoad(es, fill))
				live = live[:0]
				for _, e := range es {
					live = append(live, rounded(e))
				}
			}
			phase := func(name string) {
				t.Helper()
				if name != "destroy" {
					if err := tr.CheckInvariants(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if tr.Len() != len(live) {
						t.Fatalf("%s: Len %d, model %d", name, tr.Len(), len(live))
					}
					goldenProbes(t, tr, live, h)
				}
				got := goldenBPTree{meta: tr.Meta(), pages: st.PagesInUse(), image: goldenImage(t, st), answers: hex.EncodeToString(h.Sum(nil))}
				h.Reset()
				key := codecName(codec) + "/" + name
				if want := goldenBPTreeWant[key]; got != want {
					t.Errorf("%s: got\n\t%q: {meta: Meta{Root: %d, Height: %d, Size: %d}, pages: %d,\n\t\timage: %q,\n\t\tanswers: %q},",
						key, key, got.meta.Root, got.meta.Height, got.meta.Size, got.pages, got.image, got.answers)
				}
			}

			for tr.Height() < 3 || len(live) < 1000 {
				insert(fresh())
			}
			phase("grow")
			churn(2500)
			phase("churn")
			remove(-1, 0)
			for pick := 0; len(live) > 0; pick++ {
				sort.Slice(live, func(i, j int) bool { return live[i].less(live[j].Key, live[j].Val) })
				e := live[[]int{0, len(live) - 1, len(live) / 2}[pick%3]]
				remove(e.Key, e.Val)
			}
			remove(1, 1)
			if tr.Height() != 1 || st.PagesInUse() != 1 {
				t.Fatalf("drained to height %d over %d pages, want the empty root leaf", tr.Height(), st.PagesInUse())
			}
			phase("drain")
			for i := 0; i < 300; i++ {
				insert(fresh())
			}
			phase("regrow")
			for _, fill := range []float64{0.7, 0.9, 1.0} {
				bulk(fill)
				phase(fmt.Sprintf("bulk-%.1f", fill))
			}
			churn(300)
			phase("bulk-1.0-churn")
			sorted := make([]Entry, 500)
			for i := range sorted {
				sorted[i] = rounded(fresh())
			}
			sorted = SortEntries(sorted, new(SortScratch))
			result("bulk-sorted", tr.BulkLoadSorted(sorted, 0))
			live = append(live[:0], sorted...)
			phase("bulk-sorted")
			result("destroy", tr.Destroy())
			phase("destroy")

			for _, c := range []string{
				"leaf split", "internal split", "root split", "root collapse",
				"leaf borrow from left", "leaf borrow from right", "leaf merge with left", "leaf merge with right",
				"internal borrow from left", "internal borrow from right", "internal merge with left", "internal merge with right",
			} {
				if !seen[c] {
					t.Errorf("the stream never reached: %s", c)
				}
			}
		})
	}
}

func codecName(c Codec) string {
	if c == Compact {
		return "compact"
	}
	return "wide"
}
