package bptree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"mobidx/internal/pager"
)

// refSort is the oracle SortEntries must match: a stable comparison sort
// on (Key, Val) with float comparison, so -0 and +0 keys are equal and
// entries equal in (Key, Val) keep their input order.
func refSort(es []Entry) {
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i], es[j]
		return a.Key < b.Key || (a.Key == b.Key && a.Val < b.Val)
	})
}

// checkSortMatches sorts a copy of es with SortEntries and with refSort
// and fails unless the two agree bit for bit, sign of zero and Aux
// included.
func checkSortMatches(t *testing.T, name string, es []Entry) {
	t.Helper()
	got := append([]Entry(nil), es...)
	want := append([]Entry(nil), es...)
	SortEntries(got)
	refSort(want)
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.Key) != math.Float64bits(w.Key) || g.Val != w.Val ||
			math.Float64bits(g.Aux) != math.Float64bits(w.Aux) {
			t.Fatalf("%s (n=%d): entry %d = %+v, stable order has %+v", name, len(es), i, g, w)
		}
	}
}

// sortCase generates n entries; Aux carries the input position, so a
// stability slip shows as a swapped Aux.
type sortCase struct {
	name string
	gen  func(rng *rand.Rand, i int) Entry
}

var sortCases = []sortCase{
	{"compact/random", func(rng *rand.Rand, i int) Entry {
		return Entry{Key: Compact.RoundKey(rng.Float64()*2000 - 1000), Val: uint64(rng.Uint32())}
	}},
	{"compact/dup-keys", func(rng *rand.Rand, i int) Entry {
		return Entry{Key: Compact.RoundKey(float64(rng.Intn(8)) - 3.5), Val: uint64(rng.Intn(64))}
	}},
	{"compact/equal-composites", func(rng *rand.Rand, i int) Entry {
		return Entry{Key: float64(rng.Intn(3)), Val: uint64(rng.Intn(3))}
	}},
	{"compact/signed-zeros", func(rng *rand.Rand, i int) Entry {
		// Vals disagree with the zeros' bit order: a -0 key often carries a
		// val above a +0 key's, so a sort on raw float bits would split them.
		k := 0.0
		if rng.Intn(2) == 0 {
			k = math.Copysign(0, -1)
		}
		return Entry{Key: k, Val: uint64(rng.Intn(16))}
	}},
	{"compact/negative-and-extremes", func(rng *rand.Rand, i int) Entry {
		ks := []float64{math.Inf(-1), -math.MaxFloat32, -1, -math.SmallestNonzeroFloat32,
			math.Copysign(0, -1), 0, math.SmallestNonzeroFloat32, 1, math.MaxFloat32, math.Inf(1)}
		return Entry{Key: ks[rng.Intn(len(ks))], Val: uint64(rng.Intn(4)) << 30}
	}},
	{"wide/random", func(rng *rand.Rand, i int) Entry {
		return Entry{Key: rng.NormFloat64() * 1e6, Val: rng.Uint64()}
	}},
	{"wide/float32-keys-wide-vals", func(rng *rand.Rand, i int) Entry {
		return Entry{Key: float64(rng.Intn(5) - 2), Val: uint64(rng.Intn(4)) << 31}
	}},
	{"wide/one-wide-val", func(rng *rand.Rand, i int) Entry {
		// Radix-eligible except for the last entry, which sends the whole
		// slice to the comparison sort.
		e := Entry{Key: float64(rng.Intn(5)), Val: uint64(rng.Intn(8))}
		if i == 299 {
			e.Val = math.MaxUint32 + 1
		}
		return e
	}},
}

// SortEntries must order every input exactly as a stable comparison sort
// does, on either side of the radix cutoff.
func TestSortEntriesMatchesStableOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, c := range sortCases {
		for _, n := range []int{0, 1, 2, 31, radixMin - 1, radixMin, radixMin + 1, 300, 5000} {
			es := make([]Entry, n)
			for i := range es {
				es[i] = c.gen(rng, i)
				es[i].Aux = float64(i)
			}
			checkSortMatches(t, c.name, es)
		}
	}
}

// Bulk-loaded pages must not depend on which sort ordered the entries:
// BulkLoad sorting internally writes the same page bytes as BulkLoadSorted
// given the oracle's order, for both codecs.
func TestBulkLoadImagesMatchStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, codec := range []Codec{Compact, Wide} {
		for _, c := range sortCases {
			es := make([]Entry, 900)
			for i := range es {
				es[i] = c.gen(rng, i)
				es[i].Aux = float64(i)
				if codec == Compact {
					es[i].Val &= math.MaxUint32
				}
			}
			build := func(load func(*Tree) error) string {
				st := pager.NewMemStore(256)
				tr, err := New(st, Config{Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				if err := load(tr); err != nil {
					t.Fatal(err)
				}
				return goldenImage(t, st)
			}
			got := build(func(tr *Tree) error { return tr.BulkLoad(es, 0) })
			want := build(func(tr *Tree) error {
				rs := make([]Entry, len(es))
				for i, e := range es {
					rs[i] = Entry{Key: codec.RoundKey(e.Key), Val: e.Val, Aux: codec.RoundKey(e.Aux)}
				}
				refSort(rs)
				return tr.BulkLoadSorted(rs, 0)
			})
			if got != want {
				t.Errorf("%s/%s: BulkLoad image %s, oracle-sorted image %s", codecName(codec), c.name, got, want)
			}
		}
	}
}

// FuzzSortEntries checks SortEntries against the stable oracle on
// arbitrary entries. Each 9-byte record is a float32 key, a 32-bit val
// and a mode byte that can widen the key past float32 precision or the
// val past 32 bits; the records are tiled 1+reps%64 times so short inputs
// still cross the radix cutoff and carry equal composites.
func FuzzSortEntries(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(40))
	f.Add([]byte{0, 0, 0x80, 0xbf, 2, 0, 0, 0, 0, 0, 0, 0x80, 0x3f, 1, 0, 0, 0, 2}, uint16(63))
	f.Add([]byte{0, 0, 0x80, 0x7f, 0, 0, 0, 0, 1}, uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, reps uint16) {
		var recs []Entry
		for ; len(data) >= 9; data = data[9:] {
			k := float64(math.Float32frombits(binary.LittleEndian.Uint32(data)))
			if math.IsNaN(k) {
				k = 0 // NaN keys have no order to match
			}
			e := Entry{Key: k, Val: uint64(binary.LittleEndian.Uint32(data[4:]))}
			if data[8]&1 != 0 {
				e.Key += k * 0x1p-40 // no longer an exact float32 (unless 0 or ±Inf)
			}
			if data[8]&2 != 0 {
				e.Val <<= 32
			}
			recs = append(recs, e)
		}
		if len(recs) == 0 {
			return
		}
		es := make([]Entry, 0, len(recs)*(1+int(reps%64)))
		for r := 0; r <= int(reps%64); r++ {
			es = append(es, recs...)
		}
		for i := range es {
			es[i].Aux = float64(i)
		}
		checkSortMatches(t, "fuzz", es)
	})
}

// BenchmarkSortEntries sorts 150k Compact entries, about as many motions
// as one shard of a two-band, 200k-object deployment holds.
func BenchmarkSortEntries(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	es := make([]Entry, 150000)
	for i := range es {
		es[i] = Entry{Key: Compact.RoundKey(rng.Float64() * 4000), Val: uint64(rng.Intn(200000)), Aux: Compact.RoundKey(rng.Float64())}
	}
	work := make([]Entry, len(es))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, es)
		SortEntries(work)
	}
}
