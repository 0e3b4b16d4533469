package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// logPageSize keeps the record logs' pages small: a catalog page holds 7
// records and a chain page 236 payload bytes, so a few dozen records span
// several pages.
const logPageSize = 256

func randomOps(rng *rand.Rand, n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{
			Insert: rng.Intn(2) == 0,
			M: dual.Motion{
				OID: dual.OID(rng.Intn(100)),
				Y0:  rng.Float64() * 1000,
				T0:  rng.Float64() * 50,
				V:   0.2 + rng.Float64(),
			},
		}
	}
	return ops
}

// reseal recomputes a catalog or chain page's CRC trailer, so a case
// reaches the check behind the checksum.
func reseal(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-4:], catPageCRC(data))
}

// patchPage rewrites one stored page in place.
func patchPage(t *testing.T, st pager.Store, id pager.PageID, resealIt bool, edit func(data []byte)) {
	t.Helper()
	p, err := st.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	edit(p.Data)
	if resealIt {
		reseal(p.Data)
	}
	if err := st.Write(p); err != nil {
		t.Fatal(err)
	}
}

// TestRecordLogRejectsCorruption drives every rejection path of the
// shard's durable records — catalog pages, page chains, and the
// superblock and manifest payloads the chains carry. Each case must
// return an error wrapping pager.ErrPageCorrupt and must not panic.
func TestRecordLogRejectsCorruption(t *testing.T) {
	// catalogCase builds a three-page catalog, damages it, and reattaches.
	catalogCase := func(resealIt bool, edit func(c *catalog) (pager.PageID, func([]byte))) func(*testing.T) error {
		return func(t *testing.T) error {
			st := pager.NewMemStore(logPageSize)
			c, err := initCatalog(st)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.appendRaw(randomOps(rand.New(rand.NewSource(5)), 20)); err != nil {
				t.Fatal(err)
			}
			if len(c.pages) != 3 {
				t.Fatalf("catalog spans %d pages, want 3", len(c.pages))
			}
			id, fn := edit(c)
			patchPage(t, st, id, resealIt, fn)
			_, err = attachCatalog(st, c.head)
			return err
		}
	}
	// chainCase builds a three-page chain, damages it, and reads it back.
	chainCase := func(resealIt bool, edit func(c *chain) (pager.PageID, func([]byte))) func(*testing.T) error {
		return func(t *testing.T) error {
			st := pager.NewMemStore(logPageSize)
			c, err := initChain(st, sbMagic)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.write(make([]byte, 2*chainCap(logPageSize)+10)); err != nil {
				t.Fatal(err)
			}
			if len(c.overflow) != 2 {
				t.Fatalf("chain has %d overflow pages, want 2", len(c.overflow))
			}
			id, fn := edit(c)
			patchPage(t, st, id, resealIt, fn)
			_, err = c.read()
			return err
		}
	}
	// payloadCase feeds a decoder damaged images of a valid payload and
	// reports the first result that is not a corruption error.
	payloadCase := func(valid []byte, decode func([]byte) error, images func(valid []byte) [][]byte) func(*testing.T) error {
		return func(t *testing.T) error {
			if err := decode(valid); err != nil {
				t.Fatalf("valid payload rejected: %v", err)
			}
			var err error
			for i, img := range images(valid) {
				if err = decode(img); !errors.Is(err, pager.ErrPageCorrupt) {
					return fmt.Errorf("image %d (%d of %d bytes): %v", i, len(img), len(valid), err)
				}
			}
			return err
		}
	}
	prefixes := func(valid []byte) [][]byte {
		var out [][]byte
		for n := 0; n < len(valid); n++ {
			out = append(out, valid[:n])
		}
		return out
	}
	trailing := func(valid []byte) [][]byte {
		return [][]byte{append(slices.Clone(valid), 0)}
	}
	badVersion := func(valid []byte) [][]byte {
		img := slices.Clone(valid)
		binary.LittleEndian.PutUint32(img, 99)
		return [][]byte{img}
	}

	tree := bptree.Meta{Root: 7, Height: 2, Size: 40}
	sb := encodeSuperblock(superblock{catHead: 3, flushed: 12, meta: core.DualMeta{Gens: []core.DualGenMeta{{
		Epoch: 2, Size: 40,
		Pos: []bptree.Meta{tree, tree}, Neg: []bptree.Meta{tree, tree}, Sub: []bptree.Meta{tree, tree},
	}}}})
	decodeSB := func(b []byte) error { _, err := decodeSuperblock(b); return err }
	man := encodeManifest(manifest{
		Epoch: 4, NextStore: 3,
		Bands: []bandEntry{{Store: 0, Hi: 400}, {Store: 2, Hi: 1000}},
		Mig:   migRecord{State: migPrepared, Band: 1, Cut: 700, NewStore: 3},
	})
	decodeMan := func(b []byte) error { _, err := decodeManifest(b); return err }

	cases := []struct {
		name string
		run  func(*testing.T) error
	}{
		{"catalog/flipped CRC byte", catalogCase(false, func(c *catalog) (pager.PageID, func([]byte)) {
			return c.pages[1], func(d []byte) { d[len(d)-1] ^= 0x40 }
		})},
		{"catalog/flipped record byte", catalogCase(false, func(c *catalog) (pager.PageID, func([]byte)) {
			return c.head, func(d []byte) { d[catHeaderLen+3] ^= 1 }
		})},
		{"catalog/used over capacity", catalogCase(true, func(c *catalog) (pager.PageID, func([]byte)) {
			return c.head, func(d []byte) {
				binary.LittleEndian.PutUint32(d[4:8], uint32(catCap(logPageSize)+catRecLen))
			}
		})},
		{"catalog/used not a record multiple", catalogCase(true, func(c *catalog) (pager.PageID, func([]byte)) {
			return c.pages[2], func(d []byte) { binary.LittleEndian.PutUint32(d[4:8], catRecLen+1) }
		})},
		{"catalog/bad op byte", catalogCase(true, func(c *catalog) (pager.PageID, func([]byte)) {
			return c.pages[1], func(d []byte) { d[catHeaderLen+catRecLen] = 7 }
		})},
		{"catalog/next cycles to head", catalogCase(true, func(c *catalog) (pager.PageID, func([]byte)) {
			return c.pages[2], func(d []byte) { binary.LittleEndian.PutUint32(d[0:4], uint32(c.head)) }
		})},

		{"chain/flipped CRC byte", chainCase(false, func(c *chain) (pager.PageID, func([]byte)) {
			return c.root, func(d []byte) { d[len(d)-2] ^= 1 }
		})},
		{"chain/bad magic on overflow page", chainCase(true, func(c *chain) (pager.PageID, func([]byte)) {
			return c.overflow[0], func(d []byte) { copy(d[0:8], catMagic) }
		})},
		{"chain/length over capacity", chainCase(true, func(c *chain) (pager.PageID, func([]byte)) {
			return c.overflow[1], func(d []byte) {
				binary.LittleEndian.PutUint32(d[12:16], uint32(chainCap(logPageSize)+1))
			}
		})},
		{"chain/next cycles to root", chainCase(true, func(c *chain) (pager.PageID, func([]byte)) {
			return c.overflow[1], func(d []byte) { binary.LittleEndian.PutUint32(d[8:12], uint32(c.root)) }
		})},

		{"superblock/truncated at every length", payloadCase(sb, decodeSB, prefixes)},
		{"superblock/trailing bytes", payloadCase(sb, decodeSB, trailing)},
		{"superblock/unknown version", payloadCase(sb, decodeSB, badVersion)},
		{"manifest/truncated at every length", payloadCase(man, decodeMan, prefixes)},
		{"manifest/trailing bytes", payloadCase(man, decodeMan, trailing)},
		{"manifest/unknown version", payloadCase(man, decodeMan, badVersion)},
		{"manifest/band bounds out of order", payloadCase(man, decodeMan, func(valid []byte) [][]byte {
			bad := encodeManifest(manifest{NextStore: 2, Bands: []bandEntry{{Store: 0, Hi: 600}, {Store: 1, Hi: 600}}})
			return [][]byte{bad}
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.run(t); !errors.Is(err, pager.ErrPageCorrupt) {
				t.Fatalf("got %v, want an error wrapping pager.ErrPageCorrupt", err)
			}
		})
	}
}

// TestCatalogCrashReopen appends to the catalog across several committed
// batches and pages, then reattaches it from nothing but the log image —
// no Close, no checkpoint — and requires the identical op sequence.
func TestCatalogCrashReopen(t *testing.T) {
	log := pager.NewMemLog()
	w, err := pager.OpenWALStore(pager.NewMemStore(logPageSize), log, pager.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var c *catalog
	if err := pager.RunBatch(w, func() (err error) {
		c, err = initCatalog(w)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var want []Op
	for round := 0; round < 10; round++ {
		ops := randomOps(rng, 5)
		if err := pager.RunBatch(w, func() error { return c.appendRaw(ops) }); err != nil {
			t.Fatal(err)
		}
		want = append(want, ops...)
	}
	if len(c.pages) < 3 {
		t.Fatalf("catalog spans %d pages, want at least 3", len(c.pages))
	}
	got, err := c.ops()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want, got) {
		t.Fatalf("round trip: got %d ops, want %d", len(got), len(want))
	}

	w2, err := pager.OpenWALStore(pager.NewMemStore(logPageSize), pager.NewMemLogFrom(log.Bytes()), pager.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := attachCatalog(w2, c.head)
	if err != nil {
		t.Fatal(err)
	}
	if c2.records != len(want) || c2.live != c.live || !slices.Equal(c2.pages, c.pages) {
		t.Fatalf("reattached records=%d live=%d pages=%v, want %d %d %v",
			c2.records, c2.live, c2.pages, len(want), c.live, c.pages)
	}
	got2, err := c2.ops()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(want, got2) {
		t.Fatal("reattached catalog decodes differently")
	}
}
