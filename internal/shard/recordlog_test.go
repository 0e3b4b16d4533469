package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// logPageSize keeps the record chains' pages small: a catalog page holds 7
// records and a superblock page 236 payload bytes, so a few dozen records
// and two rotation generations span several pages.
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

// rawChainPages follows a chain's next links on the raw pages, hdrLen being
// the chain's magic + next + used.
func rawChainPages(t *testing.T, st pager.Store, head pager.PageID, hdrLen int) []pager.PageID {
	t.Helper()
	var ids []pager.PageID
	for id := head; id != pager.NilPage; {
		p, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		id = pager.PageID(binary.LittleEndian.Uint32(p.Data[hdrLen-8:]))
	}
	return ids
}

// TestRecordLogRejectsCorruption drives the rejection paths of the shard's
// durable records from the shard's side. The catalog and chain rows damage
// one page under a closed shard and reopen it: whatever pager.RecordChain
// makes of the page (its own table is TestRecordChainRejectsCorruption)
// must come out of Open wrapping pager.ErrPageCorrupt. The superblock and
// manifest rows feed the payload decoders damaged images directly. Nothing
// may panic.
func TestRecordLogRejectsCorruption(t *testing.T) {
	const catHdr, sbHdr = 8, 16
	// openCase builds a shard whose catalog spans four pages and whose
	// superblock, describing two rotation generations, spans two; closes it;
	// damages one page of the base store; and reopens.
	openCase := func(reseal bool, pick func(cat, sb []pager.PageID) (pager.PageID, func([]byte))) func(*testing.T) error {
		return func(t *testing.T) error {
			cfg := Config{ID: 7, Terrain: testTerrain(), PageSize: logPageSize}
			base, log := pager.NewMemStore(logPageSize), pager.NewMemLog()
			s, err := Open(cfg, base, log)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 25; i++ {
				m := testMotion(i)
				if i >= 20 {
					m.T0 = 6300 // the next rotation epoch
				}
				if err := s.Apply(context.Background(), []Op{{Insert: true, M: m}}); err != nil {
					t.Fatal(err)
				}
			}
			cat := s.cat.chain.Head()
			sb := s.sb.Head()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			catPages, sbPages := rawChainPages(t, base, cat, catHdr), rawChainPages(t, base, sb, sbHdr)
			if len(catPages) != 4 || len(sbPages) != 2 {
				t.Fatalf("catalog spans %d pages and superblock %d, want 4 and 2", len(catPages), len(sbPages))
			}
			id, edit := pick(catPages, sbPages)
			p, err := base.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			edit(p.Data)
			if reseal {
				sum := crc32.Checksum(p.Data[:len(p.Data)-4], crc32.MakeTable(crc32.Castagnoli))
				binary.LittleEndian.PutUint32(p.Data[len(p.Data)-4:], sum)
			}
			if err := base.Write(p); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(cfg, base, pager.NewMemLogFrom(log.Bytes()))
			if err == nil {
				s2.Close()
			}
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
	version := func(v uint32) func(valid []byte) [][]byte {
		return func(valid []byte) [][]byte {
			img := slices.Clone(valid)
			binary.LittleEndian.PutUint32(img, v)
			return [][]byte{img}
		}
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
		{"catalog/flipped CRC byte", openCase(false, func(cat, _ []pager.PageID) (pager.PageID, func([]byte)) {
			return cat[1], func(d []byte) { d[len(d)-1] ^= 0x40 }
		})},
		{"catalog/flipped record byte", openCase(false, func(cat, _ []pager.PageID) (pager.PageID, func([]byte)) {
			return cat[0], func(d []byte) { d[catHdr+3] ^= 1 }
		})},
		{"catalog/used over capacity", openCase(true, func(cat, _ []pager.PageID) (pager.PageID, func([]byte)) {
			return cat[0], func(d []byte) { binary.LittleEndian.PutUint32(d[4:8], 8*catRecLen) }
		})},
		{"catalog/used not a record multiple", openCase(true, func(cat, _ []pager.PageID) (pager.PageID, func([]byte)) {
			return cat[2], func(d []byte) { binary.LittleEndian.PutUint32(d[4:8], catRecLen+1) }
		})},
		{"catalog/bad op byte", openCase(true, func(cat, _ []pager.PageID) (pager.PageID, func([]byte)) {
			return cat[1], func(d []byte) { d[catHdr+catRecLen] = 7 }
		})},
		{"catalog/next cycles to head", openCase(true, func(cat, _ []pager.PageID) (pager.PageID, func([]byte)) {
			return cat[2], func(d []byte) { binary.LittleEndian.PutUint32(d[0:4], uint32(cat[0])) }
		})},

		{"chain/flipped CRC byte", openCase(false, func(_, sb []pager.PageID) (pager.PageID, func([]byte)) {
			return sb[1], func(d []byte) { d[len(d)-2] ^= 1 }
		})},
		{"chain/bad magic on overflow page", openCase(true, func(_, sb []pager.PageID) (pager.PageID, func([]byte)) {
			return sb[1], func(d []byte) { copy(d[0:8], manMagic) }
		})},
		{"chain/length over capacity", openCase(true, func(_, sb []pager.PageID) (pager.PageID, func([]byte)) {
			return sb[1], func(d []byte) { binary.LittleEndian.PutUint32(d[12:16], logPageSize-sbHdr-4+1) }
		})},
		{"chain/next cycles to root", openCase(true, func(_, sb []pager.PageID) (pager.PageID, func([]byte)) {
			return sb[1], func(d []byte) { binary.LittleEndian.PutUint32(d[8:12], uint32(sb[0])) }
		})},

		{"superblock/truncated at every length", payloadCase(sb, decodeSB, prefixes)},
		{"superblock/trailing bytes", payloadCase(sb, decodeSB, trailing)},
		{"superblock/unknown version", payloadCase(sb, decodeSB, version(99))},
		{"superblock/version 1", payloadCase(sb, decodeSB, version(1))},
		{"manifest/truncated at every length", payloadCase(man, decodeMan, prefixes)},
		{"manifest/trailing bytes", payloadCase(man, decodeMan, trailing)},
		{"manifest/unknown version", payloadCase(man, decodeMan, version(99))},
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
	if _, got, err := c.replay(0); err != nil || !slices.Equal(want, got) {
		t.Fatalf("round trip: got %d ops (%v), want %d", len(got), err, len(want))
	}

	w2, err := pager.OpenWALStore(pager.NewMemStore(logPageSize), pager.NewMemLogFrom(log.Bytes()), pager.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := attachCatalog(w2, c.chain.Head())
	if err != nil {
		t.Fatal(err)
	}
	if c2.records != len(want) || c2.live != c.live {
		t.Fatalf("reattached records=%d live=%d, want %d %d", c2.records, c2.live, len(want), c.live)
	}
	// The reattached handle appends where the first one stopped.
	more := randomOps(rng, 9)
	if err := pager.RunBatch(w2, func() error { return c2.appendRaw(more) }); err != nil {
		t.Fatal(err)
	}
	want = append(want, more...)
	if _, got, err := c2.replay(0); err != nil || !slices.Equal(want, got) {
		t.Fatalf("reattached catalog replays %d ops (%v), want %d", len(got), err, len(want))
	}
}
