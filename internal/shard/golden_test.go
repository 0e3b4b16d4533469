package shard

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// The golden test pins what a shard and a cluster put on their durable
// record pages — the motion catalog, the superblock and the manifest — so
// that a refactor of the page-chain code under them is shown not to move a
// byte. Every constant below was captured from the implementation at commit
// 7f6ee7d, which had two page formats, two chain walkers and three
// fill-and-link loops; none may be edited to make a later commit pass.
//
// While a leg only appends to its catalog, every live base page is pinned
// (id and image). Once a leg has rewritten a chain — a BulkLoad, a
// compaction, a fold, a split — which overflow page ids the rewrite reuses
// is a policy, not a format, so from there on each chain is pinned by what
// it says: the hash of its concatenated payload, its page count and each
// page's used field; and the shard by Motions().
//
// The test reads the pages with its own parser of the two layouts
// (`next|used|records|CRC` for the catalog, `magic|next|used|payload|CRC`
// for the other two), not with the code under test.

const goldenPageSize = 256

var goldenCRC = crc32.MakeTable(crc32.Castagnoli)

// goldenPages hashes every live page of st: id and image, ascending id.
func goldenPages(t *testing.T, st pager.Store) string {
	t.Helper()
	h := sha256.New()
	var idb [4]byte
	for id, found := pager.PageID(1), 0; found < st.PagesInUse(); id++ {
		p, err := st.Read(id)
		if errors.Is(err, pager.ErrPageNotFound) {
			if id > 1<<16 {
				t.Fatalf("found %d of %d live pages below id %d", found, st.PagesInUse(), id)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		found++
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		h.Write(idb[:])
		h.Write(p.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenChain walks one record chain on st from head and returns its
// payload and the used field of each page.
func goldenChain(t *testing.T, st pager.Store, magic string, head pager.PageID) (payload []byte, used []int) {
	t.Helper()
	hdr := len(magic)
	for id := head; id != pager.NilPage; {
		if len(used) > st.PagesInUse() {
			t.Fatalf("chain %q from %d cycles", magic, head)
		}
		p, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		d := p.Data
		if string(d[:hdr]) != magic {
			t.Fatalf("chain %q page %d: magic %q", magic, id, d[:hdr])
		}
		if crc32.Checksum(d[:len(d)-4], goldenCRC) != binary.LittleEndian.Uint32(d[len(d)-4:]) {
			t.Fatalf("chain %q page %d: bad checksum", magic, id)
		}
		n := int(binary.LittleEndian.Uint32(d[hdr+4:]))
		if n > len(d)-hdr-12 {
			t.Fatalf("chain %q page %d: used %d", magic, id, n)
		}
		payload = append(payload, d[hdr+8:hdr+8+n]...)
		used = append(used, n)
		id = pager.PageID(binary.LittleEndian.Uint32(d[hdr:]))
	}
	return payload, used
}

// goldenRoot finds the page that opens with magic among the low ids.
func goldenRoot(t *testing.T, st pager.Store, magic string) pager.PageID {
	t.Helper()
	for id := pager.PageID(1); id <= 64; id++ {
		p, err := st.Read(id)
		if err == nil && string(p.Data[:len(magic)]) == magic {
			return id
		}
	}
	t.Fatalf("no %q root", magic)
	return 0
}

func goldenChainLine(name string, payload []byte, used []int) string {
	sum := sha256.Sum256(payload)
	return fmt.Sprintf("%s %s pages=%d used=%v", name, hex.EncodeToString(sum[:]), len(used), used)
}

// goldenShardChains describes the superblock and catalog chains found on a
// shard's checkpointed base store. The catalog head is the superblock
// payload's second word.
func goldenShardChains(t *testing.T, base pager.Store) []string {
	t.Helper()
	sb, sbUsed := goldenChain(t, base, "MOBIDXSB", goldenRoot(t, base, "MOBIDXSB"))
	if len(sb) < 8 {
		t.Fatalf("superblock payload is %d bytes", len(sb))
	}
	cat, catUsed := goldenChain(t, base, "", pager.PageID(binary.LittleEndian.Uint32(sb[4:8])))
	return []string{
		goldenChainLine("superblock", sb, sbUsed),
		goldenChainLine("catalog", cat, catUsed),
	}
}

// goldenMotions hashes a Motions() enumeration, order included.
func goldenMotions(t *testing.T, ms []dual.Motion, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [32]byte
	for _, m := range ms {
		binary.LittleEndian.PutUint64(b[0:], uint64(m.OID))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(m.Y0))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(m.T0))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(m.V))
		h.Write(b[:])
	}
	return fmt.Sprintf("motions n=%d %s", len(ms), hex.EncodeToString(h.Sum(nil)))
}

// goldenScript is the seeded op source: fresh motions under increasing
// OIDs, and deletes of motions it inserted earlier.
type goldenScript struct {
	rng  *rand.Rand
	next dual.OID
	live []dual.Motion
}

func newGoldenScript(seed int64) *goldenScript {
	return &goldenScript{rng: rand.New(rand.NewSource(seed)), next: 1}
}

func (g *goldenScript) motion(t0 float64) dual.Motion {
	v := 0.2 + 1.4*g.rng.Float64()
	if g.rng.Intn(2) == 0 {
		v = -v
	}
	m := dual.Motion{OID: g.next, Y0: 1000 * g.rng.Float64(), T0: t0 + 40*g.rng.Float64(), V: v}
	g.next++
	return m
}

func (g *goldenScript) insert(t0 float64) Op {
	m := g.motion(t0)
	g.live = append(g.live, m)
	return Op{Insert: true, M: m}
}

func (g *goldenScript) delete() Op {
	i := g.rng.Intn(len(g.live))
	m := g.live[i]
	g.live = append(g.live[:i], g.live[i+1:]...)
	return Op{M: m}
}

// batch is n ops, about a quarter of them deletes once anything is live.
func (g *goldenScript) batch(n int, t0 float64) []Op {
	ops := make([]Op, 0, n)
	for len(ops) < n {
		if len(g.live) > 4 && g.rng.Intn(4) == 0 {
			ops = append(ops, g.delete())
		} else {
			ops = append(ops, g.insert(t0))
		}
	}
	return ops
}

type goldenStep struct {
	name string
	got  []string
}

func TestGoldenDurableRecords(t *testing.T) {
	ctx := context.Background()
	var steps []goldenStep
	step := func(name string, got ...string) { steps = append(steps, goldenStep{name, got}) }
	checkpoint := func(s *Shard) {
		t.Helper()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	// Leg 1: a plain shard. Appends across a crash-reopen, with the last
	// two batches in the next rotation epoch so the superblock describes two
	// generations and outgrows its root page; then a BulkLoad and a
	// compaction, each of which rewrites the catalog.
	{
		cfg := Config{ID: 1, Terrain: testTerrain(), PageSize: goldenPageSize}
		base, log := pager.NewMemStore(goldenPageSize), pager.NewMemLog()
		s, err := Open(cfg, base, log)
		if err != nil {
			t.Fatal(err)
		}
		g := newGoldenScript(23)
		for i, t0 := range []float64{0, 0, 0, 6300, 6300} {
			if err := s.Apply(ctx, g.batch(10, t0)); err != nil {
				t.Fatalf("apply %d: %v", i, err)
			}
		}
		// Crash: the first instance is abandoned, not closed.
		s, err = Open(cfg, base, pager.NewMemLogFrom(log.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Apply(ctx, g.batch(10, 6300)); err != nil {
			t.Fatal(err)
		}
		ms, err := s.Motions()
		checkpoint(s)
		step("plain/appended", append([]string{goldenPages(t, base), goldenMotions(t, ms, err)},
			goldenShardChains(t, base)...)...)

		bulk := make([]dual.Motion, 60)
		for i := range bulk {
			bulk[i] = g.motion(0)
		}
		if err := s.BulkLoad(ctx, bulk); err != nil {
			t.Fatal(err)
		}
		ms, err = s.Motions()
		checkpoint(s)
		step("plain/bulk loaded", append(goldenShardChains(t, base), goldenMotions(t, ms, err))...)

		// 60 live records: the 42nd delete makes dead (84) exceed live + 64
		// (82) and the catalog compacts to the 18 survivors.
		g.live = bulk
		for i := 0; i < 7; i++ {
			ops := make([]Op, 6)
			for j := range ops {
				ops[j] = g.delete()
			}
			if err := s.Apply(ctx, ops); err != nil {
				t.Fatal(err)
			}
		}
		ms, err = s.Motions()
		checkpoint(s)
		step("plain/compacted", append(goldenShardChains(t, base), goldenMotions(t, ms, err))...)
	}

	// Leg 2: an ingest shard. The catalog is the tier's journal until the
	// fold rewrites it from the new base.
	{
		cfg := Config{ID: 2, Terrain: testTerrain(), PageSize: goldenPageSize, Ingest: tinyIngest()}
		base := pager.NewMemStore(goldenPageSize)
		s, err := Open(cfg, base, pager.NewMemLog())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		g := newGoldenScript(29)
		until := func(what string, done func() bool) {
			t.Helper()
			for i := 0; ; i++ {
				if done() {
					return
				}
				if i == 100 {
					t.Fatalf("no %s after %d batches", what, i)
				}
				if err := s.Apply(ctx, g.batch(10, 0)); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Pinned with half a fold's worth of records staged: 40 records,
		// the state after four batches of ten.
		until("staged delta", func() bool { return s.cat.records-s.flushed >= tinyIngest().FoldOps/2 })
		if st, _ := s.IngestStats(); st.Merges != 0 {
			t.Fatalf("folded before the staged delta was pinned: %+v", st)
		}
		ms, err := s.Motions()
		checkpoint(s)
		step("ingest/frozen", append([]string{goldenPages(t, base), goldenMotions(t, ms, err)},
			goldenShardChains(t, base)...)...)

		until("fold", func() bool {
			st, _ := s.IngestStats()
			return st.Merges > 0
		})
		ms, err = s.Motions()
		checkpoint(s)
		step("ingest/folded", append(goldenShardChains(t, base), goldenMotions(t, ms, err))...)
	}

	// Leg 3: a two-band cluster through one split. The manifest's WAL is
	// only checkpointed by Close, so its chain is read last.
	{
		env := NewMemEnv(goldenPageSize)
		c, err := OpenCluster(env, ClusterConfig{Terrain: testTerrain(), PageSize: goldenPageSize}, 2)
		if err != nil {
			t.Fatal(err)
		}
		g := newGoldenScript(31)
		for i := 0; i < 6; i++ {
			if err := c.Apply(ctx, g.batch(10, 0)); err != nil {
				t.Fatal(err)
			}
		}
		shardBase := func(store int) pager.Store {
			m, err := env.OpenMedia(shardMediaName(store))
			if err != nil {
				t.Fatal(err)
			}
			return m.Base
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for store := 0; store < 2; store++ {
			step(fmt.Sprintf("cluster/appended/store %d", store),
				append([]string{goldenPages(t, shardBase(store))}, goldenShardChains(t, shardBase(store))...)...)
		}

		if err := c.Split(ctx, 0, 230); err != nil {
			t.Fatal(err)
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		// Bands 0, 1, 2 are now stores 0, 2, 1.
		for band, store := range []int{0, 2, 1} {
			ms, err := c.Router().Shard(band).Motions()
			step(fmt.Sprintf("cluster/split/band %d", band),
				append(goldenShardChains(t, shardBase(store)), goldenMotions(t, ms, err))...)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		m, err := env.OpenMedia(manifestMediaName)
		if err != nil {
			t.Fatal(err)
		}
		man, manUsed := goldenChain(t, m.Base, "MOBIDXMF", goldenRoot(t, m.Base, "MOBIDXMF"))
		step("cluster/split/manifest", goldenPages(t, m.Base), goldenChainLine("manifest", man, manUsed))
	}

	want := goldenDurableRecords
	if len(steps) != len(want) {
		t.Errorf("script produced %d steps, %d pinned", len(steps), len(want))
	}
	for i, st := range steps {
		for j, line := range st.got {
			if i >= len(want) || j >= len(want[i]) || want[i][j] != line {
				t.Errorf("%s [%d][%d]:\n got %q", st.name, i, j, line)
			}
		}
		if i < len(want) && len(want[i]) != len(st.got) {
			t.Errorf("%s: %d lines, %d pinned", st.name, len(st.got), len(want[i]))
		}
	}
}

// goldenDurableRecords is what the script read back at commit 7f6ee7d, one
// row per step in script order.
var goldenDurableRecords = [][]string{
	{ // plain/appended
		"6bc2a4470ac896df47b9180c985d9cb906f2e3e7a6b2ad90698a3fd8e6396817",
		"motions n=34 6cf6a4f09d58f0fed871643b1d939b125a8c0dbbeeacda851606edf6f1642866",
		"superblock 791e229dd08b2a70f8b55800f1267d648f3140ff249bb6b89983dc7c5cd17220 pages=2 used=[236 208]",
		"catalog f4408f5c29c36a672058742df84e0394968669383ad081df7adf1c6ff686d71a pages=9 used=[231 231 231 231 231 231 231 231 132]",
	},
	{ // plain/bulk loaded
		"superblock 6fa1b2796e2db7b79e76d193cea8f234418143173ae74bd71454d017a7796c7e pages=1 used=[232]",
		"catalog 0431ecb1d61892bb11b08d8e64feadf00979fd0f5660f87c2c65a3b420c3bfc9 pages=9 used=[231 231 231 231 231 231 231 231 132]",
		"motions n=60 4a52b6d8a3769777686d3bd8130264a4bcf4350994a1e1dc3df36555aaa064b3",
	},
	{ // plain/compacted
		"superblock b779ed8556a44aa383a4fe7c49760e3d48da6b7bd5abd2de21793e8114cfb8d7 pages=1 used=[232]",
		"catalog e154c82df38d1e93814b567013c0efd08bce82459afc00360e7787d89ca7887e pages=3 used=[231 231 132]",
		"motions n=18 dbe47864e99d6aa5361a716b335f430ae1b75870e4c1f4a2e9c9e9f2772e2f2a",
	},
	{ // ingest/frozen
		"b4577cef633c42335c123db7c9d40483620782b8f89606af648235bdd54fe983",
		"motions n=14 0287df470c8aabb58acf00ca1c02585f983f79e98579df538c458ac5b6abffd9",
		"superblock 98ad62357132c4de24c0f162ea5b99e01cc43c8b1ee837d630d2c4bea1b7e97e pages=1 used=[20]",
		"catalog 2821820e5412f831d77c7d087e1d4d13827c794cde8b0b9287e2925568e6c507 pages=6 used=[231 231 231 231 231 165]",
	},
	{ // ingest/folded
		"superblock 1e0959556777045960d311315916b4acec635a1aa93597d2d6ddf58c1a41dd79 pages=1 used=[232]",
		"catalog 9614b2fb1abdd621d4a105d7a719e8bcab201481d90ddc5dffab95554e7b576c pages=5 used=[231 231 231 231 66]",
		"motions n=30 510b08f83d3bba7ea9d3c62ec8baf3c7bdad2ec7e4caa7e0026078ff6e779aca",
	},
	{ // cluster/appended/store 0
		"1c979c8c36c5f43f5c18224e1e0f2793cdae6efbf289935295e2670f4231f020",
		"superblock ddfe2c343c4836139b8fb767e6a725d441731f1cc57b27f202cd68091d283503 pages=1 used=[232]",
		"catalog 2110e430a82f62595ed70866b56b0b0b56b4a340f3ca8d993aca6b675156849a pages=7 used=[231 231 231 231 231 231 198]",
	},
	{ // cluster/appended/store 1
		"5601c112a5e01834d81816cb8cc20fdf7d7813f0f9a256e7d7aae5166799ac7d",
		"superblock f7b6ce8365115a9bc7b44cca79a6a8e35f072ad41b13e792db9430ca3c0c2243 pages=1 used=[232]",
		"catalog e9b69761b2e25072f85a4030b31a5d003591814b7dec0e99f7f625e1becb1822 pages=7 used=[231 231 231 231 231 231 132]",
	},
	{ // cluster/split/band 0
		"superblock e952a9af2fbae4eec0db4116541ef698931916ea4c16acc2ed98a93a26cf4348 pages=1 used=[232]",
		"catalog 3f947aad9156cb05beced55ffa95037837b8d4a82454c4e9062e73db85b9f6ec pages=3 used=[231 231 66]",
		"motions n=16 e91e813fea47e10be0c31a2d9cd9cffee6864bc07f78f20ba992b38e63b1175e",
	},
	{ // cluster/split/band 1
		"superblock 8e506b5f73f027a5978b160725eb7d9a5c281863ca13ac459f80fae53aa99d61 pages=1 used=[232]",
		"catalog 241d5b56d8fed6b370a75a4633d67474a1b22f4ed54c44fa389b3445ea9e9801 pages=3 used=[231 231 132]",
		"motions n=18 338f6abb6746537a8f48f5ca7cdf42289b936c164f614f0ed8a3f11526a5d059",
	},
	{ // cluster/split/band 2
		"superblock f7b6ce8365115a9bc7b44cca79a6a8e35f072ad41b13e792db9430ca3c0c2243 pages=1 used=[232]",
		"catalog e9b69761b2e25072f85a4030b31a5d003591814b7dec0e99f7f625e1becb1822 pages=7 used=[231 231 231 231 231 231 132]",
		"motions n=20 ca7faadd9cc235aa5ba89eb730b68db90e0f309e95fdd45a9e5eb387ebe58ab1",
	},
	{ // cluster/split/manifest
		"bf91f04f20feb38b75fe0b7e5080cb87f7081706bffb1e7461a49e375f144353",
		"manifest ff9b8b90ceaec263da15c158e9597a2db1b44923ee3a03cfb944cdc8e9e0a9ad pages=1 used=[76]",
	},
}
