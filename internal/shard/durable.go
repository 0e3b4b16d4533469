package shard

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"

	"mobidx/internal/bptree"
	"mobidx/internal/core"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// Shard durability has two durable records, both pager.RecordChains and
// both updated inside the same WAL batch as the index mutation they
// describe:
//
//   - the superblock (a blob chain, magic "MOBIDXSB"): the serialized
//     core.DualMeta — tree roots, heights, sizes per rotation generation —
//     plus the page id of the motion catalog head. Open finds it by its
//     magic and reattaches the index with core.AttachDualBPlus.
//
//   - the motion catalog (a chain of 33-byte records starting at the head
//     the superblock names): an append-only log of insert/delete motion
//     records. The dual transform is not invertible in a way that
//     preserves residence intervals and rotation epochs, so the original
//     (OID, Y0, T0, V) tuples cannot be recovered from the trees; the
//     catalog is the exact source for split/migrate enumeration and for
//     rebuilding a peer's replicated bands. It compacts itself when
//     tombstoned records outnumber live ones.
//
// The cluster manifest (manifest.go) is a third chain, on media of its own.
// Pages, links and checksums are the chain's; what is here is the shard's:
// the payload codecs, the catalog's counters and its compaction rule.

const (
	sbMagic = "MOBIDXSB"

	// sbVersion 2 added the flushed watermark (ingest tier).
	sbVersion = 2

	// catRecLen is op(1) + oid(8) + y0/t0/v(3×8).
	catRecLen = 33

	catOpInsert = 1
	catOpDelete = 2
)

// encoder appends little-endian fields to a chain payload.
type encoder struct{ buf []byte }

func (e *encoder) u32(v uint32)  { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

// decoder reads them back. A read past the end yields zero and sets short
// for good, so a codec checks it once per group of fields — and before it
// trusts a count it is about to loop or allocate on.
type decoder struct {
	buf   []byte
	short bool
}

func (d *decoder) take(n int) []byte {
	if len(d.buf) < n {
		d.short, d.buf = true, nil
		return make([]byte, n)
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

func (d *decoder) u32() uint32  { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *decoder) u64() uint64  { return binary.LittleEndian.Uint64(d.take(8)) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// done reports that the reads were in bounds and consumed the payload.
func (d *decoder) done() bool { return !d.short && len(d.buf) == 0 }

// ---------------------------------------------------------------------------
// Superblock codec
// ---------------------------------------------------------------------------

type superblock struct {
	catHead pager.PageID
	// flushed is the ingest-tier watermark: the base index covers exactly
	// the first flushed catalog records; the suffix past it is the write
	// tier's delta, replayed into the tier on recovery. Shards without
	// a tier keep flushed equal to the record count.
	flushed int
	meta    core.DualMeta
}

func encodeSuperblock(sb superblock) []byte {
	var e encoder
	tree := func(m bptree.Meta) {
		e.u32(uint32(m.Root))
		e.u32(uint32(m.Height))
		e.u64(uint64(m.Size))
	}
	e.u32(sbVersion)
	e.u32(uint32(sb.catHead))
	e.u64(uint64(sb.flushed))
	e.u32(uint32(len(sb.meta.Gens)))
	for _, g := range sb.meta.Gens {
		e.u64(uint64(g.Epoch))
		e.u64(uint64(g.Size))
		e.u32(uint32(len(g.Pos)))
		for i := range g.Pos {
			tree(g.Pos[i])
			tree(g.Neg[i])
			tree(g.Sub[i])
		}
	}
	return e.buf
}

func decodeSuperblock(buf []byte) (superblock, error) {
	var sb superblock
	corrupt := func(what string) (superblock, error) {
		return superblock{}, fmt.Errorf("shard: superblock: %s: %w", what, pager.ErrPageCorrupt)
	}
	d := decoder{buf: buf}
	tree := func() bptree.Meta {
		return bptree.Meta{Root: pager.PageID(d.u32()), Height: int(d.u32()), Size: int(d.u64())}
	}
	if ver := d.u32(); d.short || ver != sbVersion {
		return corrupt(fmt.Sprintf("version %d", ver))
	}
	sb.catHead = pager.PageID(d.u32())
	fl := d.u64()
	if d.short || fl > 1<<40 {
		return corrupt("catalog head and flushed watermark")
	}
	sb.flushed = int(fl)
	nGens := d.u32()
	if d.short || nGens > 1<<20 {
		return corrupt("generation count")
	}
	for gi := uint32(0); gi < nGens; gi++ {
		epoch, size, c := d.u64(), d.u64(), d.u32()
		if d.short || c == 0 || c > 1<<16 {
			return corrupt(fmt.Sprintf("generation %d header", gi))
		}
		g := core.DualGenMeta{
			Epoch: int64(epoch),
			Size:  int(size),
			Pos:   make([]bptree.Meta, 0, c),
			Neg:   make([]bptree.Meta, 0, c),
			Sub:   make([]bptree.Meta, 0, c),
		}
		for i := uint32(0); i < c && !d.short; i++ {
			g.Pos = append(g.Pos, tree())
			g.Neg = append(g.Neg, tree())
			g.Sub = append(g.Sub, tree())
		}
		if d.short {
			return corrupt(fmt.Sprintf("generation %d trees", gi))
		}
		sb.meta.Gens = append(sb.meta.Gens, g)
	}
	if !d.done() {
		return corrupt("trailing bytes")
	}
	return sb, nil
}

// ---------------------------------------------------------------------------
// Motion catalog
// ---------------------------------------------------------------------------

// catalog is the shard's durable motion log: a record chain plus the two
// counters the compaction rule and the open-time cross-checks read. All
// mutating methods must run inside the shard's open WAL batch; the
// counters mirror the staged state and are only trusted after the batch
// commits — a failed batch quarantines the owning shard, which never
// touches the catalog again.
type catalog struct {
	chain   *pager.RecordChain
	live    int // records currently live (inserts minus deletes)
	records int // total records in the log
	// gen counts the appends and rewrites, which run in a write's install
	// step under Shard.mu: two reads of the log that see the same gen see
	// the same records.
	gen uint64
}

// initCatalog allocates an empty catalog inside the caller's open batch.
func initCatalog(store pager.Store) (*catalog, error) {
	ch, err := pager.InitRecordChain(store, "", catRecLen)
	if err != nil {
		return nil, err
	}
	return &catalog{chain: ch}, nil
}

// attachCatalog reattaches the log that starts at head, rebuilding the
// live/total counters from one pass over its records.
func attachCatalog(store pager.Store, head pager.PageID) (*catalog, error) {
	c := &catalog{}
	ch, err := pager.AttachRecordChain(store, "", catRecLen, head, func(recs []byte) error {
		for ; len(recs) >= catRecLen; recs = recs[catRecLen:] {
			switch recs[0] {
			case catOpInsert:
				c.live++
			case catOpDelete:
				c.live--
			default:
				return fmt.Errorf("shard: catalog record %d: bad op %d: %w",
					c.records, recs[0], pager.ErrPageCorrupt)
			}
			c.records++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.chain = ch
	return c, nil
}

// putCatRec encodes op into the first catRecLen bytes of dst.
func putCatRec(dst []byte, op Op) {
	dst[0] = catOpDelete
	if op.Insert {
		dst[0] = catOpInsert
	}
	binary.LittleEndian.PutUint64(dst[1:9], uint64(op.M.OID))
	binary.LittleEndian.PutUint64(dst[9:17], math.Float64bits(op.M.Y0))
	binary.LittleEndian.PutUint64(dst[17:25], math.Float64bits(op.M.T0))
	binary.LittleEndian.PutUint64(dst[25:33], math.Float64bits(op.M.V))
}

// decodeCatRec decodes one catRecLen-byte record whose op byte attach
// already checked.
func decodeCatRec(rec []byte) Op {
	return Op{Insert: rec[0] == catOpInsert, M: dual.Motion{
		OID: dual.OID(binary.LittleEndian.Uint64(rec[1:9])),
		Y0:  math.Float64frombits(binary.LittleEndian.Uint64(rec[9:17])),
		T0:  math.Float64frombits(binary.LittleEndian.Uint64(rec[17:25])),
		V:   math.Float64frombits(binary.LittleEndian.Uint64(rec[25:33])),
	}}
}

// append logs the ops and compacts the log once tombstoned records
// outnumber live ones — the flat (tierless) write path. Must run in the
// owner's open batch, after the ops were applied to the index.
func (c *catalog) append(ops []Op) error {
	if err := c.appendRaw(ops); err != nil {
		return err
	}
	if dead := c.records - c.live; dead > c.live+64 {
		ms, err := c.motions()
		if err != nil {
			return err
		}
		return c.rewrite(ms)
	}
	return nil
}

// appendRaw logs the ops without ever compacting: the ingest write path,
// where the base-covers-prefix invariant (superblock.flushed) forbids
// reordering the log — compaction happens only at merge time, when the
// whole catalog is rewritten from the tier's base. Must run in the
// owner's open batch.
func (c *catalog) appendRaw(ops []Op) error {
	recs := make([]byte, len(ops)*catRecLen)
	for i, op := range ops {
		putCatRec(recs[i*catRecLen:], op)
		if op.Insert {
			c.live++
		} else {
			c.live--
		}
	}
	c.records += len(ops)
	c.gen++
	return c.chain.Append(recs)
}

// rewrite replaces the log with plain inserts of ms (the BulkLoad, fold
// and compaction path). The head page id is stable, so the superblock
// need not change for a rewrite. Each record is encoded straight into
// its page image, with no staging copy of the whole log. Must run in the
// owner's open batch.
func (c *catalog) rewrite(ms []dual.Motion) error {
	c.live, c.records = len(ms), len(ms)
	c.gen++
	return c.chain.RewriteFunc(len(ms)*catRecLen, func(dst []byte, off int) {
		for k := off / catRecLen; len(dst) > 0; k++ {
			putCatRec(dst, Op{Insert: true, M: ms[k]})
			dst = dst[catRecLen:]
		}
	})
}

// replay reads the log once, in append order. Its first prefix records
// fold into the live motion multiset they describe, sorted by (OID, T0,
// Y0, V) so identical states enumerate identically; the records after them
// come back as ops. The ingest tier's recovery splits the log at the
// flushed watermark this way, into the base's contents and the delta.
//
// The fold is a merge, not a count. The prefix's leading run of inserts
// in order — all of a catalog rewritten from a sorted enumeration (a
// fold, a split's receiver and trimmed source, a flat compaction) — is
// kept as read, and only the records after it, the writes appended since,
// are sorted (sortOps) and merged into it (mergeTail). Identical replicas
// keep their multiplicity.
func (c *catalog) replay(prefix int) (ms []dual.Motion, suffix []Op, err error) {
	// The inserts number at most (records+live)/2, exactly that when the
	// prefix is the whole log; the run and the tail's inserts fit.
	ms = make([]dual.Motion, 0, min(prefix, (c.records+c.live)/2))
	var tail []Op
	n := 0
	err = c.chain.Scan(func(recs []byte) error {
		for ; len(recs) >= catRecLen; recs = recs[catRecLen:] {
			switch op := decodeCatRec(recs); {
			case n >= prefix:
				suffix = append(suffix, op)
			case tail == nil && op.Insert && (len(ms) == 0 || compareMotions(ms[len(ms)-1], op.M) <= 0):
				ms = append(ms, op.M)
			default:
				if tail == nil { // the rest of the prefix, at most
					tail = make([]Op, 0, prefix-n)
				}
				tail = append(tail, op)
			}
			n++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	ms, err = mergeTail(ms, tail)
	if err != nil {
		return nil, nil, err
	}
	return ms, suffix, nil
}

// mergeTail folds tail's ops into run, a sorted multiset of motions whose
// backing array has room for tail's inserts, and returns the result in
// the catalog's order in that array. With tail sorted, one pass from the
// back takes each motion once, largest first, and writes as many copies
// as run holds plus tail inserts less tail deletes; fewer than none is a
// corrupt catalog.
func mergeTail(run []dual.Motion, tail []Op) ([]dual.Motion, error) {
	if len(tail) == 0 {
		return run, nil
	}
	sortOps(tail)
	ins := 0
	for _, op := range tail {
		if op.Insert {
			ins++
		}
	}
	out := run[:len(run)+ins]
	i, j, w := len(run)-1, len(tail)-1, len(out)
	for i >= 0 || j >= 0 {
		// Take the largest motion left, then its other copies in either.
		var m dual.Motion
		k := 0
		if j < 0 || i >= 0 && compareMotions(run[i], tail[j].M) >= 0 {
			m, k, i = run[i], 1, i-1
		} else {
			m, k, j = tail[j].M, opCount(tail[j]), j-1
		}
		for ; i >= 0 && compareMotions(run[i], m) == 0; i-- {
			k++
		}
		for ; j >= 0 && compareMotions(tail[j].M, m) == 0; j-- {
			k += opCount(tail[j])
		}
		if k < 0 {
			return nil, fmt.Errorf("shard: catalog: motion %d deleted more than inserted: %w",
				m.OID, pager.ErrPageCorrupt)
		}
		for ; k > 0; k-- {
			w--
			out[w] = m
		}
	}
	return out[w:], nil
}

// opCount is what op adds to its motion's copies: one for an insert,
// minus one for a delete.
func opCount(op Op) int {
	if op.Insert {
		return 1
	}
	return -1
}

// sortOps orders ops by their motions in the catalog's order: a
// least-significant-digit radix sort on OID, one pass per byte in which
// the OIDs differ, then an insertion sort of each run of one object's
// ops, which is short.
func sortOps(ops []Op) {
	if len(ops) < 2 {
		return
	}
	var differ dual.OID // the bits in which some OID differs from the first
	for _, op := range ops {
		differ |= op.M.OID ^ ops[0].M.OID
	}
	src, dst := ops, make([]Op, len(ops))
	for sh := 0; differ>>sh != 0; sh += 8 {
		if byte(differ>>sh) == 0 {
			continue
		}
		var at [256]int
		for _, op := range src {
			at[byte(op.M.OID>>sh)]++
		}
		sum := 0
		for b, n := range at {
			at[b], sum = sum, sum+n
		}
		for _, op := range src {
			b := byte(op.M.OID >> sh)
			dst[at[b]] = op
			at[b]++
		}
		src, dst = dst, src
	}
	copy(ops, src)
	for k := 1; k < len(ops); k++ {
		for m := k; m > 0 && ops[m].M.OID == ops[m-1].M.OID && compareSameOID(ops[m].M, ops[m-1].M) < 0; m-- {
			ops[m], ops[m-1] = ops[m-1], ops[m]
		}
	}
}

// compareMotions is the catalog's enumeration order: by OID, then T0, Y0
// and V. It is small enough to inline, so the OID comparison that nearly
// always decides costs no call.
func compareMotions(a, b dual.Motion) int {
	switch { // nearly always decided here: replicas aside, one motion per object
	case a.OID < b.OID:
		return -1
	case a.OID > b.OID:
		return 1
	}
	return compareSameOID(a, b)
}

// compareSameOID is compareMotions for two motions of one object.
func compareSameOID(a, b dual.Motion) int {
	if c := cmp.Compare(a.T0, b.T0); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Y0, b.Y0); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// motions replays the whole log into the live motion multiset.
func (c *catalog) motions() ([]dual.Motion, error) {
	ms, _, err := c.replay(c.records)
	return ms, err
}
