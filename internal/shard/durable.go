package shard

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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

func appendCatRec(buf []byte, op Op) []byte {
	opByte := byte(catOpDelete)
	if op.Insert {
		opByte = catOpInsert
	}
	buf = append(buf, opByte)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(op.M.OID))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(op.M.Y0))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(op.M.T0))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(op.M.V))
	return buf
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
	recs := make([]byte, 0, len(ops)*catRecLen)
	for _, op := range ops {
		recs = appendCatRec(recs, op)
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
// need not change for a rewrite. Must run in the owner's open batch.
func (c *catalog) rewrite(ms []dual.Motion) error {
	recs := make([]byte, 0, len(ms)*catRecLen)
	for _, m := range ms {
		recs = appendCatRec(recs, Op{Insert: true, M: m})
	}
	c.live, c.records = len(ms), len(ms)
	c.gen++
	return c.chain.Rewrite(recs)
}

// replay reads the log once, in append order. Its first prefix records
// fold into the live motion multiset they describe, sorted by (OID, T0,
// Y0, V) so identical states enumerate identically; the records after them
// come back as ops. The ingest tier's recovery splits the log at the
// flushed watermark this way, into the base's contents and the delta.
//
// The fold is a merge, not a count: the prefix's inserts and deletes are
// read into two slices, each sorted only if it is out of order, and one
// pass subtracts every delete from one copy of its motion, so identical
// replicas keep their multiplicity. A catalog rewritten from a sorted
// enumeration (a split's receiver and trimmed source, a flat compaction)
// replays without a sort.
func (c *catalog) replay(prefix int) (ms []dual.Motion, suffix []Op, err error) {
	// The inserts number at most (records+live)/2, exactly that when the
	// prefix is the whole log.
	ins := make([]dual.Motion, 0, min(prefix, (c.records+c.live)/2))
	var del []dual.Motion
	n := 0
	err = c.chain.Scan(func(recs []byte) error {
		for ; len(recs) >= catRecLen; recs = recs[catRecLen:] {
			switch op := decodeCatRec(recs); {
			case n >= prefix:
				suffix = append(suffix, op)
			case op.Insert:
				ins = append(ins, op.M)
			default:
				del = append(del, op.M)
			}
			n++
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sortMotions(ins)
	sortMotions(del)
	ms, err = subtractMotions(ins, del)
	if err != nil {
		return nil, nil, err
	}
	return ms, suffix, nil
}

// sortMotions puts ms in the catalog's order unless it already is.
func sortMotions(ms []dual.Motion) {
	if !slices.IsSortedFunc(ms, compareMotions) {
		slices.SortFunc(ms, compareMotions)
	}
}

// subtractMotions removes one copy of each of del's motions from ins, both
// sorted, in place, and returns what is left. A delete with no copy left
// to remove is a corrupt catalog.
func subtractMotions(ins, del []dual.Motion) ([]dual.Motion, error) {
	w, i := 0, 0
	for _, d := range del {
		for i < len(ins) && compareMotions(ins[i], d) < 0 {
			ins[w] = ins[i]
			w, i = w+1, i+1
		}
		if i == len(ins) || compareMotions(ins[i], d) != 0 {
			return nil, fmt.Errorf("shard: catalog: motion %d deleted more than inserted: %w",
				d.OID, pager.ErrPageCorrupt)
		}
		i++
	}
	w += copy(ins[w:], ins[i:])
	return ins[:w], nil
}

// compareMotions is the catalog's enumeration order: by OID, then T0, Y0
// and V.
func compareMotions(a, b dual.Motion) int {
	if a.OID != b.OID { // nearly always: replicas aside, one motion per object
		return cmp.Compare(a.OID, b.OID)
	}
	return cmp.Or(cmp.Compare(a.T0, b.T0), cmp.Compare(a.Y0, b.Y0), cmp.Compare(a.V, b.V))
}

// motions replays the whole log into the live motion multiset.
func (c *catalog) motions() ([]dual.Motion, error) {
	ms, _, err := c.replay(c.records)
	return ms, err
}
