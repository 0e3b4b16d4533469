package crashtest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/kinetic"
	"mobidx/internal/pager"
)

var allModes = []Mode{KeepAll, LoseUnsynced, TearLast}

// step is one unit of a recorded workload: at most one committed batch (or
// a checkpoint, which commits nothing).
type step struct {
	name string
	do   func(w *pager.WALStore) error
}

// workload is a deterministic recorded workload for the sweep. make builds
// fresh steps per run (ref is true only for the reference run, letting a
// workload capture expectations while it executes); check, if set, runs
// extra workload-specific verification against a recovered store.
type workload struct {
	pageSize int
	make     func(ref bool) []step
	check    func(t *testing.T, w *pager.WALStore, seq uint64)
}

// dumpStore reads every live page visible through the store into a map,
// the state fingerprint the oracle compares. The WAL meta page is skipped
// by id, and any page carrying the meta magic is skipped by content: a
// crash during initialization can strand a half-initialized meta page that
// a fresh initialization then abandons.
func dumpStore(t *testing.T, w *pager.WALStore, max pager.PageID) map[pager.PageID]string {
	t.Helper()
	d := make(map[pager.PageID]string)
	for id := pager.PageID(1); id <= max; id++ {
		if id == w.MetaPage() {
			continue
		}
		p, err := w.Read(id)
		if err != nil {
			if !errors.Is(err, pager.ErrPageNotFound) && !errors.Is(err, pager.ErrReservedPage) {
				t.Fatalf("dump read page %d: %v", id, err)
			}
			continue
		}
		if bytes.HasPrefix(p.Data, []byte("MOBIDXWM")) {
			continue
		}
		d[id] = string(p.Data)
	}
	return d
}

// dumpDiff describes the first difference between two dumps.
func dumpDiff(got, want map[pager.PageID]string) string {
	for id, g := range got {
		w, ok := want[id]
		if !ok {
			return fmt.Sprintf("page %d live, want absent", id)
		}
		if g != w {
			for i := 0; i < len(g); i++ {
				if g[i] != w[i] {
					return fmt.Sprintf("page %d byte %d: got %#x, want %#x", id, i, g[i], w[i])
				}
			}
		}
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			return fmt.Sprintf("page %d absent, want live", id)
		}
	}
	return ""
}

// disk is one simulated machine's pages file and log file.
type disk struct{ pages, log *File }

func newDisk(m *Media) disk { return disk{NewFile(m), NewFile(m)} }

// reboot returns the files a restart finds, on fresh media m.
func (d disk) reboot(m *Media) disk { return disk{d.pages.Survivor(m), d.log.Survivor(m)} }

// open opens a FileStore and a FileLog on the disk — creating the store
// when the pages file holds none yet — and the WALStore over them.
func (d disk) open(wl workload) (*pager.WALStore, error) {
	base, err := pager.OpenFileStoreOn(d.pages, wl.pageSize)
	if err != nil {
		return nil, err
	}
	log, err := pager.OpenFileLogOn(d.log)
	if err != nil {
		return nil, err
	}
	return pager.OpenWALStore(base, log, pager.WALConfig{})
}

// runReference executes the workload crash-free, counting its crash points
// and recording the page dump the store must present at every committed
// sequence number.
func runReference(t *testing.T, mode Mode, wl workload) (shadows map[uint64]map[pager.PageID]string, n int, probe pager.PageID) {
	t.Helper()
	media := NewMedia(mode, 0)
	d := newDisk(media)
	w, err := d.open(wl)
	if err != nil {
		t.Fatalf("reference open: %v", err)
	}
	// Every id below the allocator's next came from an allocation (the
	// WAL's meta page's included) or is a chain page, which is in the file.
	probeNow := func() pager.PageID {
		return pager.PageID(w.Stats().Allocs) + pager.PageID(len(d.pages.volatile)/wl.pageSize) + 2
	}
	shadows = map[uint64]map[pager.PageID]string{}
	shadows[w.CommittedSeq()] = dumpStore(t, w, probeNow())
	for _, s := range wl.make(true) {
		if err := s.do(w); err != nil {
			t.Fatalf("reference step %s: %v", s.name, err)
		}
		shadows[w.CommittedSeq()] = dumpStore(t, w, probeNow())
	}
	n = media.Points()
	if n == 0 {
		t.Fatalf("workload consumed no crash points")
	}
	return shadows, n, probeNow()
}

// crashRun replays the workload against media that dies at its budgeted
// point, returning the last sequence number the run saw committed and the
// error that ended it. A panic anywhere fails the test: crashes must
// surface as errors.
func crashRun(t *testing.T, mode Mode, k int, wl workload, d disk) (lastSeq uint64, failed error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("mode %v point %d: panic during crash run: %v", mode, k, r)
		}
	}()
	w, err := d.open(wl)
	if err != nil {
		return 0, err
	}
	for _, s := range wl.make(false) {
		if err := s.do(w); err != nil {
			return lastSeq, fmt.Errorf("step %s: %w", s.name, err)
		}
		lastSeq = w.CommittedSeq()
	}
	return lastSeq, nil
}

// recoverVerify reboots onto the crashed disk and checks the recovery
// oracle: recovery succeeds, the recovered sequence is the crash run's
// last committed one (or one more, when the crash struck after the commit
// record became durable but before Commit returned), the page dump matches
// the reference shadow at that sequence, and the workload's own invariants
// hold.
func recoverVerify(t *testing.T, mode Mode, k int, wl workload, d disk, lastSeq uint64, shadows map[uint64]map[pager.PageID]string, probe pager.PageID) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("mode %v point %d: panic during recovery: %v", mode, k, r)
		}
	}()
	w, err := d.reboot(NewMedia(mode, 0)).open(wl)
	if err != nil {
		t.Fatalf("mode %v point %d: recovery failed: %v", mode, k, err)
	}
	seq := w.CommittedSeq()
	if seq != lastSeq && seq != lastSeq+1 {
		t.Fatalf("mode %v point %d: recovered seq %d, crash run committed %d", mode, k, seq, lastSeq)
	}
	want, ok := shadows[seq]
	if !ok {
		t.Fatalf("mode %v point %d: no reference shadow for seq %d", mode, k, seq)
	}
	got := dumpStore(t, w, probe)
	if d := dumpDiff(got, want); d != "" {
		t.Fatalf("mode %v point %d: recovered state at seq %d diverges: %s", mode, k, seq, d)
	}
	if wl.check != nil {
		wl.check(t, w, seq)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("mode %v point %d: close after recovery: %v", mode, k, err)
	}
}

// runSweep crashes the workload at every one of its crash points in the
// given mode and verifies recovery after each.
func runSweep(t *testing.T, mode Mode, wl workload) {
	t.Helper()
	shadows, n, probe := runReference(t, mode, wl)
	t.Logf("mode %v: sweeping %d crash points", mode, n)
	for k := 1; k <= n; k++ {
		d := newDisk(NewMedia(mode, k))
		lastSeq, failed := crashRun(t, mode, k, wl, d)
		if failed == nil {
			t.Fatalf("mode %v point %d/%d: workload survived its crash", mode, k, n)
		}
		if !errors.Is(failed, ErrCrash) {
			t.Errorf("mode %v point %d: crash surfaced untyped: %v", mode, k, failed)
		}
		recoverVerify(t, mode, k, wl, d, lastSeq, shadows, probe)
	}
}

// errAbandon is what rawWorkload's rollback step fails its batch with.
var errAbandon = errors.New("abandon the batch")

// rawWorkload exercises multi-page batches, a rollback, frees, page-id
// reuse and checkpoints directly against the WALStore API. With
// autoCheckpoint > 0 every step ends in CheckpointIfDue(autoCheckpoint),
// as a writer bounding its log does after each commit.
func rawWorkload(autoCheckpoint int64) workload {
	const ps = 128
	pat := func(tag byte) []byte {
		buf := make([]byte, ps)
		for i := range buf {
			buf[i] = tag ^ byte(i*7)
		}
		return buf
	}
	mk := func(bool) []step {
		var a, b, c, d pager.PageID
		alloc := func(w *pager.WALStore, id *pager.PageID) error {
			p, err := w.Allocate()
			if err != nil {
				return err
			}
			*id = p.ID
			return nil
		}
		wr := func(w *pager.WALStore, id pager.PageID, tag byte) error {
			return w.Write(&pager.Page{ID: id, Data: pat(tag)})
		}
		return []step{
			{"alloc-ab", func(w *pager.WALStore) error {
				return pager.RunBatch(w, func() error {
					if err := alloc(w, &a); err != nil {
						return err
					}
					if err := alloc(w, &b); err != nil {
						return err
					}
					if err := wr(w, a, 0xA1); err != nil {
						return err
					}
					return wr(w, b, 0xB1)
				})
			}},
			{"rewrite-a-alloc-c", func(w *pager.WALStore) error {
				return pager.RunBatch(w, func() error {
					if err := wr(w, a, 0xA2); err != nil {
						return err
					}
					if err := alloc(w, &c); err != nil {
						return err
					}
					return wr(w, c, 0xC1)
				})
			}},
			{"rollback", func(w *pager.WALStore) error {
				// A rolled-back batch leaves no durable or visible trace:
				// the shadow recorded after this step replaces an equal one,
				// and alloc-d below is handed the id returned here.
				err := pager.RunBatch(w, func() error {
					if err := wr(w, b, 0x66); err != nil {
						return err
					}
					var scratch pager.PageID
					if err := alloc(w, &scratch); err != nil {
						return err
					}
					if err := wr(w, scratch, 0x67); err != nil {
						return err
					}
					return errAbandon
				})
				if errors.Is(err, errAbandon) {
					return nil
				}
				return fmt.Errorf("abandoned batch: %v, want its own error back", err)
			}},
			{"checkpoint-1", func(w *pager.WALStore) error { return w.Checkpoint() }},
			{"free-b-write-a", func(w *pager.WALStore) error {
				return pager.RunBatch(w, func() error {
					if err := w.Free(b); err != nil {
						return err
					}
					return wr(w, a, 0xA3)
				})
			}},
			{"alloc-d-free-c", func(w *pager.WALStore) error {
				return pager.RunBatch(w, func() error {
					if err := alloc(w, &d); err != nil {
						return err
					}
					if err := wr(w, d, 0xD1); err != nil {
						return err
					}
					return w.Free(c)
				})
			}},
			{"checkpoint-2", func(w *pager.WALStore) error { return w.Checkpoint() }},
			{"final-writes", func(w *pager.WALStore) error {
				return pager.RunBatch(w, func() error {
					if err := wr(w, a, 0xA4); err != nil {
						return err
					}
					return wr(w, d, 0xD2)
				})
			}},
		}
	}
	auto := func(ref bool) []step {
		steps := mk(ref)
		for i := range steps {
			do := steps[i].do
			steps[i].do = func(w *pager.WALStore) error {
				if err := do(w); err != nil {
					return err
				}
				return w.CheckpointIfDue(autoCheckpoint)
			}
		}
		return steps
	}
	return workload{pageSize: ps, make: auto}
}

// TestCrashSweepRaw sweeps every crash point of the raw batch workload in
// all three crash modes, with and without auto-checkpointing.
func TestCrashSweepRaw(t *testing.T) {
	for _, tc := range []struct {
		name           string
		autoCheckpoint int64
	}{
		{"manual-checkpoint", 0},
		{"auto-checkpoint", 512},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, mode := range allModes {
				t.Run(mode.String(), func(t *testing.T) {
					runSweep(t, mode, rawWorkload(tc.autoCheckpoint))
				})
			}
		})
	}
}

// chainWorkload frees enough pages between checkpoints that, at 128-byte
// pages (one free id inline per meta record, 29 per chain page), the free
// list outgrows the meta record at two checkpoints in a row: the second
// base sync writes a new chain while the first one is still the durable
// one.
func chainWorkload() workload {
	const ps = 128
	mk := func(bool) []step {
		var ids []pager.PageID
		write := func(w *pager.WALStore, id pager.PageID, tag byte) error {
			data := make([]byte, ps)
			for i := range data {
				data[i] = tag ^ byte(i*5)
			}
			return w.Write(&pager.Page{ID: id, Data: data})
		}
		alloc := func(w *pager.WALStore, n int) error {
			return pager.RunBatch(w, func() error {
				for i := 0; i < n; i++ {
					p, err := w.Allocate()
					if err != nil {
						return err
					}
					ids = append(ids, p.ID)
					if err := write(w, p.ID, byte(len(ids))); err != nil {
						return err
					}
				}
				return nil
			})
		}
		free := func(w *pager.WALStore, lo, hi int) error {
			return pager.RunBatch(w, func() error {
				for _, id := range ids[lo:hi] {
					if err := w.Free(id); err != nil {
						return err
					}
				}
				return nil
			})
		}
		checkpoint := func(w *pager.WALStore) error { return w.Checkpoint() }
		return []step{
			{"alloc-40", func(w *pager.WALStore) error { return alloc(w, 40) }},
			{"checkpoint-1", checkpoint},
			{"free-24", func(w *pager.WALStore) error { return free(w, 0, 24) }},
			{"checkpoint-2", checkpoint},
			{"free-8", func(w *pager.WALStore) error { return free(w, 24, 32) }},
			{"alloc-3", func(w *pager.WALStore) error { return alloc(w, 3) }},
			{"checkpoint-3", checkpoint},
			{"final-write", func(w *pager.WALStore) error { return write(w, ids[39], 0xEE) }},
		}
	}
	return workload{pageSize: ps, make: mk}
}

// chainHead returns the free-list chain head named by the newest meta
// record in a FileStore's slot 0: two records of half a page each, with
// the sequence number at offset 16 and the chain head at offset 32.
func chainHead(f *File, ps int) pager.PageID {
	rec, other := f.volatile[:ps/2], f.volatile[ps/2:ps]
	if binary.LittleEndian.Uint64(other[16:24]) > binary.LittleEndian.Uint64(rec[16:24]) {
		rec = other
	}
	return pager.PageID(binary.LittleEndian.Uint32(rec[32:36]))
}

// TestCrashSweepFreeChain sweeps the chain workload in all three modes,
// after checking that its reference run does write a chain at both the
// second and the third checkpoint.
func TestCrashSweepFreeChain(t *testing.T) {
	wl := chainWorkload()
	d := newDisk(NewMedia(KeepAll, 0))
	w, err := d.open(wl)
	if err != nil {
		t.Fatal(err)
	}
	var heads []pager.PageID
	for _, s := range wl.make(true) {
		if err := s.do(w); err != nil {
			t.Fatalf("step %s: %v", s.name, err)
		}
		if strings.HasPrefix(s.name, "checkpoint") {
			heads = append(heads, chainHead(d.pages, wl.pageSize))
		}
	}
	if heads[1] == pager.NilPage || heads[2] == pager.NilPage {
		t.Fatalf("chain heads after the three checkpoints %v: the free list never outgrew the meta record twice", heads)
	}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			runSweep(t, mode, wl)
		})
	}
}

// treeOp is one mutation of the B+-tree workload.
type treeOp struct {
	del bool
	e   bptree.Entry
}

// entriesAfter applies the first n ops to an in-memory model, returning
// the entries a correct tree must hold, in (key, val) order.
func entriesAfter(ops []treeOp, n int) []bptree.Entry {
	var out []bptree.Entry
	for _, op := range ops[:n] {
		if op.del {
			for i, e := range out {
				if e.Key == op.e.Key && e.Val == op.e.Val {
					out = append(out[:i], out[i+1:]...)
					break
				}
			}
			continue
		}
		out = append(out, op.e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key != out[j].Key {
			return out[i].Key < out[j].Key
		}
		return out[i].Val < out[j].Val
	})
	return out
}

// bptreeWorkload runs a B+-tree through the WAL, one mutation per batch.
// Each batch also rewrites a superblock page holding the tree's Meta, so a
// recovered store can always be re-attached from page state alone: the
// superblock page is allocated right after the WAL meta page and therefore
// always has id 2. Sequence s corresponds to the tree after ops[:s-1]
// (sequence 1 is the freshly created empty tree).
func bptreeWorkload(ps int, ops []treeOp, ckptEvery int) workload {
	tcfg := bptree.Config{Codec: bptree.Wide}
	const superPage = pager.PageID(2)
	mk := func(bool) []step {
		var tree *bptree.Tree
		writeSuper := func(w *pager.WALStore) error {
			m := tree.Meta()
			data := make([]byte, ps)
			binary.LittleEndian.PutUint32(data[0:4], uint32(m.Root))
			binary.LittleEndian.PutUint32(data[4:8], uint32(m.Height))
			binary.LittleEndian.PutUint32(data[8:12], uint32(m.Size))
			return w.Write(&pager.Page{ID: superPage, Data: data})
		}
		steps := []step{{"init", func(w *pager.WALStore) error {
			return pager.RunBatch(w, func() error {
				sp, err := w.Allocate()
				if err != nil {
					return err
				}
				if sp.ID != superPage {
					return fmt.Errorf("superblock got page %d, want %d", sp.ID, superPage)
				}
				tree, err = bptree.New(w, tcfg)
				if err != nil {
					return err
				}
				return writeSuper(w)
			})
		}}}
		for i, op := range ops {
			op := op
			steps = append(steps, step{fmt.Sprintf("op%d", i), func(w *pager.WALStore) error {
				return pager.RunBatch(w, func() error {
					var err error
					if op.del {
						err = tree.Delete(op.e.Key, op.e.Val)
					} else {
						err = tree.Insert(op.e)
					}
					if err != nil {
						return err
					}
					return writeSuper(w)
				})
			}})
			if ckptEvery > 0 && (i+1)%ckptEvery == 0 {
				steps = append(steps, step{fmt.Sprintf("ckpt%d", i), func(w *pager.WALStore) error {
					return w.Checkpoint()
				}})
			}
		}
		return steps
	}
	check := func(t *testing.T, w *pager.WALStore, seq uint64) {
		t.Helper()
		if seq == 0 {
			return // the tree was never created
		}
		sp, err := w.Read(superPage)
		if err != nil {
			t.Fatalf("seq %d: read superblock: %v", seq, err)
		}
		m := bptree.Meta{
			Root:   pager.PageID(binary.LittleEndian.Uint32(sp.Data[0:4])),
			Height: int(binary.LittleEndian.Uint32(sp.Data[4:8])),
			Size:   int(binary.LittleEndian.Uint32(sp.Data[8:12])),
		}
		tr, err := bptree.Attach(w, tcfg, m)
		if err != nil {
			t.Fatalf("seq %d: attach recovered tree %+v: %v", seq, m, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seq %d: recovered tree invariants: %v", seq, err)
		}
		var got []bptree.Entry
		if err := tr.Range(-1e300, 1e300, func(e bptree.Entry) bool {
			got = append(got, e)
			return true
		}); err != nil {
			t.Fatalf("seq %d: range over recovered tree: %v", seq, err)
		}
		want := entriesAfter(ops, int(seq)-1)
		if len(got) != len(want) {
			t.Fatalf("seq %d: recovered tree has %d entries, want %d", seq, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seq %d: entry %d is %+v, want %+v", seq, i, got[i], want[i])
			}
		}
	}
	return workload{pageSize: ps, make: mk, check: check}
}

// bptreeBulkWorkload is bptreeWorkload with the build phase replaced by
// the bottom-up bulk loader: the init batch packs the whole initial entry
// set atomically, then individual mutations follow one batch each. A crash
// anywhere inside the bulk load must recover to the empty store; a crash
// after it must recover the complete packed tree.
func bptreeBulkWorkload(ps int, initial []bptree.Entry, ops []treeOp, ckptEvery int) workload {
	tcfg := bptree.Config{Codec: bptree.Wide}
	const superPage = pager.PageID(2)
	// The recovered tree at sequence s holds initial + ops[:s-1], which is
	// the same model as loading the initial entries as plain inserts.
	allOps := make([]treeOp, 0, len(initial)+len(ops))
	for _, e := range initial {
		allOps = append(allOps, treeOp{e: e})
	}
	allOps = append(allOps, ops...)
	mk := func(bool) []step {
		var tree *bptree.Tree
		writeSuper := func(w *pager.WALStore) error {
			m := tree.Meta()
			data := make([]byte, ps)
			binary.LittleEndian.PutUint32(data[0:4], uint32(m.Root))
			binary.LittleEndian.PutUint32(data[4:8], uint32(m.Height))
			binary.LittleEndian.PutUint32(data[8:12], uint32(m.Size))
			return w.Write(&pager.Page{ID: superPage, Data: data})
		}
		steps := []step{{"bulkinit", func(w *pager.WALStore) error {
			return pager.RunBatch(w, func() error {
				sp, err := w.Allocate()
				if err != nil {
					return err
				}
				if sp.ID != superPage {
					return fmt.Errorf("superblock got page %d, want %d", sp.ID, superPage)
				}
				tree, err = bptree.New(w, tcfg)
				if err != nil {
					return err
				}
				if err := tree.BulkLoadSorted(initial, 0.9); err != nil {
					return err
				}
				return writeSuper(w)
			})
		}}}
		for i, op := range ops {
			op := op
			steps = append(steps, step{fmt.Sprintf("op%d", i), func(w *pager.WALStore) error {
				return pager.RunBatch(w, func() error {
					var err error
					if op.del {
						err = tree.Delete(op.e.Key, op.e.Val)
					} else {
						err = tree.Insert(op.e)
					}
					if err != nil {
						return err
					}
					return writeSuper(w)
				})
			}})
			if ckptEvery > 0 && (i+1)%ckptEvery == 0 {
				steps = append(steps, step{fmt.Sprintf("ckpt%d", i), func(w *pager.WALStore) error {
					return w.Checkpoint()
				}})
			}
		}
		return steps
	}
	check := func(t *testing.T, w *pager.WALStore, seq uint64) {
		t.Helper()
		if seq == 0 {
			return // crash before the bulk load committed
		}
		sp, err := w.Read(superPage)
		if err != nil {
			t.Fatalf("seq %d: read superblock: %v", seq, err)
		}
		m := bptree.Meta{
			Root:   pager.PageID(binary.LittleEndian.Uint32(sp.Data[0:4])),
			Height: int(binary.LittleEndian.Uint32(sp.Data[4:8])),
			Size:   int(binary.LittleEndian.Uint32(sp.Data[8:12])),
		}
		tr, err := bptree.Attach(w, tcfg, m)
		if err != nil {
			t.Fatalf("seq %d: attach recovered tree %+v: %v", seq, m, err)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seq %d: recovered bulk-built tree invariants: %v", seq, err)
		}
		var got []bptree.Entry
		if err := tr.Range(-1e300, 1e300, func(e bptree.Entry) bool {
			got = append(got, e)
			return true
		}); err != nil {
			t.Fatalf("seq %d: range over recovered tree: %v", seq, err)
		}
		want := entriesAfter(allOps, len(initial)+int(seq)-1)
		if len(got) != len(want) {
			t.Fatalf("seq %d: recovered tree has %d entries, want %d", seq, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seq %d: entry %d is %+v, want %+v", seq, i, got[i], want[i])
			}
		}
	}
	return workload{pageSize: ps, make: mk, check: check}
}

// TestCrashSweepBPTreeBulk sweeps a workload whose tree is built with the
// bottom-up bulk loader inside one atomic batch (a multi-level tree at this
// page size), then mutated and checkpointed. Recovery must yield either the
// empty store or the complete packed tree plus the committed mutations —
// never a partial bulk load.
func TestCrashSweepBPTreeBulk(t *testing.T) {
	initial := make([]bptree.Entry, 40)
	for i := range initial {
		initial[i] = bptree.Entry{Key: float64(i * 3), Val: uint64(i), Aux: float64(i) / 2}
	}
	initial = bptree.SortEntries(initial, new(bptree.SortScratch))
	ops := []treeOp{
		{e: bptree.Entry{Key: 1, Val: 1000, Aux: 0.5}},
		{del: true, e: bptree.Entry{Key: 33, Val: 11}},
		{e: bptree.Entry{Key: 200, Val: 1001, Aux: 7}},
		{del: true, e: bptree.Entry{Key: 0, Val: 0}},
		{e: bptree.Entry{Key: 34, Val: 1002, Aux: 3}},
	}
	wl := bptreeBulkWorkload(256, initial, ops, 3)
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			runSweep(t, mode, wl)
		})
	}
}

// TestCrashSweepBPTree sweeps a mixed insert/delete workload that forces a
// leaf split, verifying after every crash point that the recovered tree
// attaches, passes its structural invariants and holds exactly the
// committed entries.
func TestCrashSweepBPTree(t *testing.T) {
	keys := []float64{7, 3, 11, 1, 9, 5, 13, 2, 8, 12, 4, 10, 6}
	var ops []treeOp
	for _, k := range keys {
		ops = append(ops, treeOp{e: bptree.Entry{Key: k, Val: uint64(k * 100), Aux: k / 2}})
	}
	ops = append(ops,
		treeOp{del: true, e: bptree.Entry{Key: 3, Val: 300}},
		treeOp{del: true, e: bptree.Entry{Key: 9, Val: 900}},
	)
	wl := bptreeWorkload(256, ops, 6)
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			runSweep(t, mode, wl)
		})
	}
}

// TestCrashDuringSplitRecovery enumerates every crash point of an
// ascending-insert workload that grows the tree to height 3 on tiny pages,
// so the sweep crosses repeated leaf splits, internal splits and two root
// splits. After each crash the recovered tree must re-attach with correct
// key order, node fill and reachability (CheckInvariants) and hold exactly
// the committed prefix of inserts.
func TestCrashDuringSplitRecovery(t *testing.T) {
	const ps = 128
	// Find how many ascending inserts reach height 3 at this page size.
	sim, err := bptree.New(pager.NewMemStore(ps), bptree.Config{Codec: bptree.Wide})
	if err != nil {
		t.Fatal(err)
	}
	var ops []treeOp
	for k := 1; sim.Height() < 3; k++ {
		e := bptree.Entry{Key: float64(k), Val: uint64(k), Aux: float64(k) / 4}
		if err := sim.Insert(e); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, treeOp{e: e})
	}
	t.Logf("height 3 after %d ascending inserts", len(ops))
	wl := bptreeWorkload(ps, ops, 0)
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			runSweep(t, mode, wl)
		})
	}
}

// TestCrashSweepKinetic builds a kinetic structure — dozens of pages
// allocated and written in one atomic batch — and sweeps every crash point
// of the build and the following checkpoint. Recovery must yield either no
// structure (sequence 0) or the complete one (sequence 1), never a partial
// build; a recovered structure must answer range queries exactly like the
// crash-free reference.
func TestCrashSweepKinetic(t *testing.T) {
	objs := make([]kinetic.Object, 10)
	for i := range objs {
		objs[i] = kinetic.Object{
			OID: dual.OID(i + 1),
			Y0:  float64((i * 7) % 17),
			V:   float64(i%5) - 2,
		}
	}
	const tStart, horizon = 0.0, 10.0
	queries := []struct{ yl, yh, tq float64 }{
		{0, 8, 0},
		{2, 14, 4.5},
		{-25, 40, 9.5},
		{5, 6, 2},
	}
	runQueries := func(s *kinetic.Structure) ([][]dual.OID, error) {
		var res [][]dual.OID
		for _, q := range queries {
			var ids []dual.OID
			if err := s.Query(q.yl, q.yh, q.tq, func(id dual.OID) {
				ids = append(ids, id)
			}); err != nil {
				return nil, err
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			res = append(res, ids)
		}
		return res, nil
	}

	var refMeta kinetic.Meta
	var refResults [][]dual.OID
	mk := func(ref bool) []step {
		return []step{
			{"build", func(w *pager.WALStore) error {
				s, err := kinetic.Build(w, objs, tStart, horizon)
				if err != nil {
					return err
				}
				if ref {
					refMeta = s.Meta()
					refResults, err = runQueries(s)
					if err != nil {
						return err
					}
				}
				return nil
			}},
			{"checkpoint", func(w *pager.WALStore) error { return w.Checkpoint() }},
		}
	}
	check := func(t *testing.T, w *pager.WALStore, seq uint64) {
		t.Helper()
		if seq == 0 {
			return // the build never committed; nothing to reopen
		}
		s, err := kinetic.Reopen(w, refMeta)
		if err != nil {
			t.Fatalf("seq %d: reopen recovered structure: %v", seq, err)
		}
		got, err := runQueries(s)
		if err != nil {
			t.Fatalf("seq %d: query recovered structure: %v", seq, err)
		}
		for i := range queries {
			if fmt.Sprint(got[i]) != fmt.Sprint(refResults[i]) {
				t.Fatalf("seq %d: query %d returned %v, want %v", seq, i, got[i], refResults[i])
			}
		}
	}
	wl := workload{pageSize: 256, make: mk, check: check}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			runSweep(t, mode, wl)
		})
	}
}

// TestCrashDuringRecoverySweep crashes the workload, then crashes recovery
// itself at every one of its own crash points, then recovers for real.
// Recovery must be idempotent: the interrupted attempt must not destroy
// committed data or manufacture uncommitted data, so the final state obeys
// the same oracle as a single-crash run. A few representative first-crash
// points are sampled per mode to keep the double sweep bounded.
func TestCrashDuringRecoverySweep(t *testing.T) {
	wl := rawWorkload(0)
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) {
			shadows, n, probe := runReference(t, mode, wl)
			samples := map[int]struct{}{1: {}, n / 4: {}, n / 2: {}, 3 * n / 4: {}, n: {}}
			for k := range samples {
				if k < 1 {
					continue
				}
				d := newDisk(NewMedia(mode, k))
				lastSeq, failed := crashRun(t, mode, k, wl, d)
				if failed == nil {
					t.Fatalf("mode %v point %d: workload survived its crash", mode, k)
				}

				// Count recovery's own crash points.
				mc := NewMedia(mode, 0)
				if _, err := d.reboot(mc).open(wl); err != nil {
					t.Fatalf("mode %v point %d: recovery failed: %v", mode, k, err)
				}
				for j := 1; j <= mc.Points(); j++ {
					func() {
						defer func() {
							if r := recover(); r != nil {
								t.Fatalf("mode %v point %d/recovery %d: panic: %v", mode, k, j, r)
							}
						}()
						d2 := d.reboot(NewMedia(mode, j))
						if _, err := d2.open(wl); err == nil {
							t.Fatalf("mode %v point %d/recovery %d: interrupted recovery reported success", mode, k, j)
						} else if !errors.Is(err, ErrCrash) {
							t.Errorf("mode %v point %d/recovery %d: crash surfaced untyped: %v", mode, k, j, err)
						}
						// Crash-free recovery of what the interrupted
						// attempt left behind.
						w, err := d2.reboot(NewMedia(mode, 0)).open(wl)
						if err != nil {
							t.Fatalf("mode %v point %d/recovery %d: second recovery failed: %v", mode, k, j, err)
						}
						seq := w.CommittedSeq()
						if seq != lastSeq && seq != lastSeq+1 {
							t.Fatalf("mode %v point %d/recovery %d: recovered seq %d, crash run committed %d", mode, k, j, seq, lastSeq)
						}
						got := dumpStore(t, w, probe)
						if d := dumpDiff(got, shadows[seq]); d != "" {
							t.Fatalf("mode %v point %d/recovery %d: state at seq %d diverges: %s", mode, k, j, seq, d)
						}
					}()
				}
			}
		})
	}
}
