package crashtest

import (
	"fmt"
	"testing"

	"mobidx/internal/pager"
)

// recycleWorkload runs four cycles of shrinking length — four batches,
// three, two, one — each but the last closed by a due checkpoint, which
// rewinds the log instead of truncating it. Every cycle after the first
// commits over the stale tail of a longer one: a crash tears a commit over
// stale bytes, stops between the new cycle and the stale one, or strikes
// between a watermark and the first overwrite, and recovery must present
// exactly the shadow store at the last committed batch.
func recycleWorkload() workload {
	const ps = 128
	pat := func(tag byte) []byte {
		buf := make([]byte, ps)
		for i := range buf {
			buf[i] = tag ^ byte(i*13)
		}
		return buf
	}
	mk := func(bool) []step {
		ids := map[string]pager.PageID{}
		alloc := func(w *pager.WALStore, names ...string) error {
			for _, n := range names {
				p, err := w.Allocate()
				if err != nil {
					return err
				}
				ids[n] = p.ID
			}
			return nil
		}
		write := func(w *pager.WALStore, tag byte, names ...string) error {
			for _, n := range names {
				if err := w.Write(&pager.Page{ID: ids[n], Data: pat(tag)}); err != nil {
					return err
				}
			}
			return nil
		}
		batch := func(name string, fn func(w *pager.WALStore) error) step {
			return step{name, func(w *pager.WALStore) error { return pager.RunBatch(w, func() error { return fn(w) }) }}
		}
		due := func(cycle int) step {
			return step{fmt.Sprintf("due-%d", cycle), func(w *pager.WALStore) error { return w.CheckpointIfDue(1) }}
		}
		return []step{
			batch("alloc-abcd", func(w *pager.WALStore) error {
				if err := alloc(w, "a", "b", "c", "d"); err != nil {
					return err
				}
				return write(w, 0x11, "a", "b", "c", "d")
			}),
			batch("write-ab", func(w *pager.WALStore) error { return write(w, 0x12, "a", "b") }),
			batch("write-cd", func(w *pager.WALStore) error { return write(w, 0x13, "c", "d") }),
			batch("write-abc", func(w *pager.WALStore) error { return write(w, 0x14, "a", "b", "c") }),
			due(1),
			batch("write-bc", func(w *pager.WALStore) error { return write(w, 0x25, "b", "c") }),
			batch("free-d-write-a", func(w *pager.WALStore) error {
				if err := w.Free(ids["d"]); err != nil {
					return err
				}
				return write(w, 0x26, "a")
			}),
			batch("alloc-e", func(w *pager.WALStore) error {
				if err := alloc(w, "e"); err != nil {
					return err
				}
				return write(w, 0x27, "e")
			}),
			due(2),
			batch("write-a", func(w *pager.WALStore) error { return write(w, 0x38, "a") }),
			batch("write-ce", func(w *pager.WALStore) error { return write(w, 0x39, "c", "e") }),
			due(3),
			batch("write-b", func(w *pager.WALStore) error { return write(w, 0x4a, "b") }),
		}
	}
	return workload{pageSize: ps, make: mk}
}

// TestCrashSweepRecycledLog sweeps every crash point of the shrinking
// cycles in all three crash modes, on the real FileStore and FileLog.
func TestCrashSweepRecycledLog(t *testing.T) {
	wl := recycleWorkload()
	// The workload is what it claims: the last cycle ends inside the
	// stale bytes of the longer ones before it.
	d := newDisk(NewMedia(KeepAll, 0))
	w, err := d.open(wl)
	if err != nil {
		t.Fatal(err)
	}
	var cycles []int64
	for _, s := range wl.make(false) {
		size := w.LogSize()
		if err := s.do(w); err != nil {
			t.Fatalf("step %s: %v", s.name, err)
		}
		if w.LogSize() < size {
			cycles = append(cycles, size)
		}
	}
	if len(cycles) != 3 || !(cycles[0] > cycles[1] && cycles[1] > cycles[2]) {
		t.Fatalf("cycles of %v bytes, want three of shrinking length", cycles)
	}
	if end := w.LogSize(); int64(len(d.log.volatile)) != cycles[0] || end >= cycles[2] {
		t.Fatalf("log file %d bytes, last cycle ends at %d: want the first cycle's %d kept past a shorter one", len(d.log.volatile), end, cycles[0])
	}
	for _, mode := range allModes {
		t.Run(mode.String(), func(t *testing.T) { runSweep(t, mode, wl) })
	}
}
