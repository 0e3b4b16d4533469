// Package bad opens WAL batches that never reach Commit or Rollback in
// the same function — the shape the batchdiscipline pass reports.
package bad

import "mobidx/internal/pager"

func unclosedWAL(w *pager.WALStore) error {
	if err := w.Begin(); err != nil {
		return err
	}
	return w.Write(&pager.Page{ID: 1, Data: make([]byte, 8)})
}

func unclosedBuffered(b *pager.Buffered) error {
	return b.Begin()
}

func unclosedFault(f *pager.FaultStore) error {
	return f.Begin()
}
