// Package good holds batch usage the batchdiscipline pass must accept:
// Begin paired with Commit on success and Rollback on failure, and the
// RunBatch wrapper that encapsulates the pairing.
package good

import "mobidx/internal/pager"

func committed(w *pager.WALStore, p *pager.Page) error {
	if err := w.Begin(); err != nil {
		return err
	}
	if err := w.Write(p); err != nil {
		return w.Rollback()
	}
	return w.Commit()
}

func viaRunBatch(w *pager.WALStore, p *pager.Page) error {
	return pager.RunBatch(w, func() error { return w.Write(p) })
}

func bufferedCommit(b *pager.Buffered, p *pager.Page) error {
	if err := b.Begin(); err != nil {
		return err
	}
	if err := b.Write(p); err != nil {
		if rerr := b.Rollback(); rerr != nil {
			return rerr
		}
		return err
	}
	return b.Commit()
}

func faultCommit(f *pager.FaultStore, p *pager.Page) error {
	if err := f.Begin(); err != nil {
		return err
	}
	if err := f.Write(p); err != nil {
		if rerr := f.Rollback(); rerr != nil {
			return rerr
		}
		return err
	}
	return f.Commit()
}
