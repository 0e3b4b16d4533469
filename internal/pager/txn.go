package pager

import (
	"errors"
	"fmt"
)

// ErrTxnDone is returned by operations on a Txn after its Commit or
// Rollback.
var ErrTxnDone = errors.New("pager: txn finished")

// Txn is an explicit, handle-scoped atomic batch. Where the implicit
// Batcher protocol (Begin/Commit on the store itself) is single-writer —
// a nested Begin joins the open batch, so independent goroutines would
// silently merge their batches — each Txn stages its writes and frees
// privately, and any number of them may stage concurrently, alongside
// the implicit batch. Commit appends the whole batch and its commit
// record under the store latch (one short critical section) and is
// durable on return; with WALConfig.GroupCommit, concurrent Txn commits
// coalesce onto shared log syncs, which is what makes many small
// concurrent commits cheap.
//
// A Txn's reads see its own staged writes, then committed state — never
// another transaction's uncommitted staging. Concurrent transactions
// compose at page granularity: the intended use is disjoint page sets
// (per-writer journals, separate structures). Writing the same page from
// two live transactions is last-committer-wins, and freeing a page
// another live transaction still uses is a caller bug the store cannot
// detect. A Txn is owned by one goroutine; the handle itself is not safe
// for concurrent use.
type Txn struct {
	w *WALStore
	b *walBatch
}

// BeginTxn opens an explicit transaction. Unlike Begin, it never joins
// an open batch: every BeginTxn returns an independent handle.
func (w *WALStore) BeginTxn() (*Txn, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ok(); err != nil {
		return nil, err
	}
	return &Txn{w: w, b: &walBatch{
		depth:    1,
		allocSet: make(map[PageID]struct{}),
		writes:   make(map[PageID][]byte),
		freeSet:  make(map[PageID]struct{}),
	}}, nil
}

// PageSize returns the store's page size.
func (t *Txn) PageSize() int { return t.w.pageSize }

// Allocate assigns a fresh page id from the base allocator (ids must be
// stable immediately, exactly as in the implicit protocol); Rollback
// returns it.
func (t *Txn) Allocate() (*Page, error) {
	if t.b == nil {
		return nil, ErrTxnDone
	}
	w := t.w
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ok(); err != nil {
		return nil, err
	}
	p, err := w.base.Allocate()
	if err != nil {
		return nil, err
	}
	t.b.allocs = append(t.b.allocs, p.ID)
	t.b.allocSet[p.ID] = struct{}{}
	w.stats.allocs.Add(1)
	return p, nil
}

// Read serves the transaction's own staged image when it has one, else
// the committed state (the WAL page table, then the base store). It
// never sees the implicit batch's or another transaction's staging.
func (t *Txn) Read(id PageID) (*Page, error) {
	if t.b == nil {
		return nil, ErrTxnDone
	}
	w := t.w
	if _, freed := t.b.freeSet[id]; freed {
		return nil, fmt.Errorf("%w: page %d freed in txn", ErrPageNotFound, id)
	}
	img, ok := t.b.writes[id]
	if !ok {
		var err error
		w.mu.Lock()
		img, err = w.imageLocked(nil, id)
		w.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return w.readImage(id, img)
}

// Write stages the page image in the transaction (pure memory; no store
// latch). It becomes visible to others only at Commit.
func (t *Txn) Write(p *Page) error {
	if t.b == nil {
		return ErrTxnDone
	}
	w := t.w
	if len(p.Data) != w.pageSize {
		return fmt.Errorf("pager: wal write page %d: %d bytes, want %d", p.ID, len(p.Data), w.pageSize)
	}
	if p.ID == w.metaPage || p.ID == 0 {
		return fmt.Errorf("pager: write wal meta page %d: %w", p.ID, ErrReservedPage)
	}
	b := t.b
	if _, freed := b.freeSet[p.ID]; freed {
		return fmt.Errorf("%w: page %d freed in txn", ErrPageNotFound, p.ID)
	}
	if _, seen := b.writes[p.ID]; !seen {
		b.writeOrder = append(b.writeOrder, p.ID)
	}
	b.writes[p.ID] = stableImage(p, w.pageSize)
	w.stats.writes.Add(1)
	return nil
}

// Free stages a free. Liveness is validated now, against this
// transaction's staging and the committed state: once logged, a free
// MUST apply, so a bad id must be rejected before it can reach the log.
func (t *Txn) Free(id PageID) error {
	if t.b == nil {
		return ErrTxnDone
	}
	w := t.w
	b := t.b
	if id == w.metaPage || id == 0 {
		return fmt.Errorf("pager: free wal meta page %d: %w", id, ErrReservedPage)
	}
	if _, dup := b.freeSet[id]; dup {
		return fmt.Errorf("pager: free page %d: %w", id, ErrDoubleFree)
	}
	w.mu.Lock()
	if err := w.ok(); err != nil {
		w.mu.Unlock()
		return err
	}
	_, inTxn := b.allocSet[id]
	_, inWrites := b.writes[id]
	_, inTable := w.table[id]
	w.mu.Unlock()
	if !inTxn && !inWrites && !inTable {
		if _, err := w.base.Read(id); err != nil {
			return fmt.Errorf("pager: free page %d: %w", id, err)
		}
	}
	b.freeSet[id] = struct{}{}
	b.frees = append(b.frees, id)
	w.stats.frees.Add(1)
	return nil
}

// Commit makes the transaction durable and visible, atomically. On
// return the batch is either fully durable (even across a crash) or —
// on error — fully rolled back with no durable or visible trace. The
// handle is finished either way.
func (t *Txn) Commit() error {
	if t.b == nil {
		return ErrTxnDone
	}
	b := t.b
	t.b = nil
	w := t.w
	w.mu.Lock()
	if err := w.ok(); err != nil {
		rerr := w.rollbackBatchLocked(b)
		w.mu.Unlock()
		return errors.Join(err, rerr)
	}
	//mobidxlint:allow lockorder -- by design: the commit record must be appended (and, without group commit, synced) under the latch to keep the log in LSN order; group commit moves the sync wait below the Unlock
	lsn, wait, err := w.commitBatchLocked(b)
	w.mu.Unlock()
	if err != nil || !wait {
		return err
	}
	if err := w.waitDurable(lsn); err != nil {
		return err
	}
	return w.maybeAutoCheckpoint()
}

// Rollback discards the transaction's staging and returns its base
// allocations. The handle is finished.
func (t *Txn) Rollback() error {
	if t.b == nil {
		return ErrTxnDone
	}
	b := t.b
	t.b = nil
	w := t.w
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rollbackBatchLocked(b)
}
