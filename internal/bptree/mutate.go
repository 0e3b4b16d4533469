package bptree

import (
	"encoding/binary"

	"mobidx/internal/pager"
)

// Insert adds an entry. Duplicate keys are allowed; the (key, val) pair
// need not be unique either (exact duplicates sit adjacent).
//
// On a store that supports atomic batches (pager.Batcher, e.g. a
// WALStore) the insert — including any cascade of leaf and internal
// splits — commits as one batch: a crash mid-split leaves no trace. On a
// failed mutation the store is rolled back, but the in-memory Tree may be
// stale; reopen it from the store (Attach) before further use.
func (t *Tree) Insert(e Entry) error {
	e.Key, e.Aux = t.codec.roundKey(e.Key), t.codec.roundKey(e.Aux)
	return pager.RunBatch(t.store, func() error { return t.insert(e) })
}

// insert adds a codec-rounded entry in one descent. A leaf with room takes
// the entry; a full one splits, and the separator and the new page go up
// the recorded path until a node has room or the root splits.
func (t *Tree) insert(e Entry) error {
	path, m, err := t.descend(make([]step, 0, maxPath), t.root, t.height, e.Key, e.Val)
	if err != nil {
		return err
	}
	var slot [24]byte
	ins := slot[:t.codec.leafEntrySize()]
	t.encodeEntry(ins, e)
	at, room := t.search(m, e.Key, e.Val, true), t.leafCap
	for {
		a, b := t.around(m, at, at)
		if m.n < room {
			if err := t.put(m.id, m.leaf(), m.next(), a, ins, b); err != nil {
				return err
			}
			break
		}
		slot, err = t.split(m, a, ins, b)
		if err != nil {
			return err
		}
		ins = slot[:t.codec.intEntrySize()]
		if len(path) == 0 {
			r, err := t.store.Allocate()
			if err != nil {
				return err
			}
			var left [4]byte
			binary.LittleEndian.PutUint32(left[:], uint32(m.id))
			if err := t.put(r.ID, false, pager.NilPage, left[:], ins); err != nil {
				return err
			}
			t.root, t.height = r.ID, t.height+1
			break
		}
		p := path[len(path)-1]
		path = path[:len(path)-1]
		m, at, room = p.image, p.ci, t.intCap
	}
	t.size++
	return nil
}

// split writes m with parts as its body — one slot over capacity — as two
// nodes: the lower half stays on m's page, the upper half goes to a newly
// allocated one. It returns the slot the parent gains: the separator and
// the new page. A leaf's separator is the upper half's first composite;
// an internal node's is its middle separator, which moves up, its child
// opening the upper half.
func (t *Tree) split(m image, parts ...[]byte) ([24]byte, error) {
	var up [24]byte
	s := image{d: make([]byte, t.store.PageSize()+t.codec.leafEntrySize()), n: m.n + 1}
	s.d[0] = m.d[0]
	end := headerSize
	for _, part := range parts {
		end += copy(s.d[end:], part)
	}
	r, err := t.store.Allocate()
	if err != nil {
		return up, err
	}
	mid := s.n / 2
	k, v := t.kvOf(s, mid)
	n := copy(up[:], k)
	n += copy(up[n:], v)
	binary.LittleEndian.PutUint32(up[n:], uint32(r.ID))
	at := t.slot(s, mid)
	if err := t.put(m.id, m.leaf(), r.ID, s.d[headerSize:at]); err != nil {
		return up, err
	}
	if m.leaf() {
		return up, t.put(r.ID, true, m.next(), s.d[at:end])
	}
	return up, t.put(r.ID, false, pager.NilPage, s.d[at+len(k)+len(v):end])
}

// Delete removes one entry with the given key and value in a single
// root-to-leaf descent (composite ordering makes the position unique even
// among massive duplicate-key runs; see find for a run that a split cut).
// Like Insert, the whole operation — deletion plus any rebalances and root
// collapses — is one atomic batch on a batching store.
func (t *Tree) Delete(key float64, val uint64) error {
	key = t.codec.roundKey(key)
	return pager.RunBatch(t.store, func() error { return t.delete(key, val) })
}

// delete removes one copy of a codec-rounded composite. The leaf loses the
// entry; if that leaves a non-root leaf under half full, the recorded path
// is walked back up, each underfull node borrowing from or merging with a
// sibling, and a root left with a single child hands the root to it.
func (t *Tree) delete(k float64, v uint64) error {
	path, m, g, err := t.find(make([]step, 0, maxPath), k, v)
	if err != nil {
		return err
	}
	if g < 0 {
		return ErrNotFound
	}
	a, b := t.around(m, g, g+1)
	if err := t.put(m.id, true, m.next(), a, b); err != nil {
		return err
	}
	for under := m.n <= t.minLeaf(); under && len(path) > 0; {
		p := path[len(path)-1]
		path = path[:len(path)-1]
		if g, err = t.rebalance(p, m, g); err != nil {
			return err
		}
		if g < 0 {
			break
		}
		m, under = p.image, p.n <= t.minInt()
		if len(path) == 0 && p.n == 1 {
			kid, err := t.child(p.image, 0)
			if err != nil {
				return err
			}
			if err := t.store.Free(p.id); err != nil {
				return err
			}
			t.root, t.height = kid, t.height-1
		}
	}
	t.size--
	return nil
}

// rebalance restores m, child p.ci of p, which lost slot g (already
// written) and fell under half full. A sibling under p that can spare a
// slot lends one through p's separator — the left one first — and
// rebalance returns -1; otherwise m merges with a sibling and rebalance
// returns the slot p loses. Writes go sibling, m, p, frees before them.
func (t *Tree) rebalance(p step, m image, g int) (int, error) {
	leaf, ci := m.leaf(), p.ci
	half := t.minInt()
	if leaf {
		half = t.minLeaf()
	}
	a, b := t.around(m, g, g+1)
	// sep returns separator j of p as an internal node's slot holds it; a
	// leaf takes no separator down.
	sep := func(j int) ([]byte, []byte) {
		if leaf {
			return nil, nil
		}
		return t.kvOf(p.image, j)
	}
	var l, r image
	var err error
	if ci > 0 {
		if l, err = t.kid(p.image, ci-1, leaf); err != nil {
			return 0, err
		}
		if l.n > half {
			// The left sibling's last entry — for an internal node, its last
			// child under p's separator — moves to m; its last composite
			// becomes p's separator.
			last, end := t.slot(l, l.n-1), t.slot(l, l.n)
			moved := l.d[last:end]
			if !leaf {
				moved = l.d[end-4 : end]
			}
			sk, sv := sep(ci - 1)
			if err := t.put(l.id, leaf, l.next(), l.d[headerSize:last]); err != nil {
				return 0, err
			}
			if err := t.put(m.id, leaf, m.next(), moved, sk, sv, a, b); err != nil {
				return 0, err
			}
			k, v := t.kvOf(l, l.n-1)
			return -1, t.resep(p.image, ci-1, k, v)
		}
	}
	if ci < p.n {
		if r, err = t.kid(p.image, ci+1, leaf); err != nil {
			return 0, err
		}
		if r.n > half {
			// The right sibling's first entry — for an internal node, its
			// leftmost child under p's separator — moves to m; its next
			// composite (an internal node's first separator) goes up.
			moved, rest, up := r.d[headerSize:t.slot(r, 1)], r.d[t.slot(r, 1):t.slot(r, r.n)], 1
			if !leaf {
				moved, rest, up = r.d[headerSize:headerSize+4], r.d[t.slot(r, 1)-4:t.slot(r, r.n)], 0
			}
			sk, sv := sep(ci)
			if err := t.put(r.id, leaf, r.next(), rest); err != nil {
				return 0, err
			}
			if err := t.put(m.id, leaf, m.next(), a, b, sk, sv, moved); err != nil {
				return 0, err
			}
			k, v := t.kvOf(r, up)
			return -1, t.resep(p.image, ci, k, v)
		}
	}
	switch {
	case ci > 0:
		sk, sv := sep(ci - 1)
		if err := t.store.Free(m.id); err != nil {
			return 0, err
		}
		if err := t.put(l.id, leaf, m.next(), l.d[headerSize:t.slot(l, l.n)], sk, sv, a, b); err != nil {
			return 0, err
		}
		return ci - 1, t.drop(p.image, ci-1)
	case ci < p.n:
		sk, sv := sep(ci)
		if err := t.store.Free(r.id); err != nil {
			return 0, err
		}
		if err := t.put(m.id, leaf, r.next(), a, b, sk, sv, r.d[headerSize:t.slot(r, r.n)]); err != nil {
			return 0, err
		}
		return ci, t.drop(p.image, ci)
	}
	return -1, nil
}

// resep writes internal node p with separator j's composite replaced by
// the given key and val bytes, every child kept.
func (t *Tree) resep(p image, j int, k, v []byte) error {
	at := t.slot(p, j)
	return t.put(p.id, false, pager.NilPage, p.d[headerSize:at], k, v, p.d[at+len(k)+len(v):t.slot(p, p.n)])
}

// drop writes internal node p without slot j: separator j and the child
// right of it.
func (t *Tree) drop(p image, j int) error {
	a, b := t.around(p, j, j+1)
	return t.put(p.id, false, pager.NilPage, a, b)
}
