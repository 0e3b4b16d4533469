package pager

import "fmt"

// Viewer is an optional Store capability: zero-copy read access to a
// page's bytes. View returns the store's own image of the page instead of
// a fresh copy, so a steady-state query that only descends an index
// performs no heap allocation at all (the hot-loop discipline enforced by
// the AllocsPerRun gates in the index packages).
//
// The returned slice is read-only and stable: a store that implements
// Viewer installs the slice each Write hands it (see Store.Write) rather
// than mutating the old image in place, so a slice obtained before a
// concurrent write remains a consistent (if stale) snapshot of the page.
// Callers must never write through it and must not use it after freeing
// the page.
type Viewer interface {
	View(id PageID) ([]byte, error)
}

// ViewBytes reads page id through the store's zero-copy path when it has
// one, and falls back to an ordinary (copying) Read otherwise. Either
// way the result must be treated as read-only.
func ViewBytes(s Store, id PageID) ([]byte, error) {
	if v, ok := s.(Viewer); ok {
		return v.View(id)
	}
	p, err := s.Read(id)
	if err != nil {
		return nil, err
	}
	return p.Data, nil
}

// View implements Viewer: the stored image is returned directly, under
// the read-latch only for the map lookup. Write installs the caller's
// slice per page (never mutating the old image), which is what makes the
// returned bytes a stable snapshot.
func (m *MemStore) View(id PageID) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	buf, ok := m.pages[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrPageNotFound, id)
	}
	m.stats.reads.Add(1)
	return buf, nil
}
