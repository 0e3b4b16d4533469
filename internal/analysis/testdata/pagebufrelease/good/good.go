// Package good holds pooled-scratch usage the pagebufrelease pass must
// accept: release on every path, deferred release, ownership hand-off to
// a callee, and release inside a loop.
package good

import (
	"mobidx/internal/core"
	"mobidx/internal/dual"
)

func releaseAllPaths(lists [][]dual.OID, cond bool) int {
	s := core.GetScratch()
	if cond {
		s.Release()
		return 0
	}
	n := len(s.Union(lists))
	s.Release()
	return n
}

func deferred(buckets [][]dual.OID) int {
	s := core.GetScratch()
	defer s.Release()
	return len(s.Merge(buckets))
}

func consume(s *core.Scratch) { s.Release() }

func handedOff() {
	s := core.GetScratch()
	consume(s)
}

func releasedInLoop(lists [][]dual.OID, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		s := core.GetScratch()
		if len(lists) == i {
			s.Release()
			return total
		}
		total += len(s.Union(lists))
		s.Release()
	}
	return total
}
