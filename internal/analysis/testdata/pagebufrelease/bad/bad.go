// Package bad exercises every leak shape the pagebufrelease pass
// reports: a return with the scratch still live, an early return that
// skips the release on one path, a discarded acquisition, and a
// reassignment that overwrites a live scratch.
package bad

import (
	"mobidx/internal/core"
	"mobidx/internal/dual"
)

func leakOnReturn(lists [][]dual.OID) int {
	s := core.GetScratch()
	n := len(s.Union(lists))
	return n
}

func leakOnOnePath(cond bool) {
	s := core.GetScratch()
	if cond {
		return
	}
	s.Release()
}

func discarded() {
	_ = core.GetScratch()
}

func reassigned() {
	s := core.GetScratch()
	s = core.GetScratch()
	s.Release()
}
