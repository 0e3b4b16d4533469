//go:build race

package pager

// raceEnabled reports whether the race detector is on: sync.Pool then
// drops a share of its Puts on purpose, so allocation counts that depend
// on the pooled frame chunk are not meaningful.
const raceEnabled = true
