//go:build race

package core

// raceEnabled reports whether the race detector is on: sync.Pool then
// drops a share of its Puts on purpose, so allocation figures that depend
// on the pooled query scratch are not meaningful.
const raceEnabled = true
