//go:build race

package bptree

// raceEnabled reports whether the race detector is on: sync.Pool then
// drops a share of its Puts on purpose, so allocation counts that depend
// on pooled scratch buffers are not meaningful.
const raceEnabled = true
