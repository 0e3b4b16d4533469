//go:build !race

package bptree

const raceEnabled = false
