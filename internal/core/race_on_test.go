//go:build race

package core

// raceEnabled reports whether the race detector is on; it adds allocations
// that allocation-count tests must not see.
const raceEnabled = true
