//go:build race

package sim

// raceEnabled reports whether the race detector is active; its
// instrumentation adds allocations, so allocation-budget tests skip.
const raceEnabled = true
