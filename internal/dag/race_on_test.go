//go:build race

package dag

// raceEnabled reports whether the race detector is active; it drops
// sync.Pool entries at random, so allocation-budget tests skip.
const raceEnabled = true
