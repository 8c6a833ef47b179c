//go:build !race

package dag

const raceEnabled = false
