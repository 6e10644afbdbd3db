//go:build race

package bench

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = true
