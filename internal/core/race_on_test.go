//go:build race

package core

// raceEnabled reports that the race detector, which allocates on its
// own account, is compiled in.
const raceEnabled = true
