//go:build race

package server

// raceEnabled reports that the race detector, which allocates on its
// own account, is compiled in.
const raceEnabled = true
