//go:build !race

package abortable

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
