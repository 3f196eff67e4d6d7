//go:build !race

package rmr_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
