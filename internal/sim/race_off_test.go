//go:build !race

package sim

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under -race.
const raceEnabled = false
