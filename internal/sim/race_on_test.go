//go:build race

package sim

// raceEnabled skips allocation-count assertions: the race runtime adds
// allocations of its own.
const raceEnabled = true
