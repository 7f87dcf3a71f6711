//go:build race

package medcc

// raceEnabled skips allocation-count assertions: the race runtime adds
// allocations of its own.
const raceEnabled = true
