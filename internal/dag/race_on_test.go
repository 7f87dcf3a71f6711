//go:build race

package dag

// raceEnabled widens time bounds: the race runtime slows every memory
// access several times over.
const raceEnabled = true
