//go:build !race

package medcc

const raceEnabled = false
