// Package staleignore is the fixture for the driver's stale
// suppression check: printAll carries a live suppression (it hides a
// real mapiter finding), stale carries one with nothing to suppress,
// and kept shows the staleignore escape hatch.
package staleignore

import "fmt"

// The fixture runs the whole suite, deadcode included: a package-level
// initialiser keeps its functions reachable.
var _ = []any{printAll, stale, kept}

// printAll iterates a map into output; the suppression is used.
func printAll(m map[string]int) {
	for k, v := range m { // medcc:lint-ignore mapiter — fixture: output order is irrelevant here.
		fmt.Println(k, v)
	}
}

// stale suppresses an analyzer that has no finding on its line.
func stale() int {
	x := 1 + 2 // medcc:lint-ignore floateq — nothing here compares floats. want "lint-ignore for floateq suppresses no finding"
	return x
}

// kept keeps a currently-unused suppression on purpose, via the escape
// hatch.
func kept() int {
	y := 3 // medcc:lint-ignore epochguard,staleignore — fixture: kept deliberately while the cache design settles.
	return y
}
