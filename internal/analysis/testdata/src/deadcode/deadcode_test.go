package deadcode

import "testing"

func TestOnlyTested(t *testing.T) {
	if onlyTested() != 3 || oracle() != 2 {
		t.Fatal("fixture")
	}
}
