// Package deadcode is the fixture for the deadcode analyzer. init is
// the only entry root; from it the live code reaches a func value in a
// closure, a method value, a generic function and a generic type's
// method. Besides init, a package-level initialiser, an interface a
// type implements, the error and Unwrap names, and a medcc:testoracle
// marker keep code live. unused, deadCaller with deadCallee, onlyTested
// (called from deadcode_test.go, which the loader skips), and a method
// named like an interface method on a type that does not implement the
// interface are the findings. The imported module package stats is loaded too, and
// most of it is unreachable from here, but it is no target, so none of
// its functions is reported.
package deadcode

import (
	"fmt"

	"medcc/internal/stats"
)

func init() {
	run := func() { apply(handler) }
	run()
	get := celsius(1).String
	fmt.Println(get(), stats.Mean(nil), identity(2), box[int]{3}.get())
}

func apply(f func() int) int { return f() }

// handler is referenced only as a value, inside a closure.
func handler() int { return 1 }

// identity and box.get are generic; their references name instances.
func identity[T any](x T) T { return x }

type box[T any] struct{ v T }

func (b box[T]) get() T { return b.v }

// celsius.String is reached as a method value from init.
type celsius float64

func (c celsius) String() string { return fmt.Sprintf("%gC", float64(c)) }

// table names viaVar in a package-level initialiser.
var table = map[string]func() int{"one": viaVar}

func viaVar() int { return 4 }

// shape's area keeps square.area live though nothing calls it: square
// implements shape, and a value could be converted to it anywhere.
type shape interface{ area() float64 }

type square float64

func (s square) area() float64 { return float64(s * s) }

// polygon's perimeter and sides are live through measured, which only
// *polygon implements. circle has a perimeter but no sides, so it
// implements no interface that declares perimeter: the name alone keeps
// nothing live.
type measured interface {
	perimeter() float64
	sides() int
}

type polygon struct {
	n    int
	side float64
}

func (p polygon) perimeter() float64 { return float64(p.n) * p.side }

func (p *polygon) sides() int { return p.n }

type circle float64

func (c circle) perimeter() float64 { return 6.283185307179586 * float64(c) } // want "deadcode.circle\).perimeter is unreachable"

// wrapErr's Error is live through the universe error and its Unwrap
// through the names package errors asserts without a named interface.
type wrapErr struct{ err error }

func (e *wrapErr) Error() string { return "wrapped: " + e.err.Error() }

func (e *wrapErr) Unwrap() error { return e.err }

// oracle is a reference implementation that only tests call.
//
// medcc:testoracle — fixture: tests compare live code against it.
func oracle() int { return oracleHelper() }

// oracleHelper is reached only from the oracle.
func oracleHelper() int { return 2 }

func unused() {} // want "deadcode.unused is unreachable"

func deadCaller() { deadCallee() } // want "deadcode.deadCaller is unreachable"

// deadCallee is reached only from dead code.
func deadCallee() {} // want "deadcode.deadCallee is unreachable"

// onlyTested is called only from deadcode_test.go.
func onlyTested() int { return 3 } // want "deadcode.onlyTested is unreachable"
