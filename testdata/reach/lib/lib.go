// Package lib holds the fixture's functions, each commented with what the
// guard must make of it.
package lib

// Dead is exported and nothing calls it: reported.
func Dead() {}

// OnlyTested is called from lib_test.go alone: reported.
func OnlyTested() int { return 1 }

// Kept is called by nothing but allowlisted: not reported.
func Kept() {}

// T is the receiver of the method cases.
type T struct{}

// Gone is a method nothing calls: reported.
func (T) Gone() {}

// String satisfies fmt.Stringer, a standard-library interface: exempt.
func (T) String() string { return "t" }

type shape interface{ Area() int }

// Area satisfies shape, an interface of this package: exempt.
func (T) Area() int { return 1 }

// Measure is called from main: reached.
func Measure(s shape) int { return s.Area() }
