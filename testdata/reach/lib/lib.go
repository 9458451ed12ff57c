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

// Counters holds the field cases.
type Counters struct {
	Read    int // read by Count: kept
	Written int // written by Count, read by nothing: reported
	Dropped int // neither written nor read: reported
	Kept    int // read by nothing but allowlisted: not reported

	Tagged int `json:"tagged"` // read by encoding/json: exempt
	_      int // padding: exempt
}

// Printed is passed whole to fmt by main: its fields are exempt.
type Printed struct{ Shown int }

// Count writes Written, and reads Read on the right of its increment.
func Count(c *Counters) int {
	c.Written++
	c.Read += 2
	return c.Read
}
