// Command reachfix is the fixture of the program-wide guards
// (reach_test.go, guards_test.go): a module holding one function, field,
// …Locked call, wall-clock read and impure core of each kind they tell
// apart.
package main

import (
	"fmt"
	"time"

	"reachfix/lib"
	"reachfix/sim"
)

func main() {
	fmt.Println(lib.T{}, lib.Measure(lib.T{}), lib.Count(&lib.Counters{}), lib.Printed{})
	b := &lib.Box{}
	fmt.Println(b.Held(), b.Branch(), b.Unlocked(), b.Relocked(), b.Callback()(), b.Kept(), b.SwitchBreak())
	b.LoopRelease()
	b.LoopRelock()
	c := &lib.Core{}
	c.Guarded()
	fmt.Println(c.Step(time.Time{}), c.Tick(), c.Wall(), c.Seen())
	fmt.Println(sim.Stamp(), sim.Clock()())
	sim.Wait()
	sim.Timeout()
	// main is not a listed package: not reported.
	fmt.Println(time.Since(time.Time{}))
}
