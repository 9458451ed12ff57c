// Command reachfix is the fixture of TestReachGuardFindsFixture: a module
// holding one function of each kind the reachability guard tells apart.
package main

import (
	"fmt"

	"reachfix/lib"
)

func main() {
	fmt.Println(lib.T{}, lib.Measure(lib.T{}))
}
