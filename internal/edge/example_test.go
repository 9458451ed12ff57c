package edge_test

import (
	"fmt"
	"time"

	"marnet/internal/edge"
)

// Place the minimum number of edge datacenters so every MAR user's
// offloading deadline is reachable.
func ExampleGreedy() {
	inst := edge.Instance{
		Sites: []edge.Site{
			{X: 2, Y: 2},
			{X: 18, Y: 18},
			{X: 40, Y: 40}, // covers nobody
		},
		Users: []edge.User{
			{X: 1, Y: 2, Budget: 4 * time.Millisecond},
			{X: 3, Y: 3, Budget: 4 * time.Millisecond},
			{X: 18, Y: 19, Budget: 4 * time.Millisecond},
		},
		Latency: edge.DefaultLatency,
	}
	sel, err := edge.Greedy(inst)
	if err != nil {
		panic(err)
	}
	fmt.Printf("|C| = %d, sites %v\n", len(sel), sel)
	// Output: |C| = 2, sites [0 1]
}

// The capacitated variant: capacities force a third site even though two
// would cover everyone.
func ExampleCapacitatedGreedy() {
	ci := edge.CapacitatedInstance{
		Instance: edge.Instance{
			Sites: []edge.Site{
				{X: 2, Y: 2},
				{X: 2.5, Y: 2},
				{X: 3, Y: 2.5},
			},
			Users: []edge.User{
				{X: 2, Y: 2.2, Budget: 4 * time.Millisecond},
				{X: 2.4, Y: 2, Budget: 4 * time.Millisecond},
				{X: 2.8, Y: 2.3, Budget: 4 * time.Millisecond},
			},
			Latency: edge.DefaultLatency,
		},
		Capacity: []int{1, 1, 1},
	}
	sel, assign, err := edge.CapacitatedGreedy(ci)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d sites, one user each: %v\n", len(sel), len(assign))
	// Output: 3 sites, one user each: 3
}
