package edge

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"math/rand"
)

func capSmall(caps []int) CapacitatedInstance {
	return CapacitatedInstance{Instance: smallInstance(), Capacity: caps}
}

func TestAssignRespectsCapacity(t *testing.T) {
	// Site 0 covers users 0 and 1 but has capacity 1; site 1 covers user 2.
	ci := capSmall([]int{1, 2, 1})
	if _, err := ci.Assign([]int{0, 1}); !errors.Is(err, ErrNoAssignment) {
		t.Errorf("over-capacity assignment err = %v, want ErrNoAssignment", err)
	}
	ci = capSmall([]int{2, 1, 1})
	assign, err := ci.Assign([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for u, s := range assign {
		counts[s]++
		// Assignment must be to a covering site.
		cov := ci.Coverage()[s]
		found := false
		for _, cu := range cov {
			if cu == u {
				found = true
			}
		}
		if !found {
			t.Errorf("user %d assigned to non-covering site %d", u, s)
		}
	}
	for s, n := range counts {
		if n > ci.Capacity[s] {
			t.Errorf("site %d serves %d > capacity %d", s, n, ci.Capacity[s])
		}
	}
}

func TestAssignRelocatesViaAugmentingPath(t *testing.T) {
	// Two users, two sites; user 0 reaches both, user 1 reaches only site
	// 0. If user 0 grabs site 0 first, the matcher must relocate it.
	lat := func(s Site, u User) time.Duration { return DefaultLatency(s, u) }
	ci := CapacitatedInstance{
		Instance: Instance{
			Sites: []Site{{X: 0, Y: 0}, {X: 6, Y: 0}},
			Users: []User{
				{X: 3, Y: 0, Budget: 5 * time.Millisecond},  // reaches both
				{X: -1, Y: 0, Budget: 3 * time.Millisecond}, // only site 0
			},
			Latency: lat,
		},
		Capacity: []int{1, 1},
	}
	assign, err := ci.Assign([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if assign[1] != 0 || assign[0] != 1 {
		t.Errorf("assignment = %v, want user1->0, user0->1", assign)
	}
}

func TestAssignBadSiteIndex(t *testing.T) {
	ci := capSmall([]int{1, 1, 1})
	if _, err := ci.Assign([]int{99}); err == nil {
		t.Error("bad index should error")
	}
}

func TestCapacitatedGreedyAddsSitesUnderTightCapacity(t *testing.T) {
	// Uncapacitated greedy needs 2 sites; with capacity 1 per site and 3
	// users, a third site must be added.
	ci := NewCapacitatedGrid(12, 10, 20, 8*time.Millisecond, 2, 7)
	if !ci.Feasible() {
		t.Skip("infeasible seed")
	}
	uncap, err := Greedy(ci.Instance)
	if err != nil {
		t.Fatal(err)
	}
	sel, assign, err := CapacitatedGreedy(ci)
	if err != nil {
		if errors.Is(err, ErrNoAssignment) {
			t.Skip("capacity structurally insufficient for this seed")
		}
		t.Fatal(err)
	}
	if len(sel) < len(uncap) {
		t.Errorf("capacitated |C|=%d below uncapacitated %d", len(sel), len(uncap))
	}
	// 12 users at 2 per site need at least 6 sites.
	if len(sel) < 6 {
		t.Errorf("|C| = %d, need >= 6 for 12 users at capacity 2", len(sel))
	}
	counts := map[int]int{}
	for _, s := range assign {
		counts[s]++
	}
	for s, n := range counts {
		if n > 2 {
			t.Errorf("site %d over capacity: %d", s, n)
		}
	}
}

func TestCapacitatedGreedyInsufficientTotalCapacity(t *testing.T) {
	ci := NewCapacitatedGrid(30, 5, 20, 8*time.Millisecond, 2, 3) // 10 slots < 30 users
	if !ci.Feasible() {
		t.Skip("infeasible seed")
	}
	if _, _, err := CapacitatedGreedy(ci); !errors.Is(err, ErrNoAssignment) {
		t.Errorf("err = %v, want ErrNoAssignment", err)
	}
}

func TestCapacitatedGreedyInfeasibleCoverage(t *testing.T) {
	ci := capSmall([]int{5, 5, 5})
	ci.Users = append(ci.Users, User{X: 900, Y: 900, Budget: time.Millisecond})
	if _, _, err := CapacitatedGreedy(ci); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// Property: whenever CapacitatedGreedy succeeds, the assignment covers
// every user with a covering site and respects every capacity.
func TestCapacitatedProperty(t *testing.T) {
	f := func(seed int64, nu, ns, cp uint8) bool {
		users := int(nu%20) + 4
		sites := int(ns%10) + 4
		perSite := int(cp%4) + 1
		ci := NewCapacitatedGrid(users, sites, 25, 9*time.Millisecond, perSite, seed)
		sel, assign, err := CapacitatedGreedy(ci)
		if err != nil {
			return true // infeasibility is a legitimate outcome
		}
		if len(assign) != users {
			return false
		}
		cov := ci.Coverage()
		counts := map[int]int{}
		inSel := map[int]bool{}
		for _, s := range sel {
			inSel[s] = true
		}
		for u, s := range assign {
			if !inSel[s] {
				return false
			}
			counts[s]++
			found := false
			for _, cu := range cov[s] {
				if cu == u {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		for s, n := range counts {
			if n > ci.Capacity[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}
