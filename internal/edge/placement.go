// Package edge solves the Section VI-F problem: place the minimum number
// of edge datacenters (from a candidate set) such that every mobile user's
// MAR offloading deadline is satisfiable by at least one selected site —
//
//	min |C|  s.t.  ∀m ∈ M, ∃c ∈ C : P_offloading(m, c) < δ_a
//
// With per-(user, site) feasibility precomputed, this is minimum set
// cover. The package provides the classic greedy ln(n)-approximation, an
// exact branch-and-bound for small instances, and a random baseline.
package edge

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Errors.
var (
	ErrInfeasible = errors.New("edge: some users are covered by no candidate site")
	ErrTooLarge   = errors.New("edge: instance too large for exact solver")
)

// Site is a candidate edge datacenter location.
type Site struct {
	X, Y float64 // km
}

// User is a mobile MAR user with an offloading deadline.
type User struct {
	X, Y   float64       // km
	Budget time.Duration // δa minus compute terms: the latency the network may spend
}

// Instance is one placement problem.
type Instance struct {
	Sites []Site
	Users []User
	// Latency estimates the network delay between a user and a site.
	Latency func(Site, User) time.Duration
}

// DefaultLatency models a metro network: a fixed base (last-mile plus
// processing) plus a per-km distance term dominated by the hop structure
// of metro aggregation networks rather than by the speed of light.
func DefaultLatency(s Site, u User) time.Duration {
	dx, dy := s.X-u.X, s.Y-u.Y
	dist := math.Sqrt(dx*dx + dy*dy)
	return 2*time.Millisecond + time.Duration(dist*0.4*float64(time.Millisecond))
}

// NewGrid synthesizes a city-scale instance: users and candidate sites
// uniformly placed on a sideKm x sideKm square, every user carrying the
// given latency budget.
func NewGrid(nUsers, nSites int, sideKm float64, budget time.Duration, seed int64) Instance {
	rng := rand.New(rand.NewSource(seed))
	inst := Instance{Latency: DefaultLatency}
	for i := 0; i < nSites; i++ {
		inst.Sites = append(inst.Sites, Site{X: rng.Float64() * sideKm, Y: rng.Float64() * sideKm})
	}
	for i := 0; i < nUsers; i++ {
		inst.Users = append(inst.Users, User{X: rng.Float64() * sideKm, Y: rng.Float64() * sideKm, Budget: budget})
	}
	return inst
}

// Coverage returns, for each site index, the set of user indexes whose
// deadline that site satisfies.
func (inst Instance) Coverage() [][]int {
	lat := inst.Latency
	if lat == nil {
		lat = DefaultLatency
	}
	cov := make([][]int, len(inst.Sites))
	for si, s := range inst.Sites {
		for ui, u := range inst.Users {
			if lat(s, u) < u.Budget {
				cov[si] = append(cov[si], ui)
			}
		}
	}
	return cov
}

// Feasible reports whether every user is covered by at least one candidate.
func (inst Instance) Feasible() bool {
	covered := make([]bool, len(inst.Users))
	for _, us := range inst.Coverage() {
		for _, u := range us {
			covered[u] = true
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

// Validate reports whether the selected site indexes cover every user.
func (inst Instance) Validate(selection []int) bool {
	cov := inst.Coverage()
	covered := make([]bool, len(inst.Users))
	for _, si := range selection {
		if si < 0 || si >= len(cov) {
			return false
		}
		for _, u := range cov[si] {
			covered[u] = true
		}
	}
	for _, c := range covered {
		if !c {
			return false
		}
	}
	return true
}

// Greedy is the ln(n)-approximate set-cover: repeatedly pick the site
// covering the most uncovered users.
func Greedy(inst Instance) ([]int, error) {
	cov := inst.Coverage()
	uncovered := len(inst.Users)
	coveredBy := make([]bool, len(inst.Users))
	used := make([]bool, len(inst.Sites))
	var sel []int
	for uncovered > 0 {
		best, bestGain := -1, 0
		for si := range cov {
			if used[si] {
				continue
			}
			gain := 0
			for _, u := range cov[si] {
				if !coveredBy[u] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = si, gain
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("%w: %d users uncoverable", ErrInfeasible, uncovered)
		}
		used[best] = true
		sel = append(sel, best)
		for _, u := range cov[best] {
			if !coveredBy[u] {
				coveredBy[u] = true
				uncovered--
			}
		}
	}
	sort.Ints(sel)
	return sel, nil
}

// Exact finds a minimum cover by branch and bound over users (branching on
// the lowest-index uncovered user, trying each site that covers it). It
// refuses instances with more than maxUsers users (default 64) to bound
// runtime; pass 0 for the default.
func Exact(inst Instance, maxUsers int) ([]int, error) {
	if maxUsers <= 0 {
		maxUsers = 64
	}
	if len(inst.Users) > maxUsers {
		return nil, fmt.Errorf("%w: %d users > %d", ErrTooLarge, len(inst.Users), maxUsers)
	}
	cov := inst.Coverage()
	n := len(inst.Users)
	full := fullMask(n)

	siteMasks := make([]uint64, len(cov))
	for si, us := range cov {
		for _, u := range us {
			siteMasks[si] |= 1 << uint(u)
		}
	}
	// Upper bound from greedy.
	best, err := Greedy(inst)
	if err != nil {
		return nil, err
	}
	bestLen := len(best)
	bestSel := append([]int(nil), best...)

	// coversUser[u] lists sites covering user u, widest first (good
	// ordering for early pruning).
	coversUser := make([][]int, n)
	for si, m := range siteMasks {
		for u := 0; u < n; u++ {
			if m&(1<<uint(u)) != 0 {
				coversUser[u] = append(coversUser[u], si)
			}
		}
	}
	for u := range coversUser {
		sort.Slice(coversUser[u], func(a, b int) bool {
			return popcount(siteMasks[coversUser[u][a]]) > popcount(siteMasks[coversUser[u][b]])
		})
	}

	var cur []int
	var dfs func(covered uint64)
	dfs = func(covered uint64) {
		if covered == full {
			if len(cur) < bestLen {
				bestLen = len(cur)
				bestSel = append([]int(nil), cur...)
			}
			return
		}
		if len(cur)+1 >= bestLen {
			// Even one more site cannot beat the incumbent... unless it
			// finishes the cover; the branch below handles that, so prune
			// only when it cannot.
			if len(cur)+1 > bestLen {
				return
			}
		}
		// Lower bound: remaining users / max site coverage.
		remaining := popcount(full &^ covered)
		maxCover := 0
		for _, m := range siteMasks {
			if c := popcount(m &^ covered); c > maxCover {
				maxCover = c
			}
		}
		if maxCover == 0 {
			return
		}
		need := (remaining + maxCover - 1) / maxCover
		if len(cur)+need >= bestLen {
			return
		}
		// Branch on the first uncovered user.
		u := 0
		for ; u < n; u++ {
			if covered&(1<<uint(u)) == 0 {
				break
			}
		}
		for _, si := range coversUser[u] {
			cur = append(cur, si)
			dfs(covered | siteMasks[si])
			cur = cur[:len(cur)-1]
		}
	}
	dfs(0)
	if !inst.Validate(bestSel) {
		return nil, ErrInfeasible
	}
	sort.Ints(bestSel)
	return bestSel, nil
}

// RandomBaseline picks random sites until the users are covered, then
// prunes redundant picks. It is the "no planning" comparison point.
func RandomBaseline(inst Instance, rng *rand.Rand) ([]int, error) {
	if !inst.Feasible() {
		return nil, ErrInfeasible
	}
	cov := inst.Coverage()
	perm := rng.Perm(len(inst.Sites))
	covered := make([]bool, len(inst.Users))
	uncovered := len(inst.Users)
	var sel []int
	for _, si := range perm {
		if uncovered == 0 {
			break
		}
		gain := false
		for _, u := range cov[si] {
			if !covered[u] {
				covered[u] = true
				uncovered--
				gain = true
			}
		}
		if gain {
			sel = append(sel, si)
		}
	}
	// Prune: drop sites whose removal keeps the cover.
	for i := len(sel) - 1; i >= 0; i-- {
		trial := append(append([]int(nil), sel[:i]...), sel[i+1:]...)
		if inst.Validate(trial) {
			sel = trial
		}
	}
	sort.Ints(sel)
	return sel, nil
}

func fullMask(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(n)) - 1
}

func popcount(x uint64) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
