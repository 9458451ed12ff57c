package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"marnet/internal/core"
	"marnet/internal/marsim"
	"marnet/internal/simnet"
	"marnet/internal/trace"
	"marnet/internal/wire"
)

// SectionIVCRow is one cell-load point.
type SectionIVCRow struct {
	Users        int
	PerUserMean  float64 // delivered bits/s per user (mean)
	PerUserMin   float64
	JainIndex    float64 // fairness across users
	SatisfiedPct float64 // fraction achieving >= 95% of fair share
}

// SectionIVCResult is the dense-cell study.
type SectionIVCResult struct {
	CellBps   float64
	DemandBps float64
	Rows      []SectionIVCRow
}

// SectionIVC loads a shared uplink cell with a growing number of ARTP
// users, each offering the same MAR demand. The 5G white paper the paper
// quotes wants 50 Mb/s for 95% of users in 95% of locations; the protocol-
// level question here is whether ARTP's per-flow delay-based controllers
// share a saturated cell fairly (the paper's property 2: "fair to other
// connections while exploiting the maximum available bandwidth"). Jain's
// index near 1 means the independent controllers converge to equal shares.
func SectionIVC(seed int64) SectionIVCResult {
	const cell = 40e6  // shared uplink capacity
	const demand = 8e6 // per-user offered MAR load
	res := SectionIVCResult{CellBps: cell, DemandBps: demand}
	for _, n := range []int{2, 5, 10, 20} {
		res.Rows = append(res.Rows, densityRun(seed, n, cell, demand))
	}
	return res
}

func densityRun(seed int64, nUsers int, cellBps, demandBps float64) SectionIVCRow {
	sim := simnet.New(seed + int64(nUsers))
	serverMux := simnet.NewDemux()
	cell := simnet.NewLink(sim, cellBps, 15*time.Millisecond, serverMux,
		simnet.WithQueue(simnet.NewDropTail(300)))

	users := make([]*marsim.LinkSession, nUsers)
	for i := range users {
		clientMux := simnet.NewDemux()
		down := simnet.NewLink(sim, cellBps, 15*time.Millisecond, clientMux)
		users[i] = marsim.DialLinks(sim, simnet.Addr(100+2*i), cell, down, clientMux, serverMux, wire.Config{
			StartBudget: demandBps / 2,
			Streams:     []wire.StreamSpec{{ID: 1, Class: core.ClassFullBestEffort, Priority: core.PrioNoDelay, Rate: demandBps}},
		})
		users[i].Tally.Stream(1).Goodput = trace.NewThroughput(time.Second)
	}

	const horizon = 20 * time.Second
	pktBytes := 1200
	interval := time.Duration(float64(pktBytes*8) / demandBps * float64(time.Second))
	for i, u := range users {
		var tick func()
		tick = func() {
			marsim.Send(sim, u.Client, 1, pktBytes)
			if sim.Now()+interval <= horizon {
				sim.Schedule(interval, tick)
			}
		}
		// Stagger starts slightly so controllers do not move in lockstep.
		sim.Schedule(time.Duration(i)*7*time.Millisecond, tick)
	}
	if err := sim.RunUntil(horizon + time.Second); err != nil {
		panic(err)
	}

	// Per-user delivered rate over the steady second half of the run
	// (excluding controller ramp-up).
	rates := make([]float64, nUsers)
	var sum, sumSq, min float64
	min = math.Inf(1)
	for i, u := range users {
		rates[i] = u.Tally.Stream(1).Goodput.Series("u").Window(horizon/2, horizon)
		sum += rates[i]
		sumSq += rates[i] * rates[i]
		if rates[i] < min {
			min = rates[i]
		}
	}
	fair := math.Min(demandBps, cellBps/float64(nUsers))
	satisfied := 0
	for _, r := range rates {
		if r >= 0.95*fair {
			satisfied++
		}
	}
	jain := 1.0
	if sumSq > 0 {
		jain = sum * sum / (float64(nUsers) * sumSq)
	}
	return SectionIVCRow{
		Users:        nUsers,
		PerUserMean:  sum / float64(nUsers),
		PerUserMin:   min,
		JainIndex:    jain,
		SatisfiedPct: float64(satisfied) / float64(nUsers),
	}
}

// Format renders the cell-density study.
func (r SectionIVCResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section IV-C — dense cell sharing (%.0f Mb/s uplink cell, %.0f Mb/s per-user demand)\n",
		r.CellBps/1e6, r.DemandBps/1e6)
	fmt.Fprintf(&b, "%-8s %14s %14s %8s %12s\n", "users", "mean/user", "min/user", "Jain", ">=95% fair")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8d %11.2f Mb %11.2f Mb %8.3f %11.0f%%\n",
			row.Users, row.PerUserMean/1e6, row.PerUserMin/1e6, row.JainIndex, row.SatisfiedPct*100)
	}
	return b.String()
}
