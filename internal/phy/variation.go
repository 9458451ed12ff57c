package phy

import (
	"time"

	"marnet/internal/simnet"
)

// Outage forces 100% loss on the link during [start, start+dur), modelling
// the multi-second connectivity gaps of WiFi handover (Section IV-A4). The
// link's prior loss probability is restored afterwards.
func Outage(sim *simnet.Sim, link *simnet.Link, prevLoss float64, start, dur time.Duration) {
	sim.ScheduleAt(start, func() { link.SetLoss(1.0) })
	sim.ScheduleAt(start+dur, func() { link.SetLoss(prevLoss) })
}
