package rpc_test

// The priority-shedding storm on the virtual clock: the same open-loop
// 4x over-capacity load as the former wall-clock test, but the whole
// stack — four tiered clients, the admission gate, the modeled-service
// server — runs deterministically on the simulation loop. That buys back
// the TIGHT latency assertion: on virtual time there is no goroutine
// wakeup or race-detector slack, so every admitted call must land inside
// the budget, exactly.

import (
	"testing"
	"time"

	"marnet/internal/marsim"
)

func TestOverloadStormShedsByPriority(t *testing.T) {
	const stormBudget = 150 * time.Millisecond
	res, err := marsim.RunOverloadStorm(42)
	if err != nil {
		t.Fatal(err)
	}
	if res.OKs == 0 {
		t.Fatal("no request succeeded at all")
	}

	// (a) Every admitted-and-served request finished inside the budget —
	// tight: virtual time has no scheduling slack to forgive.
	for i, tier := range res.Tiers {
		if tier.P99 > stormBudget {
			t.Errorf("tier %d p99 admitted latency %v exceeds budget %v", i, tier.P99, stormBudget)
		}
	}

	// (b) The protected tier sails through while shedding concentrates at
	// the bottom: success fractions must not increase down the tiers.
	frac := make([]float64, len(res.Tiers))
	for i, tier := range res.Tiers {
		frac[i] = float64(tier.Succeeded) / float64(tier.Offered)
		t.Logf("tier %d (prio %v): %d/%d succeeded (%.1f%%), p99 %v",
			i, tier.Prio, tier.Succeeded, tier.Offered, 100*frac[i], tier.P99)
	}
	if frac[0] < 0.95 {
		t.Errorf("protected tier success %.1f%% < 95%%", 100*frac[0])
	}
	for i := 1; i < len(frac); i++ {
		if frac[i] > frac[i-1]+0.05 {
			t.Errorf("tier %d success %.1f%% exceeds tier %d success %.1f%%: shedding is not priority-ordered",
				i, 100*frac[i], i-1, 100*frac[i-1])
		}
	}
	if frac[len(frac)-1] > 0.5 {
		t.Errorf("lowest tier success %.1f%%: the storm never actually overloaded the server",
			100*frac[len(frac)-1])
	}

	st := res.Server
	rejects := st.Shed + st.QueueFull + st.ExpiredInQueue + st.CannotFinish + st.ExpiredOnArrival
	if rejects == 0 {
		t.Error("server rejected nothing at 4x over-capacity")
	}
	// Each refusal is counted once, by the gate: the server's six refusal
	// fields are its sums.
	g := st.Gate
	var tailDrop, codelShed int64
	for tier := range g.Admission.TailDrop {
		tailDrop += g.Admission.TailDrop[tier]
		codelShed += g.Admission.CoDelShed[tier]
	}
	if got, want := [6]int64{st.QueueFull, st.Shed, st.Draining, st.ExpiredOnArrival, st.ExpiredInQueue, st.CannotFinish},
		[6]int64{tailDrop, codelShed + g.LadderRejected, g.RejectedDraining, g.ExpiredOnArrival, g.ExpiredInQueue, g.CannotFinish}; got != want {
		t.Errorf("server refusals (queue-full, shed, draining, expired on arrival, expired in queue, cannot finish) %v, gate's %v", got, want)
	}
	if n := st.Gate.Admission.CoDelShed[0]; n != 0 {
		t.Errorf("protected tier was CoDel-shed %d times", n)
	}
	t.Logf("server: served=%d shed=%d queueFull=%d expiredQueue=%d cannotFinish=%d expiredArrival=%d",
		st.Served, st.Shed, st.QueueFull, st.ExpiredInQueue, st.CannotFinish, st.ExpiredOnArrival)
}
