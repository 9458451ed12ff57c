package marsim

import (
	"testing"
	"time"

	"marnet/internal/simnet"
	"marnet/internal/vclock"
)

// The marsim side of the cancel-leak regression: every virtual-timer Reset
// cancels the old sim event and schedules a fresh one. With eager removal
// the sim's queue must stay bounded by the number of *live* timers under
// sustained re-arm churn — the pattern every hosted keepalive and pacer
// produces — not grow with cumulative Resets until original deadlines pass.
func TestVirtualTimerRearmBounded(t *testing.T) {
	sim := simnet.New(1)
	clock := NewClock(sim)

	const timers = 32
	const rounds = 5_000
	const keepalive = 30 * time.Second

	fired := 0
	ts := make([]interface {
		Stop() bool
		Reset(time.Duration) bool
	}, timers)
	for i := range ts {
		tm := clock.AfterFunc(keepalive, func() { fired++ })
		rt, ok := tm.(interface {
			Stop() bool
			Reset(time.Duration) bool
		})
		if !ok {
			t.Fatal("sim timer does not support Reset")
		}
		ts[i] = rt
	}
	// Re-arm every timer each virtual millisecond — traffic keeps arriving,
	// the keepalive never fires.
	for r := 0; r < rounds; r++ {
		if err := sim.RunUntil(time.Duration(r) * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		for _, tm := range ts {
			if !tm.Reset(keepalive) {
				t.Fatal("Reset reported the timer dead while pending")
			}
		}
		if p := sim.Pending(); p != timers {
			t.Fatalf("round %d: Pending = %d, want %d (cancelled events leaking in the heap)", r, p, timers)
		}
	}
	if fired != 0 {
		t.Fatalf("keepalives fired %d times under constant re-arm", fired)
	}
	// Let them all expire: exactly one fire per live timer.
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != timers {
		t.Fatalf("fired = %d after drain, want %d", fired, timers)
	}
	if sim.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", sim.Pending())
	}
}

// Stop-after-fire keeps time.Timer semantics through record recycling: a
// handle whose event already ran reports false from Stop even once the
// sim has recycled the record for unrelated events.
func TestVirtualTimerStopAfterFire(t *testing.T) {
	sim := simnet.New(1)
	clock := NewClock(sim)
	ran := false
	tm := clock.AfterFunc(time.Millisecond, func() { ran = true })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("timer never fired")
	}
	// Recycle the record a few times.
	for i := 0; i < 4; i++ {
		sim.Schedule(time.Millisecond, func() {})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Stop() {
		t.Error("Stop returned true on a fired timer")
	}
}

// A virtual timer re-armed with vclock.RearmAt fires in the place its
// stamp reserved among same-instant events, not where the re-arm happened.
func TestVirtualTimerResetStampKeepsPlace(t *testing.T) {
	sim := simnet.New(1)
	clock := NewClock(sim)
	var order []string
	fn := func() { order = append(order, "timer") }
	tm := clock.AfterFunc(time.Hour, fn)
	stamp := clock.Stamp()
	sim.Schedule(time.Millisecond, func() { order = append(order, "other") })
	at := vclock.Deadline{At: clock.Now().Add(time.Millisecond), Stamp: stamp}
	if got := vclock.RearmAt(clock, tm, at, clock.Now(), fn); got != tm {
		t.Fatal("RearmAt replaced a virtual timer instead of re-arming it")
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "timer" {
		t.Fatalf("order = %v, want the timer first", order)
	}
}
