// Package marsim is the deterministic full-stack simulation testkit: it
// hosts the real wire/session/rpc/overload stack — unmodified protocol
// code — on internal/simnet's virtual clock and an in-memory datagram
// network. A scenario (handover, congestion collapse, partition, overload
// storm) runs minutes of simulated time in milliseconds of wall time, on a
// single goroutine, and the same seed always produces the byte-identical
// event trace.
package marsim

import (
	"time"

	"marnet/internal/simnet"
	"marnet/internal/vclock"
)

// epoch anchors the virtual wall clock: sim time 0 maps to this instant.
// Any fixed value works; a round positive Unix time keeps logged
// timestamps readable and far from zero-value traps.
var epoch = time.Unix(1_000_000_000, 0).UTC()

// Clock adapts a simnet.Sim into a vclock.Clock, so every protocol layer
// that takes an injected clock (wire, rpc, overload, faults) runs on
// virtual time. Now is epoch + sim elapsed; AfterFunc is a scheduled sim
// event. Clock methods must only be called from the simulation goroutine.
type Clock struct {
	sim *simnet.Sim
}

// NewClock wraps sim as a virtual time source.
func NewClock(sim *simnet.Sim) *Clock { return &Clock{sim: sim} }

// Now returns the current virtual wall-clock instant.
func (c *Clock) Now() time.Time { return epoch.Add(c.sim.Now()) }

// Since returns the virtual time elapsed since t.
func (c *Clock) Since(t time.Time) time.Duration { return c.Now().Sub(t) }

// AfterFunc schedules fn on the simulation loop after virtual duration d.
func (c *Clock) AfterFunc(d time.Duration, fn func()) vclock.Timer {
	if d < 0 {
		d = 0
	}
	return &simTimer{clock: c, fn: fn, ev: c.sim.Schedule(d, fn)}
}

// Stamp reserves the place among same-instant callbacks that a timer
// armed now would take (vclock.Sequencer).
func (c *Clock) Stamp() uint64 { return c.sim.Stamp() }

// simTimer implements vclock.Timer (and vclock.Resetter,
// vclock.StampResetter) over a scheduled sim event.
type simTimer struct {
	clock *Clock
	fn    func()
	ev    simnet.Event
}

// Stop cancels the pending event; like time.Timer.Stop it reports false
// when the callback already ran (or was already stopped). Cancelling
// releases the sim's event record immediately, so a timer that re-arms
// forever holds exactly one live queue entry, never a trail of dead ones.
func (t *simTimer) Stop() bool {
	if !t.ev.Pending() {
		return false
	}
	t.ev.Cancel()
	return true
}

// Reset re-arms the timer: the original callback fires again after
// virtual duration d. Scheduling a fresh event keeps the sim's event
// ordering identical to an AfterFunc call at the same instant, so
// Reset-based timer chains reproduce the exact traces of AfterFunc
// chains.
func (t *simTimer) Reset(d time.Duration) bool { return t.ResetStamp(d, t.clock.sim.Stamp()) }

// ResetStamp re-arms the timer like Reset, in the place among same-instant
// callbacks that stamp reserved.
func (t *simTimer) ResetStamp(d time.Duration, stamp uint64) bool {
	pending := t.Stop()
	t.ev = t.clock.sim.ScheduleStamped(t.clock.sim.Now()+d, stamp, t.fn)
	return pending
}
