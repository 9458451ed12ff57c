// Package vclock defines the injectable clock used by every timing-
// sensitive layer of the stack (wire keepalive/retransmit/pacing, rpc
// deadlines/retries/hedging, fault relays). Production code takes a Clock
// and defaults to System; the simulation testkit (internal/marsim)
// substitutes a virtual clock driven by internal/simnet so the identical
// protocol code runs on compressed, deterministic time.
//
// The interface is deliberately minimal: a readable now plus one-shot
// timer scheduling. Periodic work is expressed as an AfterFunc chain that
// reschedules itself, which maps 1:1 onto discrete-event simulation and
// avoids the goroutine-per-ticker pattern that cannot be virtualised.
//
// Clock-injection rules for new code (see DESIGN §3f):
//   - never call time.Now, time.Since, time.Sleep, time.NewTimer or
//     time.NewTicker from protocol logic; take a Clock and use it;
//   - express periodic loops as AfterFunc chains guarded by the owner's
//     closed flag under its mutex;
//   - callbacks fire without locks held; re-check state under the mutex
//     before acting, because a Stop can race a firing callback.
//
// The granularity rule (see DESIGN §3g): never arm a timer shorter than
// Granularity(clock). Work due inside one granule is done now, and the time
// it ran early is carried forward as debt against the next deadline — a
// shorter timer would fire up to a whole granule late.
package vclock

import "time"

// Clock supplies current time and timer scheduling. Implementations must
// be safe for concurrent use.
type Clock interface {
	// Now returns the current time. On the system clock this carries a
	// monotonic reading, so Sub/Since are immune to wall-clock steps.
	Now() time.Time
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
	// AfterFunc schedules fn to run once after d elapses. fn runs on an
	// unspecified goroutine (on a virtual clock: the simulation loop).
	// Non-positive d schedules fn to run as soon as possible.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Timer is a handle to a pending AfterFunc callback.
type Timer interface {
	// Stop cancels the callback. It reports whether the cancellation
	// happened before the callback started; when false, the callback has
	// run or is running concurrently, so the owner must re-check its own
	// state under its lock rather than rely on Stop.
	Stop() bool
}

// Resetter is the optional re-arm capability of a Timer: Reset schedules
// the timer's original callback to fire again after d without allocating
// a fresh timer. Like time.Timer.Reset it reports whether the timer was
// still pending; hot paths (per-frame pacing) rely on Reset to keep the
// timer chain allocation-free.
type Resetter interface {
	Reset(d time.Duration) bool
}

// Rearm re-arms t for d when it supports in-place reset, falling back to
// a fresh AfterFunc on clock otherwise. fn must be the same callback the
// timer was created with — Reset fires the original function. It returns
// the timer to keep (t itself, or the fresh one).
func Rearm(clock Clock, t Timer, d time.Duration, fn func()) Timer {
	if r, ok := t.(Resetter); ok {
		r.Reset(d)
		return t
	}
	if t != nil {
		t.Stop()
	}
	return clock.AfterFunc(d, fn)
}

// Sequencer is the optional capability of a Clock that runs callbacks due
// at the same instant in the order they were scheduled (the simulator's).
// Stamp reserves the place a timer armed now would take, for a deadline
// whose timer is armed later: one timer serving several deadlines then
// fires for each where a timer of its own would have.
type Sequencer interface {
	Stamp() uint64
}

// StampResetter is the optional capability of a Sequencer's Timer to be
// re-armed, like Resetter, into a place a Stamp reserved.
type StampResetter interface {
	ResetStamp(d time.Duration, stamp uint64) bool
}

// A Deadline is an instant a timer must fire at (zero: none) and its place
// among same-instant callbacks: the Sequencer stamp taken when it was set,
// 0 on a clock without one.
type Deadline struct {
	At    time.Time
	Stamp uint64
}

// NewDeadline is a deadline at at, in the place of a timer armed now on the
// clock whose Sequencer seq is (nil: a clock without one).
func NewDeadline(seq Sequencer, at time.Time) Deadline {
	d := Deadline{At: at}
	if seq != nil {
		d.Stamp = seq.Stamp()
	}
	return d
}

// Before reports whether d is set and comes before e (or e is not set), in
// the order a Sequencer runs their callbacks.
func (d Deadline) Before(e Deadline) bool {
	if d.At.IsZero() || e.At.IsZero() {
		return !d.At.IsZero()
	}
	c := d.At.Compare(e.At)
	return c < 0 || c == 0 && d.Stamp < e.Stamp
}

// RearmAt re-arms t to run fn at d, now being the caller's reading: a
// StampResetter in d's place among same-instant callbacks, any other t (nil
// included) by Rearm, in the place of a timer armed now.
func RearmAt(clock Clock, t Timer, d Deadline, now time.Time, fn func()) Timer {
	if r, ok := t.(StampResetter); ok {
		r.ResetStamp(d.At.Sub(now), d.Stamp)
		return t
	}
	return Rearm(clock, t, d.At.Sub(now), fn)
}

// Granular is the optional capability of a Clock whose timers have a
// floor: Granularity is the shortest delay an AfterFunc can be relied on to
// time. A clock without it (the simulator's, a test's hand-driven one)
// times every delay exactly.
type Granular interface {
	Granularity() time.Duration
}

// Granularity returns clock's timer floor, zero when it has none.
func Granularity(clock Clock) time.Duration {
	if g, ok := clock.(Granular); ok {
		return g.Granularity()
	}
	return 0
}

// System is the wall-clock implementation backed by package time.
var System Clock = systemClock{}

// OrSystem returns c, or System when c is nil. Constructors use it so a
// zero config means real time.
func OrSystem(c Clock) Clock {
	if c == nil {
		return System
	}
	return c
}

type systemClock struct{}

func (systemClock) Now() time.Time                  { return time.Now() }
func (systemClock) Since(t time.Time) time.Duration { return time.Since(t) }
func (systemClock) AfterFunc(d time.Duration, fn func()) Timer {
	return sysTimer{time.AfterFunc(d, fn)}
}

// Granularity is one millisecond: a timer on an idle P fires from the
// netpoller's wake-up, and epoll_wait's timeout is whole milliseconds
// (runtime/netpoll_epoll.go: delay < 1e6 → waitms = 1), so a 44 µs timer
// on an otherwise idle process is a 1 ms timer.
func (systemClock) Granularity() time.Duration { return time.Millisecond }

type sysTimer struct{ t *time.Timer }

func (s sysTimer) Stop() bool { return s.t.Stop() }

// Reset re-arms the underlying time.Timer. The timer is an AfterFunc one,
// so Reset is safe at any time: on a pending timer it moves the fire, on a
// fired one it schedules another.
func (s sysTimer) Reset(d time.Duration) bool { return s.t.Reset(d) }
