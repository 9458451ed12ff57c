// Package simnet is a deterministic packet-level discrete-event network
// simulator. It provides a simulated clock, an event queue, packets,
// rate/delay/loss-modelled links, queues, and simple forwarding nodes.
//
// The simulator is single-threaded: callbacks run on the goroutine that
// calls Run, in strict timestamp order, so protocol implementations built on
// top of it need no locking. All randomness flows through one seeded
// *rand.Rand, making every run reproducible.
//
// The event core is allocation-flat: event records are pooled and recycled
// the moment they complete, and cancelling an event removes it from the
// queue eagerly, so a steady-state schedule/fire/cancel cycle (the life of
// a keepalive or pacer timer that re-arms forever) costs zero allocations
// and the queue size tracks *live* timers, not cumulative re-arms. That
// flatness is what lets a 100k-endpoint city simulation run minutes of
// virtual time in seconds of wall time.
package simnet

import (
	"errors"
	"math/rand"
	"time"
)

// ErrHorizon is returned by Run when the event limit is exceeded, which
// almost always indicates a scheduling loop in a protocol implementation.
var ErrHorizon = errors.New("simnet: event limit exceeded")

// eventRec is the pooled storage behind an Event handle. A record is owned
// by the queue while pending, and returns to the simulator's free list the
// instant it fires or is cancelled; gen advances on every recycle so stale
// handles can never reach a record that now belongs to a different event.
type eventRec struct {
	at  time.Duration
	seq uint64
	fn  func()
	sim *Sim

	index  int32 // position in the heap, -1 while not queued
	gen    uint64
	firing bool // callback currently running (record not yet recycled)
}

// Event is a handle to a scheduled callback. Handles are small values:
// copying one is free, and the zero Event refers to no event (every method
// is a safe no-op on it).
//
// Handles are generation-checked: once an event has completed (fired or
// cancelled) its record is recycled for future Schedule calls, and the old
// handle expires — Pending reports false on it and Cancel cannot reach the
// record's next occupant.
type Event struct {
	rec *eventRec
	gen uint64
}

// Cancel prevents the event from firing and eagerly removes it from the
// event queue, releasing its record for reuse. Cancelling an already-fired,
// already-cancelled, expired or zero Event is a no-op.
func (e Event) Cancel() {
	r := e.rec
	if r == nil || r.gen != e.gen || r.firing {
		return
	}
	s := r.sim
	s.heapRemove(int(r.index))
	s.cancelled++
	s.retire(r)
}

// Pending reports whether the event is still queued to fire.
func (e Event) Pending() bool {
	return e.rec != nil && e.rec.gen == e.gen && !e.rec.firing
}

// Sim is a discrete-event simulation instance.
type Sim struct {
	now      time.Duration
	events   []*eventRec // binary min-heap on (at, seq)
	free     []*eventRec // recycled records
	seq      uint64
	rng      *rand.Rand
	maxEvent int

	fired     uint64
	cancelled uint64
}

// New returns a simulator whose random stream is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{
		rng:      rand.New(rand.NewSource(seed)),
		maxEvent: 200_000_000,
	}
}

// Now reports the current simulated time.
func (s *Sim) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Schedule arranges fn to run after delay. A negative delay is treated as
// zero (run "now", after currently queued same-time events).
func (s *Sim) Schedule(delay time.Duration, fn func()) Event {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt arranges fn to run at absolute simulated time t. Times in the
// past are clamped to the current time.
func (s *Sim) ScheduleAt(t time.Duration, fn func()) Event {
	return s.ScheduleStamped(t, s.Stamp(), fn)
}

// Stamp reserves the place among same-time events that an event scheduled
// now would take. ScheduleStamped hands it to an event scheduled later.
func (s *Sim) Stamp() uint64 {
	s.seq++
	return s.seq
}

// ScheduleStamped is ScheduleAt for an event ordered among same-time events
// as if it had been scheduled when stamp was reserved: a timer that serves
// several deadlines keeps each one's place this way.
func (s *Sim) ScheduleStamped(t time.Duration, stamp uint64, fn func()) Event {
	if t < s.now {
		t = s.now
	}
	var r *eventRec
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		r = &eventRec{sim: s}
	}
	r.at, r.seq, r.fn = t, stamp, fn
	s.heapPush(r)
	return Event{rec: r, gen: r.gen}
}

// retire recycles a completed record: the generation advances (expiring all
// outstanding handles), the callback reference is dropped so captured state
// is collectable, and the record joins the free list.
func (s *Sim) retire(r *eventRec) {
	r.gen++
	r.firing = false
	r.fn = nil
	r.index = -1
	s.free = append(s.free, r)
}

// Run executes events until the queue is empty. It returns ErrHorizon if the
// configured event limit is exceeded.
func (s *Sim) Run() error { return s.RunUntil(1<<62 - 1) }

// RunUntil executes events with timestamps <= t, then advances the clock to
// t. It fires at most the configured event limit per call and returns
// ErrHorizon — with the offending event still queued — when one more event
// would exceed it.
func (s *Sim) RunUntil(t time.Duration) error {
	fired := 0
	for len(s.events) > 0 {
		next := s.events[0]
		if next.at > t {
			break
		}
		if fired >= s.maxEvent {
			return ErrHorizon
		}
		s.heapPopMin()
		s.now = next.at
		next.firing = true
		fn := next.fn
		fired++
		s.fired++
		fn()
		s.retire(next)
	}
	if t < 1<<62-1 && t > s.now {
		s.now = t
	}
	return nil
}

// Pending reports the number of live queued events. Cancelled events leave
// the queue immediately, so Pending is exactly the number of timers and
// deliveries still armed — the quiescence and leak-detection signal.
func (s *Sim) Pending() int { return len(s.events) }

// TotalFired reports how many event callbacks have run.
func (s *Sim) TotalFired() uint64 { return s.fired }

// TotalCancelled reports how many events were cancelled before firing.
func (s *Sim) TotalCancelled() uint64 { return s.cancelled }

// The event queue is a hand-rolled binary min-heap on (at, seq). Rolling it
// by hand (instead of container/heap) keeps the per-event cost to the sift
// itself — no interface dispatch, no any-boxing — which matters when a
// fleet-scale run pushes tens of millions of events through the queue.

func eventLess(a, b *eventRec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Sim) heapPush(r *eventRec) {
	r.index = int32(len(s.events))
	s.events = append(s.events, r)
	s.siftUp(len(s.events) - 1)
}

// heapPopMin removes and detaches the root (the caller already holds it).
func (s *Sim) heapPopMin() {
	h := s.events
	n := len(h) - 1
	root := h[0]
	h[0] = h[n]
	h[n] = nil
	s.events = h[:n]
	root.index = -1
	if n > 0 {
		h[0].index = 0
		s.siftDown(0)
	}
}

// heapRemove deletes the element at position i.
func (s *Sim) heapRemove(i int) {
	h := s.events
	n := len(h) - 1
	if i < 0 || i > n {
		return
	}
	h[i].index = -1
	if i != n {
		h[i] = h[n]
		h[i].index = int32(i)
	}
	h[n] = nil
	s.events = h[:n]
	if i < n {
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
}

func (s *Sim) siftUp(i int) {
	h := s.events
	r := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(r, h[parent]) {
			break
		}
		h[i] = h[parent]
		h[i].index = int32(i)
		i = parent
	}
	h[i] = r
	r.index = int32(i)
}

// siftDown restores the heap below i and reports whether anything moved.
func (s *Sim) siftDown(i int) bool {
	h := s.events
	n := len(h)
	r := h[i]
	start := i
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && eventLess(h[right], h[child]) {
			child = right
		}
		if !eventLess(h[child], r) {
			break
		}
		h[i] = h[child]
		h[i].index = int32(i)
		i = child
	}
	h[i] = r
	r.index = int32(i)
	return i != start
}
