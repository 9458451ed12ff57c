package simnet

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(1*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms", s.Now())
	}
}

func TestScheduleFIFOAtSameTime(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

// An event scheduled with a stamp runs among same-time events where one
// scheduled when the stamp was reserved would have, before events
// scheduled in between.
func TestScheduleStampedKeepsPlace(t *testing.T) {
	s := New(1)
	var order []string
	stamp := s.Stamp()
	s.Schedule(time.Millisecond, func() { order = append(order, "later") })
	s.ScheduleStamped(time.Millisecond, stamp, func() { order = append(order, "stamped") })
	s.Schedule(0, func() { order = append(order, "earlier") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"earlier", "stamped", "later"}; !slices.Equal(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(-time.Second, func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != 0 {
		t.Errorf("Now = %v, want 0", s.Now())
	}
}

func TestEventCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.Schedule(time.Millisecond, func() { fired = true })
	if !e.Pending() {
		t.Error("Pending() should be true before Cancel")
	}
	e.Cancel()
	if e.Pending() {
		t.Error("cancelled event reports Pending")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after cancel, want 0 (eager removal)", s.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
	// Cancelling the zero handle or twice must not panic.
	var zero Event
	zero.Cancel()
	e.Cancel()
}

func TestEventHandleLifecycle(t *testing.T) {
	s := New(1)
	fired, fired2 := 0, 0
	e := s.Schedule(time.Millisecond, func() { fired++ })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("callback ran %d times, want 1", fired)
	}
	if e.Pending() {
		t.Error("fired event reports Pending")
	}
	e.Cancel() // no-op on a completed event
	// The fired record is recycled: a new event reuses it, and once that
	// second lifetime completes the first handle has fully expired.
	e2 := s.Schedule(time.Millisecond, func() { fired2++ })
	if e.Pending() {
		t.Error("stale handle reports Pending after record reuse")
	}
	e.Cancel() // must not cancel the new occupant
	if !e2.Pending() {
		t.Error("stale handle Cancel hit the record's new occupant")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Pending() || fired != 1 {
		t.Errorf("expired handle reports Pending, or its callback ran again (%d runs)", fired)
	}
	if fired2 != 1 {
		t.Errorf("second-lifetime callback ran %d times, want 1", fired2)
	}
}

// The cancel-leak regression: a timer that re-arms forever (marsim
// keepalives, pacers: Reset = Cancel + Schedule every interval) must hold
// exactly one queue entry, not one per historical re-arm. Before eager
// removal, each cancelled event stayed heap-resident until its original
// deadline — at fleet scale the heap filled with dead entries and
// Pending() lied about live load.
func TestCancelRearmChurnBounded(t *testing.T) {
	s := New(1)
	const timers = 64
	const rearms = 10_000
	evs := make([]Event, timers)
	fn := func() {}
	for i := range evs {
		evs[i] = s.Schedule(time.Hour, fn)
	}
	for r := 0; r < rearms; r++ {
		for i := range evs {
			evs[i].Cancel()
			evs[i] = s.Schedule(time.Hour, fn)
		}
		if p := s.Pending(); p != timers {
			t.Fatalf("rearm round %d: Pending = %d, want %d (dead events leaking)", r, p, timers)
		}
	}
	if got := s.TotalCancelled(); got != timers*rearms {
		t.Errorf("TotalCancelled = %d, want %d", got, timers*rearms)
	}
	// The pool holds at most the high-water of concurrent events, not the
	// cumulative churn.
	if ps := s.poolSize(); ps > 2*timers {
		t.Errorf("free list grew to %d records for %d live timers", ps, timers)
	}
}

// The event limit is exact: a run may fire precisely maxEvent events; the
// (maxEvent+1)th returns ErrHorizon with the event still queued.
func TestEventLimitExactBoundary(t *testing.T) {
	s := New(1)
	s.SetEventLimit(100)
	n := 0
	for i := 0; i < 100; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, func() { n++ })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("exactly-at-limit run errored: %v", err)
	}
	if n != 100 {
		t.Fatalf("fired %d of 100", n)
	}

	s2 := New(1)
	s2.SetEventLimit(100)
	m := 0
	for i := 0; i < 101; i++ {
		s2.Schedule(time.Duration(i)*time.Millisecond, func() { m++ })
	}
	if err := s2.Run(); err != ErrHorizon {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	if m != 100 {
		t.Errorf("fired %d before ErrHorizon, want exactly 100", m)
	}
	if s2.Pending() != 1 {
		t.Errorf("Pending = %d after ErrHorizon, want 1 (the unfired event)", s2.Pending())
	}
}

// The steady-state schedule/fire/cancel cycle is allocation-flat: with the
// record pool warm and pre-bound callbacks, re-arming and firing timers
// costs zero allocations per cycle.
func TestEventCycleAllocFlat(t *testing.T) {
	s := New(1)
	n := 0
	fn := func() { n++ }
	// Warm the pool and the heap slice.
	for i := 0; i < 64; i++ {
		s.Schedule(time.Duration(i), fn)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10_000, func() {
		e := s.Schedule(time.Microsecond, fn)
		e.Cancel()
		s.Schedule(time.Microsecond, fn)
		if err := s.RunUntil(s.Now() + time.Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("schedule/cancel/fire cycle allocates %.2f/op, want 0", allocs)
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.Schedule(10*time.Millisecond, func() { at = s.Now() })
	s.Schedule(100*time.Millisecond, func() { t.Error("should not fire") })
	if err := s.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if at != 10*time.Millisecond {
		t.Errorf("event at %v, want 10ms", at)
	}
	if s.Now() != 50*time.Millisecond {
		t.Errorf("Now = %v, want 50ms", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
}

func TestEventLimit(t *testing.T) {
	s := New(1)
	s.SetEventLimit(100)
	var loop func()
	loop = func() { s.Schedule(time.Nanosecond, loop) }
	s.Schedule(0, loop)
	if err := s.Run(); err != ErrHorizon {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var hits []time.Duration
	s.Schedule(time.Millisecond, func() {
		hits = append(hits, s.Now())
		s.Schedule(time.Millisecond, func() {
			hits = append(hits, s.Now())
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 || hits[0] != time.Millisecond || hits[1] != 2*time.Millisecond {
		t.Fatalf("hits = %v", hits)
	}
}

// Property: regardless of insertion order, events fire in timestamp order
// with ties broken by insertion order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		type rec struct {
			at  time.Duration
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i := i
			at := time.Duration(d) * time.Microsecond
			s.ScheduleAt(at, func() { fired = append(fired, rec{s.Now(), i}) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		if len(fired) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].at != fired[j].at {
				return fired[i].at < fired[j].at
			}
			return fired[i].seq < fired[j].seq
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New(42)
		sink := &Sink{}
		link := NewLink(s, 1e6, 5*time.Millisecond, sink, WithJitter(2*time.Millisecond), WithLoss(0.1))
		col := NewCollector(s)
		link2 := NewLink(s, 1e6, time.Millisecond, col)
		for i := 0; i < 100; i++ {
			pkt := &Packet{Size: 1000}
			link.Send(pkt)
			link2.Send(&Packet{Size: 500})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return col.Times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
