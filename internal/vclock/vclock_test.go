package vclock

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestSystemNowAdvancesMonotonically(t *testing.T) {
	a := System.Now()
	b := System.Now()
	if b.Before(a) {
		t.Fatalf("system clock went backwards: %v then %v", a, b)
	}
	if d := System.Since(a); d < 0 {
		t.Fatalf("Since returned negative duration %v", d)
	}
}

func TestSystemAfterFuncFiresAndStops(t *testing.T) {
	var fired atomic.Int32
	done := make(chan struct{})
	System.AfterFunc(time.Millisecond, func() {
		fired.Add(1)
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("AfterFunc never fired")
	}
	if fired.Load() != 1 {
		t.Fatalf("fired %d times, want 1", fired.Load())
	}

	tm := System.AfterFunc(time.Hour, func() { fired.Add(100) })
	if !tm.Stop() {
		t.Fatal("Stop on a far-future timer reported already-fired")
	}
	if fired.Load() != 1 {
		t.Fatalf("stopped timer still fired (count %d)", fired.Load())
	}
}

func TestOrSystemDefaultsNil(t *testing.T) {
	if OrSystem(nil) != System {
		t.Fatal("OrSystem(nil) != System")
	}
	c := systemClock{}
	if OrSystem(c) != Clock(c) {
		t.Fatal("OrSystem did not pass through a non-nil clock")
	}
}

// stopOnly is a Timer without Reset.
type stopOnly struct{ stopped bool }

func (s *stopOnly) Stop() bool { was := !s.stopped; s.stopped = true; return was }

// Rearm on a timer that cannot Reset stops it before arming a fresh one, so
// a pending timer re-armed earlier does not fire twice.
func TestRearmFallbackStopsOld(t *testing.T) {
	old := &stopOnly{}
	fresh := Rearm(System, old, time.Hour, func() {})
	defer fresh.Stop()
	if !old.stopped {
		t.Fatal("Rearm left the old timer pending")
	}
	if fresh == Timer(old) {
		t.Fatal("Rearm returned the timer it could not reset")
	}
}

// Deadlines order by instant, then by stamp; an unset one comes after every
// set one.
func TestDeadlineOrder(t *testing.T) {
	t0 := time.Unix(100, 0)
	a, b := Deadline{At: t0, Stamp: 1}, Deadline{At: t0, Stamp: 2}
	later := Deadline{At: t0.Add(time.Nanosecond)}
	var none Deadline
	for _, c := range []struct {
		d, e Deadline
		want bool
	}{
		{a, b, true}, {b, a, false}, {a, a, false},
		{b, later, true}, {later, a, false},
		{a, none, true}, {none, a, false}, {none, none, false},
	} {
		if got := c.d.Before(c.e); got != c.want {
			t.Errorf("%+v.Before(%+v) = %v, want %v", c.d, c.e, got, c.want)
		}
	}
	if d := NewDeadline(nil, t0); d != (Deadline{At: t0}) {
		t.Errorf("NewDeadline without a Sequencer = %+v, want no stamp", d)
	}
}
