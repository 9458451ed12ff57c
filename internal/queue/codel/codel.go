// Package codel is the Controlled Delay law of RFC 8289, written once for
// every queue that judges itself by the sojourn of its head: each flow of
// queue.FQCoDel, and overload.Admission. It knows no packet or item type
// and no clock: the caller hands it the head's sojourn, the time now on any
// monotonic scale, and whether anything waits behind the head, and it
// answers whether to drop one now. What to drop is the caller's.
package codel

import (
	"math"
	"time"
)

// RFC 8289's parameters, which every user of the law shares.
const (
	// Target is the acceptable standing-queue sojourn.
	Target = 5 * time.Millisecond
	// Interval is the sliding-minimum window: a sojourn that stays above
	// Target this long is a standing queue.
	Interval = 100 * time.Millisecond
)

// Law is one queue's CoDel state. The zero value is ready to use.
type Law struct {
	firstAbove time.Duration // when a sojourn above Target becomes standing; 0 = below
	dropNext   time.Duration // when the next drop is due while dropping
	count      int           // drops in this dropping episode, resumed per §5.4
	lastCount  int           // count as the episode began
	dropping   bool
	last       step // what the previous Drop answered, for the head that follows
}

// step is what a Drop that answered yes leaves for the next call.
type step uint8

const (
	none    step = iota
	entered      // the drop that began an episode
	dropped      // a drop inside an episode
)

// Drop judges the head of the queue at now — sojourn is how long it has
// waited, behind whether anything waits behind it — and reports whether to
// drop one item now. After a yes the caller drops one and asks again, in the
// same instant, about the head that now leads, until the answer is no.
func (l *Law) Drop(sojourn, now time.Duration, behind bool) bool {
	prev := l.last
	l.last = none
	if prev == entered {
		// The head behind an episode's first drop leaves unjudged: the
		// next drop is not due for Interval/√count.
		return false
	}
	if !l.standing(sojourn, now, behind) {
		l.dropping = false
		return false
	}
	if !l.dropping {
		// Enter the dropping state with this drop. If the last episode
		// ended recently, resume near its drop rate rather than from one
		// (RFC 8289 §5.4); delta counts this entry drop.
		l.count++
		delta := l.count - l.lastCount
		l.count = 1
		if delta > 1 && now-l.dropNext < 16*Interval {
			l.count = delta
		}
		l.lastCount = l.count
		l.dropNext = l.controlLaw(now)
		l.dropping = true
		l.last = entered
		return true
	}
	if prev == dropped {
		l.dropNext = l.controlLaw(l.dropNext)
	}
	if now < l.dropNext {
		return false
	}
	l.count++
	l.last = dropped
	return true
}

// Stop leaves the dropping state: the queue ran dry, or holds nothing the
// caller may drop.
func (l *Law) Stop() {
	l.dropping = false
	l.last = none
}

// standing runs the sliding-minimum test: whether the sojourn has stayed
// above Target, with more than the head queued, for at least one Interval.
func (l *Law) standing(sojourn, now time.Duration, behind bool) bool {
	if sojourn < Target || !behind {
		l.firstAbove = 0
		return false
	}
	if l.firstAbove == 0 {
		l.firstAbove = now + Interval
		return false
	}
	return now >= l.firstAbove
}

// controlLaw spaces drops Interval/√count apart.
func (l *Law) controlLaw(t time.Duration) time.Duration {
	return t + time.Duration(float64(Interval)/math.Sqrt(float64(l.count)))
}
